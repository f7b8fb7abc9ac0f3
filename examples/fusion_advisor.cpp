/**
 * @file
 * Kernel-fusion advisor: run SKIP on a CPU-bound workload, mine
 * proximity-score chains, and print fusion recommendations with their
 * idealized launch-saving speedups — the workflow of paper Sec. V-C.
 * Warns when the workload is already GPU-bound (fusion won't help).
 *
 * Usage: fusion_advisor [--model GPT2] [--platform Intel+H100]
 *                       [--batch 1] [--seq 512] [--threshold 1.0]
 */

#include <cstdio>

#include "analysis/boundedness.hh"
#include "analysis/sweep.hh"
#include "common/cli.hh"
#include "common/strutil.hh"
#include "fusion/recommend.hh"
#include "hw/catalog.hh"
#include "skip/profile.hh"
#include "workload/model_config.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    workload::ModelConfig model =
        workload::modelByName(args.getString("model", "GPT2"));
    hw::Platform platform =
        hw::platforms::byName(args.getString("platform", "Intel+H100"));
    int batch = args.getInt("batch", 1);
    int seq = args.getInt("seq", 512);
    double threshold = args.getDouble("threshold", 1.0);

    skip::ProfileResult run =
        skip::profilePrefill(model, platform, batch, seq);

    // Fusion pays off only in the CPU-bound region (Sec. V-C): check
    // where this batch sits before recommending anything.
    analysis::SweepResult sweep = analysis::runBatchSweep(
        model, platform, analysis::defaultBatchGrid(), seq);
    analysis::BoundednessResult bound =
        analysis::classifyBoundedness(sweep);

    std::printf("%s on %s, batch=%d, seq=%d: TTFT %.2f ms, %zu kernel "
                "launches, %s\n\n",
                model.name.c_str(), platform.name.c_str(), batch, seq,
                run.ttftNs() / 1e6, run.metrics.numKernels,
                analysis::boundednessName(bound.classify(batch)));

    if (bound.classify(batch) == analysis::Boundedness::GpuBound) {
        std::puts("warning: this configuration is GPU-bound - kernel "
                  "queuing dominates, so launch-saving fusion yields "
                  "little benefit here. Consider smaller batches or "
                  "kernel-time optimizations instead.\n");
    }

    fusion::FusionReport report = fusion::recommendFromTrace(
        run.trace, fusion::defaultChainLengths(), threshold);
    std::fputs(report.render().c_str(), stdout);

    const auto &best = report.best();
    double launch_tax_ms = run.metrics.tklqtNs / 1e6;
    std::printf("\nLaunch+queue tax (TKLQT) today: %.3f ms of %.2f ms "
                "TTFT\n", launch_tax_ms, run.ttftNs() / 1e6);
    std::printf("Best recommendation: fuse %zu chain(s) of length %zu "
                "-> %zu launches (%.2fx ideal launch-saving speedup)\n",
                best.fusedChains, best.length, best.kFused,
                best.idealSpeedup);
    return 0;
}

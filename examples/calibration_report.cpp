/**
 * @file
 * Calibration report: prints every paper anchor next to the model's
 * current prediction. Used to tune the platform catalog; kept as an
 * example because it doubles as a one-stop reproduction summary.
 *
 * Usage: calibration_report [--seq 512]
 */

#include <cstdio>

#include "analysis/boundedness.hh"
#include "analysis/compare.hh"
#include "analysis/sweep.hh"
#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "fusion/recommend.hh"
#include "hw/catalog.hh"
#include "skip/profile.hh"
#include "stats/summary.hh"
#include "workload/builder.hh"
#include "workload/compile_model.hh"

using namespace skipsim;

namespace
{

void
reportNullKernel()
{
    TextTable table("== Table V: nullKernel (paper anchors: 2260.5/2374.6/"
                    "2771.6 ns launch; 1440.0/1235.2/1171.2 ns duration)");
    table.setHeader({"platform", "launch overhead (ns)", "duration (ns)"});
    for (const auto &platform : hw::platforms::paperTrio()) {
        workload::OperatorGraph graph =
            workload::buildNullKernelGraph(2000);
        sim::Simulator simulator(platform);
        sim::SimResult result = simulator.run(graph);
        skip::DependencyGraph dep =
            skip::DependencyGraph::build(result.trace);
        stats::Summary launch;
        stats::Summary duration;
        for (const auto &link : dep.computeKernelsOnly()) {
            launch.add(static_cast<double>(link.launchToStartNs));
            duration.add(static_cast<double>(
                dep.trace().byId(link.kernelId).durNs));
        }
        table.addRow({platform.name, strprintf("%.1f", launch.mean()),
                      strprintf("%.1f", duration.mean())});
    }
    std::puts(table.render().c_str());
}

void
reportModelSweep(const workload::ModelConfig &model, int seq)
{
    auto batches = analysis::defaultBatchGrid();
    std::vector<analysis::SweepResult> sweeps;
    for (const auto &platform : hw::platforms::paperTrio())
        sweeps.push_back(
            analysis::runBatchSweep(model, platform, batches, seq));

    TextTable table("== " + model.name + " prefill IL (ms) / TKLQT (ms)");
    table.setHeader({"batch", "AMD+A100", "Intel+H100", "GH200",
                     "gpuIdle% GH", "cpuIdle% GH"});
    for (int batch : batches) {
        std::vector<std::string> row{std::to_string(batch)};
        for (const auto &sweep : sweeps) {
            const auto &m = sweep.at(batch).metrics;
            row.push_back(strprintf("%.2f/%.2f", m.ilNs / 1e6,
                                    m.tklqtNs / 1e6));
        }
        const auto &gh = sweeps[2].at(batch).metrics;
        row.push_back(strprintf("%.0f%%",
                                100.0 * gh.gpuIdleNs / gh.ilNs));
        row.push_back(strprintf("%.0f%%",
                                100.0 * gh.cpuIdleNs / gh.ilNs));
        table.addRow(row);
    }
    std::puts(table.render().c_str());

    for (const auto &sweep : sweeps) {
        auto bound = analysis::classifyBoundedness(sweep);
        std::printf("  %-11s knee=%s plateauTKLQT=%.3fms sweet=[%d,%d]\n",
                    sweep.platformName.c_str(),
                    bound.transitionBatch
                        ? std::to_string(*bound.transitionBatch).c_str()
                        : "none",
                    bound.plateauTklqtNs / 1e6,
                    analysis::findSweetSpot(sweep).minBatch,
                    analysis::findSweetSpot(sweep).maxBatch);
    }
    auto cp_intel = analysis::findCrossover(sweeps[2], sweeps[1]);
    auto cp_amd = analysis::findCrossover(sweeps[2], sweeps[0]);
    std::printf("  CP vs Intel+H100: %s | vs AMD+A100: %s\n",
                cp_intel.crossoverPoint
                    ? std::to_string(*cp_intel.crossoverPoint).c_str()
                    : (cp_intel.firstWinBatch ? "<1" : "none"),
                cp_amd.crossoverPoint
                    ? std::to_string(*cp_amd.crossoverPoint).c_str()
                    : (cp_amd.firstWinBatch ? "<1" : "none"));
    std::printf("  GH200 speedup @64: vs Intel %.2fx, vs AMD %.2fx | "
                "@16: %.2fx / %.2fx | slowdown @1: %.2fx / %.2fx\n\n",
                analysis::speedupAt(sweeps[2], sweeps[1], 64),
                analysis::speedupAt(sweeps[2], sweeps[0], 64),
                analysis::speedupAt(sweeps[2], sweeps[1], 16),
                analysis::speedupAt(sweeps[2], sweeps[0], 16),
                1.0 / analysis::speedupAt(sweeps[2], sweeps[1], 1),
                1.0 / analysis::speedupAt(sweeps[2], sweeps[0], 1));
}

void
reportFusion(const workload::ModelConfig &model, int seq)
{
    skip::ProfileResult run = skip::profilePrefill(
        model, hw::platforms::intelH100(), 1, seq);
    fusion::FusionReport report =
        fusion::recommendFromTrace(run.trace);
    std::printf("== Fusion %s (anchors: GPT2 K=405 2.7x@256; XLM-R "
                "K=299 6.8x@256)\n%s\n",
                model.name.c_str(), report.render().c_str());
}

void
reportCompile(int seq)
{
    workload::ModelConfig gemma = workload::gemma2b();
    hw::Platform intel = hw::platforms::intelH100();

    workload::BuildOptions opts;
    opts.batch = 1;
    opts.seqLen = seq;
    workload::OperatorGraph eager = workload::buildPrefillGraph(gemma, opts);

    std::printf("== Table I: Gemma-2B BS=1 seq=%d on Intel+H100 "
                "(anchors: 0.406/6.284/12.747/387.3 s; speedups "
                "1/1.203/1.239/1.317)\n", seq);
    std::printf("  ops=%zu uniqueGemmShapes=%zu\n", eager.numOps(),
                workload::uniqueGemmShapes(eager));

    double eager_ttft = 0.0;
    for (auto mode :
         {workload::ExecMode::Eager, workload::ExecMode::CompileDefault,
          workload::ExecMode::CompileReduceOverhead,
          workload::ExecMode::CompileMaxAutotune}) {
        double compile_s = workload::compileTimeNs(
            mode, eager, intel.cpu.singleThreadScore) / 1e9;
        skip::ProfileResult run =
            skip::profilePrefill(gemma, intel, 1, seq, mode);
        if (mode == workload::ExecMode::Eager)
            eager_ttft = run.ttftNs();
        std::printf("  %-26s compile=%9.3fs TTFT=%8.3fms speedup=%.3f\n",
                    workload::execModeName(mode), compile_s,
                    run.ttftNs() / 1e6, eager_ttft / run.ttftNs());
    }
    std::puts("");
}

void
reportSevenB(int seq)
{
    std::printf("== Fig 3: 7B TTFT speedups vs eager (BS=1 seq=%d, "
                "Intel+H100)\n", seq);
    for (const auto &model : workload::sevenBSet()) {
        hw::Platform intel = hw::platforms::intelH100();
        double eager =
            skip::profilePrefill(model, intel, 1, seq).ttftNs();
        double fa2 = skip::profilePrefill(
            model, intel, 1, seq,
            workload::ExecMode::FlashAttention2).ttftNs();
        double ma = skip::profilePrefill(
            model, intel, 1, seq,
            workload::ExecMode::CompileMaxAutotune).ttftNs();
        std::printf("  %-12s eager=%7.2fms FA2=%.2fx max-autotune=%.2fx\n",
                    model.name.c_str(), eager / 1e6, eager / fa2,
                    eager / ma);
    }
    std::puts("");
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    int seq = args.getInt("seq", 512);

    reportNullKernel();
    for (const auto &model : workload::paperQuartet())
        reportModelSweep(model, seq);
    reportFusion(workload::gpt2(), seq);
    reportFusion(workload::xlmRobertaBase(), seq);
    reportCompile(1024);
    reportSevenB(1024);
    return 0;
}

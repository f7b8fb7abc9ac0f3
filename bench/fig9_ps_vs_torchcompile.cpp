/**
 * @file
 * Regenerates paper Fig. 9: idealized proximity-score fusion speedups
 * per chain length (blue bars) against the measured torch.compile
 * reduce-overhead speedup (orange bar) for GPT-2 prefill, BS=1, on
 * Intel+H100, all relative to eager execution.
 *
 * Usage: fig9_ps_vs_torchcompile [--seq 512] [--csv]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "fusion/recommend.hh"
#include "hw/catalog.hh"
#include "skip/profile.hh"
#include "workload/model_config.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    int seq = args.getInt("seq", 512);
    hw::Platform intel = hw::platforms::intelH100();
    workload::ModelConfig model = workload::gpt2();

    skip::ProfileResult eager =
        skip::profilePrefill(model, intel, 1, seq);
    skip::ProfileResult ro = skip::profilePrefill(
        model, intel, 1, seq,
        workload::ExecMode::CompileReduceOverhead);
    double tc_speedup = eager.ttftNs() / ro.ttftNs();

    fusion::FusionReport report =
        fusion::recommendFromTrace(eager.trace);

    TextTable table(strprintf(
        "Fig. 9: GPT-2 prefill BS=1 seq=%d on Intel+H100, speedups vs "
        "eager", seq));
    table.setHeader({"Strategy", "Speedup"});
    for (const auto &stats : report.byLength) {
        table.addRow({strprintf("PS fusion, L=%zu", stats.length),
                      strprintf("%.2fx", stats.idealSpeedup)});
    }
    table.addRow({"torch.compile (reduce-overhead)",
                  strprintf("%.2fx", tc_speedup)});
    std::fputs(args.has("csv") ? table.renderCsv().c_str()
                               : table.render().c_str(),
               stdout);

    double best = report.best().idealSpeedup;
    std::printf("\nBest PS fusion (L=%zu): %.2fx = %.2fx over "
                "torch.compile reduce-overhead (paper: ~1.3x)\n",
                report.best().length, best, best / tc_speedup);
    std::puts("Key takeaway: in the CPU-bound region, deterministic "
              "long-chain fusion can beat CUDA-graph capture on pure "
              "launch savings, without graph-capture rigidity.");
    return 0;
}

/**
 * @file
 * Regenerates paper Table I: compilation time and TTFT speedup of
 * torch.compile modes vs eager for Gemma-2B (BS=1, seq=1024) on the
 * Intel+H100 platform.
 *
 * Usage: table1_compile_modes [--seq 1024] [--csv]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "hw/catalog.hh"
#include "skip/profile.hh"
#include "workload/builder.hh"
#include "workload/compile_model.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    int seq = args.getInt("seq", 1024);

    workload::ModelConfig gemma = workload::gemma2b();
    hw::Platform intel = hw::platforms::intelH100();

    workload::BuildOptions build;
    build.batch = 1;
    build.seqLen = seq;
    workload::OperatorGraph eager_graph =
        workload::buildPrefillGraph(gemma, build);

    struct ModeRow
    {
        workload::ExecMode mode;
        const char *label;
        double paper_compile_s;
        double paper_speedup;
    };
    const ModeRow rows[] = {
        {workload::ExecMode::Eager, "Eager", 0.40644, 1.0},
        {workload::ExecMode::CompileDefault, "Default", 6.2844, 1.203},
        {workload::ExecMode::CompileReduceOverhead, "Reduce-overhead",
         12.7469, 1.2394},
        {workload::ExecMode::CompileMaxAutotune, "Max-autotune", 387.3,
         1.317},
    };

    TextTable table(strprintf(
        "Table I: torch.compile modes for Gemma-2B, BS=1, seq=%d, "
        "Intel+H100", seq));
    table.setHeader({"Compile mode", "Compile time (s)", "(paper)",
                     "TTFT (ms)", "Speedup", "(paper)"});

    double eager_ttft = 0.0;
    for (const auto &row : rows) {
        double compile_s =
            workload::compileTimeNs(row.mode, eager_graph,
                                    intel.cpu.singleThreadScore) / 1e9;
        skip::ProfileResult run =
            skip::profilePrefill(gemma, intel, 1, seq, row.mode);
        if (row.mode == workload::ExecMode::Eager)
            eager_ttft = run.ttftNs();
        table.addRow({row.label,
                      strprintf("%.4f", compile_s),
                      strprintf("%.4f", row.paper_compile_s),
                      strprintf("%.3f", run.ttftNs() / 1e6),
                      strprintf("%.4f", eager_ttft / run.ttftNs()),
                      strprintf("%.4f", row.paper_speedup)});
    }

    std::fputs(args.has("csv") ? table.renderCsv().c_str()
                               : table.render().c_str(),
               stdout);
    std::puts("\nKey takeaway: compile-time overhead climbs from ~15x "
              "(default) to ~950x (max-autotune) of the eager warmup "
              "for a modest 1.2-1.3x TTFT gain, and CUDA-graph modes "
              "cannot resize the KV cache or change batch size without "
              "recompiling.");
    return 0;
}

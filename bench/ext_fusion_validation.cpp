/**
 * @file
 * Extension experiment (paper Sec. VI future work): validate the
 * proximity-score fusion predictions by *applying* the recommended
 * chains to the operator graph and simulating the fused execution.
 * Reports, per model/platform/chain length: the Eq. 8 idealized
 * speedup, the simulated speedup with launch-interception fusion
 * (launch-only), and with compiler-style fusion (collapse-ops).
 *
 * Usage: ext_fusion_validation [--seq 512] [--batch 1] [--csv]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "fusion/apply.hh"
#include "hw/catalog.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    int seq = args.getInt("seq", 512);
    int batch = args.getInt("batch", 1);

    for (const auto &model :
         {workload::gpt2(), workload::xlmRobertaBase()}) {
        workload::BuildOptions opts;
        opts.batch = batch;
        opts.seqLen = seq;
        workload::OperatorGraph eager =
            workload::buildPrefillGraph(model, opts);

        for (const auto &platform : hw::platforms::paperTrio()) {
            sim::Simulator simulator(platform);
            double t_eager = simulator.run(eager).wallNs;

            TextTable table(strprintf(
                "Fusion validation: %s, BS=%d, seq=%d on %s "
                "(eager TTFT %.2f ms)",
                model.name.c_str(), batch, seq, platform.name.c_str(),
                t_eager / 1e6));
            table.setHeader({"L", "chains", "K_fused", "ideal (Eq. 8)",
                             "sim launch-only", "sim collapse-ops"});

            for (std::size_t length : {std::size_t(8), std::size_t(32),
                                       std::size_t(128),
                                       std::size_t(256)}) {
                fusion::AppliedFusion lo = fusion::applyFusion(
                    eager, length, fusion::ApplyMode::LaunchOnly);
                fusion::AppliedFusion co = fusion::applyFusion(
                    eager, length, fusion::ApplyMode::CollapseOps);
                double t_lo = simulator.run(lo.graph).wallNs;
                double t_co = simulator.run(co.graph).wallNs;
                table.addRow({std::to_string(length),
                              std::to_string(lo.chainsApplied),
                              std::to_string(lo.launchesAfter),
                              strprintf("%.2fx", lo.idealSpeedup),
                              strprintf("%.2fx", t_eager / t_lo),
                              strprintf("%.2fx", t_eager / t_co)});
            }
            std::fputs(args.has("csv") ? table.renderCsv().c_str()
                                       : table.render().c_str(),
                       stdout);
            std::puts("");
        }
    }

    std::puts("Key takeaway: the idealized Eq. 8 speedups are upper "
              "bounds - launch interception alone recovers only part "
              "of them (framework dispatch remains), compiler-style "
              "collapse recovers most on CPU-bound configurations, and "
              "the gains are largest on GH200, whose wide CPU-bound "
              "region is exactly where the paper aims this "
              "optimization.");
    return 0;
}

/**
 * @file
 * Regenerates paper Table V: cudaLaunchKernel + nullKernel launch
 * overhead and nullKernel duration across the three evaluation
 * platforms, measured through SKIP on simulated traces.
 *
 * Usage: table5_nullkernel [--launches 5000] [--csv]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "hw/catalog.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "stats/summary.hh"
#include "workload/builder.hh"

using namespace skipsim;

namespace
{

struct PaperRow
{
    const char *platform;
    double launch;
    double duration;
};

constexpr PaperRow kPaper[] = {
    {"AMD+A100", 2260.5, 1440.0},
    {"Intel+H100", 2374.6, 1235.2},
    {"GH200", 2771.6, 1171.2},
};

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    int launches = args.getInt("launches", 5000);

    TextTable table(
        "Table V: nullKernel launch overhead and duration (ns)");
    table.setHeader({"Platform", "Launch overhead", "(paper)",
                     "Duration", "(paper)"});

    for (const auto &row : kPaper) {
        hw::Platform platform = hw::platforms::byName(row.platform);
        sim::Simulator simulator(platform);
        sim::SimResult result =
            simulator.run(workload::buildNullKernelGraph(launches));
        skip::DependencyGraph dep =
            skip::DependencyGraph::build(result.trace);

        stats::Summary launch;
        stats::Summary duration;
        for (const auto &link : dep.computeKernelsOnly()) {
            launch.add(static_cast<double>(link.launchToStartNs));
            duration.add(static_cast<double>(
                dep.trace().byId(link.kernelId).durNs));
        }
        table.addRow({row.platform,
                      strprintf("%.1f", launch.mean()),
                      strprintf("%.1f", row.launch),
                      strprintf("%.1f", duration.mean()),
                      strprintf("%.1f", row.duration)});
    }

    std::fputs(args.has("csv") ? table.renderCsv().c_str()
                               : table.render().c_str(),
               stdout);
    std::puts("\nKey takeaway: GH200 pays the highest launch overhead "
              "(slower single-thread Grace CPU + unified virtual memory "
              "management) but executes null kernels fastest; both LC "
              "systems launch cheaper, favouring latency-sensitive "
              "low-batch work.");
    return 0;
}

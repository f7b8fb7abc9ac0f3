/**
 * @file
 * Coupling-paradigm explorer: compare a workload across the LC / CC
 * platforms of the paper plus the hypothetical tightly-coupled
 * MI300A-style system (the paper's future work), answering question 1
 * of the paper — "are CC/TC systems universally more effective for
 * inference?" — for your model and batch range.
 *
 * Usage: platform_explorer [--model Bert-Base-Uncased] [--seq 512]
 */

#include <cstdio>

#include "analysis/boundedness.hh"
#include "analysis/compare.hh"
#include "analysis/sweep.hh"
#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "hw/catalog.hh"
#include "workload/model_config.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    workload::ModelConfig model = workload::modelByName(
        args.getString("model", "Bert-Base-Uncased"));
    int seq = args.getInt("seq", 512);

    std::vector<hw::Platform> platforms = hw::platforms::all();
    std::vector<analysis::SweepResult> sweeps;
    for (const auto &platform : platforms) {
        sweeps.push_back(analysis::runBatchSweep(
            model, platform, analysis::defaultBatchGrid(), seq));
    }

    TextTable table(strprintf(
        "%s prefill TTFT (ms) across coupling paradigms, seq=%d",
        model.name.c_str(), seq));
    std::vector<std::string> header{"Batch"};
    for (const auto &platform : platforms) {
        header.push_back(platform.name + " (" +
                         hw::couplingName(platform.coupling) + ")");
    }
    table.setHeader(header);
    for (const auto &row : analysis::comparePlatforms(sweeps)) {
        std::vector<std::string> cells{std::to_string(row.batch)};
        for (double latency : row.latencyNs)
            cells.push_back(strprintf("%.2f", latency / 1e6));
        table.addRow(cells);
    }
    std::fputs(table.render().c_str(), stdout);

    std::puts("\nPer-platform summary:");
    for (const auto &sweep : sweeps) {
        auto bound = analysis::classifyBoundedness(sweep);
        auto spot = analysis::findSweetSpot(sweep);
        std::printf("  %-11s CPU-bound until %s, balanced BS=[%d,%d], "
                    "BS=1 TTFT %.2f ms, BS=128 TTFT %.2f ms\n",
                    sweep.platformName.c_str(),
                    bound.transitionBatch
                        ? ("BS=" + std::to_string(
                               *bound.transitionBatch)).c_str()
                        : "never",
                    spot.minBatch, spot.maxBatch,
                    sweep.at(1).metrics.ilNs / 1e6,
                    sweep.at(128).metrics.ilNs / 1e6);
    }

    // Who wins where?
    std::puts("\nBest platform per batch size:");
    for (const auto &row : analysis::comparePlatforms(sweeps)) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < row.latencyNs.size(); ++i) {
            if (row.latencyNs[i] < row.latencyNs[best])
                best = i;
        }
        std::printf("  BS=%-4d %s\n", row.batch,
                    platforms[best].name.c_str());
    }

    std::puts("\nKey takeaway: no coupling paradigm wins everywhere - "
              "powerful-CPU LC systems take the latency-critical "
              "low-batch region, CC/TC systems take the "
              "throughput-oriented large-batch region, and a TC part "
              "with a strong x86 core (MI300A-style) narrows the "
              "low-batch gap.");
    return 0;
}

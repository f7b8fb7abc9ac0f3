/**
 * @file
 * Extension experiment: energy per request vs batch size per platform.
 * The paper motivates inference optimization through datacenter cost;
 * this bench shows the energy side of the batch-size trade-off — the
 * 900 W GH200 is the most expensive way to serve one request at BS=1
 * and the cheapest at scale, with the balanced-utilization region
 * coinciding with the energy sweet spot.
 *
 * Usage: ext_energy_efficiency [--model Bert-Base-Uncased] [--seq 512]
 *                              [--csv]
 */

#include <cstdio>

#include "analysis/energy.hh"
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

    TextTable table(strprintf(
        "Energy per request (mJ) - %s prefill, seq=%d",
        model.name.c_str(), seq));
    table.setHeader({"Batch", "AMD+A100", "Intel+H100", "GH200",
                     "best"});

    std::vector<analysis::SweepResult> sweeps;
    for (const auto &platform : hw::platforms::paperTrio())
        sweeps.push_back(analysis::runBatchSweep(
            model, platform, analysis::defaultBatchGrid(), seq));

    auto trio = hw::platforms::paperTrio();
    for (int batch : analysis::defaultBatchGrid()) {
        std::vector<std::string> row{std::to_string(batch)};
        double best = 0.0;
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < sweeps.size(); ++i) {
            analysis::EnergyReport energy = analysis::estimateEnergy(
                sweeps[i].at(batch).metrics, trio[i], batch);
            double mj = energy.joulesPerRequest * 1e3;
            row.push_back(strprintf("%.2f", mj));
            if (i == 0 || mj < best) {
                best = mj;
                best_idx = i;
            }
        }
        row.push_back(trio[best_idx].name);
        table.addRow(row);
    }
    std::fputs(args.has("csv") ? table.renderCsv().c_str()
                               : table.render().c_str(),
               stdout);

    std::puts("\nKey takeaway: per-request energy falls with batch on "
              "every platform, but the winner flips - at small batch "
              "the lower-power LC systems are cheaper per request, "
              "while past the crossover the GH200's shorter runtimes "
              "amortize its 900 W envelope.");
    return 0;
}

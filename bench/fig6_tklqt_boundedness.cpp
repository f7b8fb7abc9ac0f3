/**
 * @file
 * Regenerates paper Fig. 6: TKLQT vs batch size for the encoder models
 * (Bert-Base-Uncased, XLM-Roberta-Base) on the three platforms, with
 * the star-marker inflection batch where each workload transitions
 * from CPU-bound (launch-dominated) to GPU-bound (queue-dominated).
 *
 * The six (model, platform) sweeps are independent, so they fan out
 * on the skipsim::exec engine; with --jobs > 1 the grid runs serially
 * and in parallel and reports both wall-clock times (the results are
 * byte-identical by construction).
 *
 * Usage: fig6_tklqt_boundedness [--seq 512] [--batches 1,2,...]
 *                               [--jobs N] [--csv]
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/boundedness.hh"
#include "analysis/sweep.hh"
#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "exec/grid.hh"
#include "hw/catalog.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

/** One (model, platform) grid point's outcome. */
struct CellResult
{
    analysis::SweepResult sweep;
    analysis::BoundednessResult bound;
};

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    int seq = args.getInt("seq", 512);
    RunFlags flags = parseRunFlags(args);
    int jobs = flags.jobs;
    std::vector<int> batches =
        args.getIntList("batches", {1, 2, 4, 8, 16, 32, 64, 128});

    std::vector<workload::ModelConfig> models{
        workload::bertBaseUncased(), workload::xlmRobertaBase()};
    std::vector<hw::Platform> platforms = hw::platforms::paperTrio();

    exec::SweepSpec grid;
    grid.models = models;
    grid.platforms = platforms;
    grid.seqLens = {seq};

    auto cell = [&batches](const exec::RunSpec &spec) {
        CellResult result;
        result.sweep = analysis::runBatchSweep(
            spec.model(), spec.platform(), batches, spec.seqLen(),
            spec.mode(), spec.simOptions());
        result.bound = analysis::classifyBoundedness(result.sweep);
        return result;
    };

    double serial_start = nowMs();
    std::vector<CellResult> cells = exec::runGrid(grid, cell, 1);
    double serial_ms = nowMs() - serial_start;

    if (jobs != 1) {
        double parallel_start = nowMs();
        cells = exec::runGrid(grid, cell, jobs);
        double parallel_ms = nowMs() - parallel_start;
        std::printf("grid: %zu sweeps, serial %.0f ms, parallel "
                    "(--jobs %d) %.0f ms, speedup %.2fx\n\n",
                    grid.size(), serial_ms, jobs,
                    parallel_ms > 0.0 ? parallel_ms : 1.0,
                    parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
    }

    for (std::size_t mi = 0; mi < models.size(); ++mi) {
        const auto &model = models[mi];
        TextTable table(strprintf(
            "Fig. 6: TKLQT (ms) vs batch size, %s forward pass, seq=%d "
            "('*' marks the CPU->GPU-bound transition)",
            model.name.c_str(), seq));
        table.setHeader({"Batch", "AMD+A100", "Intel+H100", "GH200"});

        // Grid order: model varies slowest, platform fastest.
        const CellResult *row_cells = &cells[mi * platforms.size()];

        for (int batch : batches) {
            std::vector<std::string> row{std::to_string(batch)};
            for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
                const CellResult &c = row_cells[pi];
                bool star = c.bound.transitionBatch &&
                    *c.bound.transitionBatch == batch;
                row.push_back(strprintf(
                    "%.3f%s", c.sweep.at(batch).metrics.tklqtNs / 1e6,
                    star ? " *" : ""));
            }
            table.addRow(row);
        }
        std::fputs(flags.csv ? table.renderCsv().c_str()
                                   : table.render().c_str(),
                   stdout);

        for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
            const CellResult &c = row_cells[pi];
            std::printf("  %-11s transition at BS=%s (plateau %.3f ms)\n",
                        c.sweep.platformName.c_str(),
                        c.bound.transitionBatch
                            ? std::to_string(
                                  *c.bound.transitionBatch).c_str()
                            : "none",
                        c.bound.plateauTklqtNs / 1e6);
        }
        std::puts("");
    }

    std::puts("Key takeaway: encoder workloads transition at ~BS=8 on "
              "the LC systems but only at ~BS=32 on GH200 - a 4x wider "
              "CPU-bound region, created by the GH200's higher-bandwidth "
              "HBM finishing each batch inside the shadow of CPU "
              "dispatch.");
    return 0;
}

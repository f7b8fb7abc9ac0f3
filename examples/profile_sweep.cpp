/**
 * @file
 * Serving-operator scenario: sweep batch sizes for a model on a
 * platform, classify the CPU/GPU-bound regions with TKLQT, and report
 * the balanced "sweet spot" batch range plus the largest batch that
 * meets a latency SLO — the decision an interactive-serving operator
 * (chatbot / agentic pipeline stage) actually has to make.
 *
 * The per-batch profiles fan out on the skipsim::exec engine. Per-point
 * seeds derive as mixSeed(baseSeed, pointIndex) — the same convention
 * analysis::runBatchSweep uses — so this grid reproduces the library
 * sweep byte-for-byte at any --jobs count.
 *
 * Usage: profile_sweep [--model Llama-3.2-1B] [--platform GH200]
 *                      [--seq 512] [--slo-ms 200] [--jobs N] [--csv]
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
#include "skip/profile.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

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
    workload::ModelConfig model =
        workload::modelByName(args.getString("model", "Llama-3.2-1B"));
    hw::Platform platform =
        hw::platforms::byName(args.getString("platform", "GH200"));
    int seq = args.getInt("seq", 512);
    double slo_ms = args.getDouble("slo-ms", 200.0);
    RunFlags flags = parseRunFlags(args);
    int jobs = flags.jobs;

    exec::SweepSpec grid;
    grid.models = {model};
    grid.platforms = {platform};
    grid.batches = analysis::defaultBatchGrid();
    grid.seqLens = {seq};

    auto point = [](const exec::RunSpec &spec) {
        skip::ProfileResult run =
            skip::profile(spec.model(), spec.platform(),
                          spec.buildOptions(), spec.simOptions());
        analysis::SweepPoint out;
        out.batch = spec.batch();
        out.metrics = std::move(run.metrics);
        out.wallNs = run.wallNs;
        return out;
    };

    double serial_start = nowMs();
    std::vector<analysis::SweepPoint> points =
        exec::runGrid(grid, point, 1);
    double serial_ms = nowMs() - serial_start;

    if (jobs != 1) {
        double parallel_start = nowMs();
        points = exec::runGrid(grid, point, jobs);
        double parallel_ms = nowMs() - parallel_start;
        std::printf("grid: %zu profiles, serial %.0f ms, parallel "
                    "(--jobs %d) %.0f ms, speedup %.2fx\n\n",
                    grid.size(), serial_ms, jobs,
                    parallel_ms > 0.0 ? parallel_ms : 1.0,
                    parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
    }

    analysis::SweepResult sweep;
    sweep.modelName = model.name;
    sweep.platformName = platform.name;
    sweep.seqLen = seq;
    sweep.points = std::move(points);

    analysis::BoundednessResult bound =
        analysis::classifyBoundedness(sweep);
    analysis::SweetSpot spot = analysis::findSweetSpot(sweep);

    TextTable table(strprintf("%s on %s, seq=%d", model.name.c_str(),
                              platform.name.c_str(), seq));
    table.setHeader({"Batch", "TTFT (ms)", "ms/req", "TKLQT (ms)",
                     "GPU idle %", "CPU idle %", "Region"});
    for (const auto &point : sweep.points) {
        const auto &m = point.metrics;
        table.addRow({std::to_string(point.batch),
                      strprintf("%.2f", m.ilNs / 1e6),
                      strprintf("%.2f", m.ilNs / 1e6 / point.batch),
                      strprintf("%.3f", m.tklqtNs / 1e6),
                      strprintf("%.0f", 100.0 * m.gpuIdleNs / m.ilNs),
                      strprintf("%.0f", 100.0 * m.cpuIdleNs / m.ilNs),
                      analysis::boundednessName(
                          bound.classify(point.batch))});
    }
    std::fputs(flags.csv ? table.renderCsv().c_str()
                               : table.render().c_str(),
               stdout);

    std::printf("\nCPU->GPU-bound transition: %s\n",
                bound.transitionBatch
                    ? ("BS=" +
                       std::to_string(*bound.transitionBatch)).c_str()
                    : "not reached on this grid");
    std::printf("Balanced utilization sweet spot: BS=[%d, %d]\n",
                spot.minBatch, spot.maxBatch);

    int best_batch = 0;
    for (const auto &point : sweep.points) {
        if (point.metrics.ilNs / 1e6 <= slo_ms)
            best_batch = point.batch;
    }
    if (best_batch > 0) {
        std::printf("Largest batch meeting the %.0f ms TTFT SLO: %d "
                    "(%.2f ms)\n",
                    slo_ms, best_batch,
                    sweep.at(best_batch).metrics.ilNs / 1e6);
    } else {
        std::printf("No batch on the grid meets the %.0f ms TTFT SLO.\n",
                    slo_ms);
    }
    return 0;
}

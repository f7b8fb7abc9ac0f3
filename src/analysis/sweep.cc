#include "analysis/sweep.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"

namespace skipsim::analysis
{

namespace
{

stats::Series
makeSeries(const SweepResult &sweep, const std::string &name,
           double (*extract)(const SweepPoint &))
{
    stats::Series series(name);
    for (const auto &point : sweep.points)
        series.add(point.batch, extract(point));
    return series;
}

} // namespace

stats::Series
SweepResult::tklqtSeries() const
{
    return makeSeries(*this, modelName + "/tklqt",
                      [](const SweepPoint &p) { return p.metrics.tklqtNs; });
}

stats::Series
SweepResult::latencySeries() const
{
    return makeSeries(*this, modelName + "/latency",
                      [](const SweepPoint &p) { return p.metrics.ilNs; });
}

stats::Series
SweepResult::gpuIdleSeries() const
{
    return makeSeries(*this, modelName + "/gpu_idle",
                      [](const SweepPoint &p) {
                          return p.metrics.gpuIdleNs;
                      });
}

stats::Series
SweepResult::cpuIdleSeries() const
{
    return makeSeries(*this, modelName + "/cpu_idle",
                      [](const SweepPoint &p) {
                          return p.metrics.cpuIdleNs;
                      });
}

const SweepPoint &
SweepResult::at(int batch) const
{
    for (const auto &point : points) {
        if (point.batch == batch)
            return point;
    }
    fatal(strprintf("SweepResult: no point at batch %d", batch));
}

std::vector<int>
defaultBatchGrid()
{
    return {1, 2, 4, 8, 16, 32, 64, 128};
}

SweepResult
runCustomSweep(const std::string &workload_name,
               const hw::Platform &platform, const GraphBuilder &builder,
               const std::vector<int> &batches,
               const sim::SimOptions &sim_opts)
{
    if (batches.empty())
        fatal("runCustomSweep: empty batch list");

    SweepResult result;
    result.modelName = workload_name;
    result.platformName = platform.name;
    result.seqLen = 0;

    for (std::size_t i = 0; i < batches.size(); ++i) {
        int batch = batches[i];
        // Decorrelate jitter across sweep points deterministically,
        // with the project-wide mixSeed(base, index) convention.
        sim::SimOptions opts = sim_opts;
        opts.seed = mixSeed(sim_opts.seed, i);
        sim::Simulator simulator(platform, opts);
        sim::SimResult sim_result = simulator.run(builder(batch));

        skip::DependencyGraph dep =
            skip::DependencyGraph::build(std::move(sim_result.trace));

        SweepPoint point;
        point.batch = batch;
        point.metrics = skip::computeMetrics(dep);
        point.wallNs = sim_result.wallNs;
        result.points.push_back(std::move(point));
    }
    return result;
}

SweepResult
runBatchSweep(const workload::ModelConfig &model,
              const hw::Platform &platform,
              const std::vector<int> &batches, int seq_len,
              workload::ExecMode mode, const sim::SimOptions &sim_opts)
{
    if (batches.empty())
        fatal("runBatchSweep: empty batch list");

    SweepResult result = runCustomSweep(
        model.name, platform,
        [&](int batch) {
            workload::BuildOptions build;
            build.batch = batch;
            build.seqLen = seq_len;
            build.mode = mode;
            return workload::buildPrefillGraph(model, build);
        },
        batches, sim_opts);
    result.seqLen = seq_len;
    result.mode = mode;
    return result;
}

} // namespace skipsim::analysis

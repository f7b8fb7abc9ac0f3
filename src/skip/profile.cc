#include "skip/profile.hh"

#include "common/strutil.hh"

namespace skipsim::skip
{

ProfileResult
profile(const workload::ModelConfig &model, const hw::Platform &platform,
        const workload::BuildOptions &build, const sim::SimOptions &sim)
{
    workload::OperatorGraph graph =
        workload::buildPrefillGraph(model, build);

    sim::Simulator simulator(platform, sim);
    sim::SimResult sim_result = simulator.run(graph);

    sim_result.trace.setMeta("model", model.name);
    sim_result.trace.setMeta("batch", std::to_string(build.batch));
    sim_result.trace.setMeta("seq_len", std::to_string(build.seqLen));
    sim_result.trace.setMeta("mode", workload::execModeName(build.mode));

    DependencyGraph dep =
        DependencyGraph::build(std::move(sim_result.trace));

    ProfileResult result;
    result.modelName = model.name;
    result.platformName = platform.name;
    result.batch = build.batch;
    result.seqLen = build.seqLen;
    result.mode = build.mode;
    result.metrics = computeMetrics(dep);
    result.trace = dep.trace();
    result.kernelLaunches = graph.numKernelLaunches();
    result.wallNs = sim_result.wallNs;
    return result;
}

ProfileResult
profilePrefill(const workload::ModelConfig &model,
               const hw::Platform &platform, int batch, int seq_len,
               workload::ExecMode mode)
{
    workload::BuildOptions build;
    build.batch = batch;
    build.seqLen = seq_len;
    build.mode = mode;
    return profile(model, platform, build);
}

} // namespace skipsim::skip

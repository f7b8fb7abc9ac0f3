#include "analysis/generation.hh"

#include <algorithm>

#include "common/logging.hh"

namespace skipsim::analysis
{

double
GenerationResult::tpotNs() const
{
    if (stepNs.empty())
        return 0.0;
    double total = 0.0;
    for (double step : stepNs)
        total += step;
    return total / static_cast<double>(stepNs.size());
}

double
GenerationResult::worstStepNs() const
{
    if (stepNs.empty())
        return 0.0;
    return *std::max_element(stepNs.begin(), stepNs.end());
}

double
GenerationResult::tokensPerSecond(int batch) const
{
    double decode_ns = 0.0;
    for (double step : stepNs)
        decode_ns += step;
    if (decode_ns <= 0.0)
        return 0.0;
    return static_cast<double>(batch) *
        static_cast<double>(stepNs.size()) / (decode_ns / 1e9);
}

GenerationResult
simulateGeneration(const workload::ModelConfig &model,
                   const hw::Platform &platform,
                   const workload::BuildOptions &prompt, int genTokens,
                   const sim::SimOptions &sim)
{
    if (genTokens <= 0)
        fatal("simulateGeneration: genTokens must be positive");

    GenerationResult result;
    sim::Simulator simulator(platform, sim);
    result.ttftNs = simulator.wallNs(model, prompt);

    for (int t = 0; t < genTokens; ++t) {
        // KV cache covers the prompt plus the tokens emitted so far.
        int context = prompt.seqLen + t;
        sim::SimOptions step_sim = sim;
        step_sim.seed = sim.seed + 1000u + static_cast<std::uint64_t>(t);
        result.stepNs.push_back(
            sim::Simulator(platform, step_sim).wallNs(model, prompt,
                                                      context));
    }

    result.totalNs = result.ttftNs;
    for (double step : result.stepNs)
        result.totalNs += step;
    return result;
}

} // namespace skipsim::analysis

#include "analysis/speculative.hh"

#include <cmath>

#include "common/logging.hh"

namespace skipsim::analysis
{

SpeculativeResult
evaluateSpeculative(const hw::Platform &platform,
                    const SpeculativeConfig &config,
                    const workload::BuildOptions &context,
                    const sim::SimOptions &sim)
{
    if (config.k < 1)
        fatal("evaluateSpeculative: k must be >= 1");
    // Written so NaN fails too.
    if (!(config.acceptRate >= 0.0 && config.acceptRate < 1.0))
        fatal("evaluateSpeculative: acceptRate must be in [0, 1)");

    sim::Simulator simulator(platform, sim);

    // One draft decode step at the running context.
    SpeculativeResult result;
    result.draftStepNs =
        simulator.wallNs(config.draft, context, context.seqLen);

    // Target verification: one decode-shaped step whose GEMM rows span
    // the k+1 verified positions (batch widened accordingly).
    workload::BuildOptions verify_opts = context;
    verify_opts.batch = context.batch * (config.k + 1);
    result.verifyNs =
        simulator.wallNs(config.target, verify_opts, context.seqLen);

    // Plain autoregressive baseline: one target decode step per token.
    result.baselineTpotNs =
        simulator.wallNs(config.target, context, context.seqLen);

    result.cycleNs =
        config.k * result.draftStepNs + result.verifyNs;

    double a = config.acceptRate;
    result.expectedTokensPerCycle =
        (1.0 - std::pow(a, config.k + 1)) / (1.0 - a);

    result.tpotNs = result.cycleNs / result.expectedTokensPerCycle;
    result.speedup = result.tpotNs > 0.0
        ? result.baselineTpotNs / result.tpotNs
        : 1.0;
    return result;
}

} // namespace skipsim::analysis

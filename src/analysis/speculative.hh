/**
 * @file
 * Speculative decoding model (extension): a small draft model proposes
 * k tokens per cycle and the target model verifies them in one
 * parallel step. The draft steps are tiny, launch-dominated forwards —
 * exactly the regime where the paper shows CPU dispatch speed rules —
 * so the achievable speculative speedup is a direct function of the
 * platform's coupling/CPU balance.
 */

#ifndef SKIPSIM_ANALYSIS_SPECULATIVE_HH
#define SKIPSIM_ANALYSIS_SPECULATIVE_HH

#include "hw/platform.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

namespace skipsim::analysis
{

/** Speculative decoding setup. */
struct SpeculativeConfig
{
    /** Small proposer model (e.g. TinyLlama-1.1B). */
    workload::ModelConfig draft;

    /** Large verifier model (e.g. Llama-2-7B). */
    workload::ModelConfig target;

    /** Draft tokens proposed per cycle. */
    int k = 4;

    /**
     * Probability the target accepts one draft token (i.i.d. model);
     * expected tokens per cycle = (1 - a^(k+1)) / (1 - a).
     */
    double acceptRate = 0.7;
};

/** Outcome of evaluating one speculative configuration. */
struct SpeculativeResult
{
    /** One draft decode step, ns. */
    double draftStepNs = 0.0;

    /** One target verification step over k+1 positions, ns. */
    double verifyNs = 0.0;

    /** Full cycle: k draft steps + verification, ns. */
    double cycleNs = 0.0;

    /** Expected accepted tokens (plus the free verifier token). */
    double expectedTokensPerCycle = 1.0;

    /** Effective time per output token under speculation, ns. */
    double tpotNs = 0.0;

    /** Plain autoregressive target TPOT, ns. */
    double baselineTpotNs = 0.0;

    /** baseline / speculative TPOT. */
    double speedup = 1.0;
};

/**
 * Evaluate speculative decoding on a platform: draft steps and the
 * baseline use single-token decode graphs at context @p context.seqLen,
 * the verification step a decode graph with batch widened by k+1
 * positions. Every step runs in @p context.mode: eager decode is
 * launch-bound, so speculation loses there; CUDA-graph decode
 * (reduce-overhead, what vLLM uses) removes the launch tax and lets
 * the draft/target compute ratio pay off.
 * @throws skipsim::FatalError on k < 1 or acceptRate outside [0, 1)
 *         (NaN included).
 */
SpeculativeResult
evaluateSpeculative(const hw::Platform &platform,
                    const SpeculativeConfig &config,
                    const workload::BuildOptions &context = {},
                    const sim::SimOptions &sim = {});

} // namespace skipsim::analysis

#endif // SKIPSIM_ANALYSIS_SPECULATIVE_HH

/**
 * @file
 * Autoregressive generation modeling (extension beyond the paper's
 * prefill/TTFT-only evaluation): simulate a prefill followed by N
 * decode steps over a growing KV cache and report TTFT, mean/percentile
 * time-per-output-token (TPOT) and aggregate token throughput. Decode
 * steps launch the same number of kernels as prefill but with tiny
 * work, making the decode phase even more launch-overhead dominated —
 * the regime where the coupling-paradigm CPU differences matter most.
 */

#ifndef SKIPSIM_ANALYSIS_GENERATION_HH
#define SKIPSIM_ANALYSIS_GENERATION_HH

#include <vector>

#include "hw/platform.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

namespace skipsim::analysis
{

/** Result of simulating a full generation. */
struct GenerationResult
{
    /** Prefill latency (time to first token), ns. */
    double ttftNs = 0.0;

    /** Per-decode-step latencies in order, ns. */
    std::vector<double> stepNs;

    /** End-to-end latency (prefill + all decode steps), ns. */
    double totalNs = 0.0;

    /** Mean time per output token, ns. */
    double tpotNs() const;

    /** p99-style worst decode step, ns. */
    double worstStepNs() const;

    /** Aggregate decode throughput: batch * tokens / decode time. */
    double tokensPerSecond(int batch) const;
};

/**
 * Simulate prefill + decode for one request shape: the prefill runs
 * @p prompt as built (prompt.seqLen is the prompt length), and decode
 * step t runs at context prompt.seqLen + t with seed
 * sim.seed + 1000 + t.
 * @throws skipsim::FatalError for non-positive token counts.
 */
GenerationResult simulateGeneration(const workload::ModelConfig &model,
                                    const hw::Platform &platform,
                                    const workload::BuildOptions &prompt,
                                    int genTokens,
                                    const sim::SimOptions &sim = {});

} // namespace skipsim::analysis

#endif // SKIPSIM_ANALYSIS_GENERATION_HH

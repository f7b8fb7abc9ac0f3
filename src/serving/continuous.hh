/**
 * @file
 * Continuous (iteration-level) batching simulation, the serving
 * discipline of Orca/vLLM that the paper cites (Sec. IV-B: "serving
 * frameworks like vLLM aim to maximize throughput while approaching
 * the low latency characteristic of BS=1 execution"). Requests join
 * the running batch between decode iterations instead of waiting for
 * a whole static batch to drain, trading a little per-iteration cost
 * for much lower queueing delay.
 */

#ifndef SKIPSIM_SERVING_CONTINUOUS_HH
#define SKIPSIM_SERVING_CONTINUOUS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "hw/platform.hh"
#include "sim/simulator.hh"
#include "stats/series.hh"
#include "workload/model_config.hh"

namespace skipsim::obs
{
class Collector;
}

namespace skipsim::serving
{

class ReplicaEngine;

/**
 * Iteration cost model: prefill and single-decode-step latencies as a
 * function of batch size, obtained by simulating the workload once per
 * grid point and reading stats::Series::extrapolate in between and
 * past the grid. Every grid point and chunk is priced with
 * sim::Simulator::wallNs: the model reads only wall times, so no
 * trace is recorded. The model never changes after construction, so
 * one model may be read from many threads at once.
 */
class IterationCostModel
{
  public:
    /**
     * Build by simulating prefill and decode-step graphs on the
     * platform across a batch grid.
     * @throws skipsim::FatalError on non-positive prompt length.
     */
    IterationCostModel(const workload::ModelConfig &model,
                       const hw::Platform &platform, int prompt_len);

    /** Prefill iteration latency for @p batch new sequences, ns. */
    double prefillNs(int batch) const;

    /** One decode iteration latency for @p batch active sequences, ns. */
    double decodeNs(int batch) const;

    /**
     * Latency of prefilling one chunk of @p chunk_tokens prompt tokens
     * (Sarathi-style chunked prefill), ns. Simulated on every call:
     * callers that chunk price their chunk size once and keep it.
     * @throws skipsim::FatalError on non-positive chunk size.
     */
    double chunkNs(int chunk_tokens) const;

    /** Prompt length of every request the model prices (tokens). */
    int promptLen() const { return _promptLen; }

  private:
    workload::ModelConfig _model;
    int _promptLen = 0;
    sim::Simulator _simulator;
    stats::Series _prefill;
    stats::Series _decode;
};

/** Continuous-batching server configuration. */
struct ContinuousConfig
{
    double arrivalRatePerSec = 50.0;
    double horizonSec = 20.0;

    /** Maximum concurrently decoding sequences. */
    int maxActive = 32;

    /** Tokens generated per request. */
    int genTokens = 32;

    /**
     * Chunked-prefill size in tokens (Sarathi-Serve style): prompts
     * are split into ceil(cost.promptLen() / chunkTokens) chunk
     * iterations, each co-scheduled with the running decode batch so
     * decoding never stalls behind a full prefill. 0 disables chunking
     * (whole prompts prefill in dedicated iterations).
     */
    int chunkTokens = 0;

    std::uint64_t seed = 42;
};

/** Outcome of a continuous-batching simulation. */
struct ContinuousResult
{
    /** Requests that finished generating within the horizon. */
    std::size_t completed = 0;

    /** Time-to-first-token percentiles (arrival -> prefill done), ns. */
    double p50TtftNs = 0.0;
    double p99TtftNs = 0.0;

    /** Mean decode-iteration latency experienced per token, ns. */
    double meanTpotNs = 0.0;

    /** Generated-token throughput over the horizon, tokens/s. */
    double tokensPerSec = 0.0;

    /** Mean number of active sequences per decode iteration. */
    double meanActive = 0.0;

    /** Requests left unfinished at the horizon. */
    std::size_t unfinished = 0;
};

/**
 * Simulate a continuous-batching server: pending prefills are admitted
 * (batched together) whenever capacity allows, and all active
 * sequences advance one token per decode iteration.
 *
 * When @p obs is non-null the simulation additionally records probes:
 * one duration span per iteration ("prefill b=N" / "decode b=N" /
 * "chunk+decode b=N"), boundary samples of continuous.queue_depth /
 * continuous.batch_active and windowed continuous.tokens_per_sec /
 * continuous.ttft_ms, plus registry totals and a continuous.ttft_ms
 * histogram. Probes never perturb the result.
 *
 * @throws skipsim::FatalError on non-positive or non-finite
 *         rate/horizon, non-positive capacity, or chunkTokens < 0.
 */
ContinuousResult simulateContinuous(const IterationCostModel &cost,
                                    const ContinuousConfig &config,
                                    obs::Collector *obs = nullptr);

/**
 * The arrival walk behind simulateContinuous, over @p arrivalsNs
 * (non-decreasing instants, ns) instead of the Poisson arrivals
 * config's rate and seed draw; those two fields are not read. The walk
 * handles an arrival that ties an iteration end first, so the arrival
 * can join the iteration that end starts. @p config must otherwise be
 * one simulateContinuous accepts; this does not validate it.
 */
ContinuousResult walkContinuous(const IterationCostModel &cost,
                                const ContinuousConfig &config,
                                const std::vector<double> &arrivalsNs,
                                obs::Collector *obs = nullptr);

/**
 * One continuous-batching replica over @p arrivalsNs, around a loop:
 * @p deliver hands the replica its arrivals (ids are indices into
 * @p arrivalsNs) and iteration ends, and returns the last instant it
 * handled. The replica's host records TTFTs, admission instants and
 * iterations, then the obs probes and the result are assembled here,
 * so walkContinuous and check::eventDrivenContinuous keep only their
 * loops. @p config is not validated.
 */
ContinuousResult
recordContinuous(const IterationCostModel &cost,
                 const ContinuousConfig &config,
                 const std::vector<double> &arrivalsNs, obs::Collector *obs,
                 const std::function<double(ReplicaEngine &)> &deliver);

} // namespace skipsim::serving

#endif // SKIPSIM_SERVING_CONTINUOUS_HH

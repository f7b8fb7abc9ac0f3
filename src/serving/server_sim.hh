/**
 * @file
 * Request-level serving simulation: Poisson arrivals into a dynamic
 * batching queue in front of one model instance. Connects the paper's
 * per-batch latency characterization to the user-visible quantities a
 * serving operator cares about — p50/p99 request latency (queueing +
 * batching delay + execution) and sustained throughput — under a
 * Triton-style "max batch + max wait" batching policy.
 */

#ifndef SKIPSIM_SERVING_SERVER_SIM_HH
#define SKIPSIM_SERVING_SERVER_SIM_HH

#include <cstdint>
#include <vector>

#include "serving/latency_model.hh"

namespace skipsim::obs
{
class Collector;
}

namespace skipsim::serving
{

/**
 * Dynamic-batching server configuration (RunSpec::servingConfig()
 * fills one from a run's options).
 */
struct ServingConfig
{
    /** Mean Poisson arrival rate, requests per second. */
    double arrivalRatePerSec = 50.0;

    /** Simulated horizon, seconds. */
    double horizonSec = 20.0;

    /** Largest batch the server forms. */
    int maxBatch = 32;

    /**
     * Longest a pending request may wait for batch-mates before the
     * batch dispatches anyway, ns.
     */
    double maxWaitNs = 5e6;

    /** Arrival-process seed (deterministic given the seed). */
    std::uint64_t seed = 42;
};

/** Outcome of a serving simulation. */
struct ServingResult
{
    /** Requests completed within the horizon. */
    std::size_t completed = 0;

    /** Completed requests per second of simulated time. */
    double throughputRps = 0.0;

    /** Request latency percentiles (arrival to batch completion), ns. */
    double p50LatencyNs = 0.0;
    double p95LatencyNs = 0.0;
    double p99LatencyNs = 0.0;
    double meanLatencyNs = 0.0;

    /**
     * Time-to-first-token percentiles (arrival to first decode step),
     * ns. The dynamic batcher serves a request with one forward pass,
     * so its first token appears when the batch completes and TTFT
     * equals end-to-end latency here; the fields exist so
     * single-instance and cluster reports share one latency
     * vocabulary (cluster::ClusterResult separates the two).
     */
    double p50TtftNs = 0.0;
    double p95TtftNs = 0.0;
    double p99TtftNs = 0.0;

    /** Mean dispatched batch size. */
    double meanBatch = 0.0;

    /** Fraction of the horizon the model instance was busy. */
    double utilization = 0.0;

    /** Requests still queued when the horizon ended (overload sign). */
    std::size_t leftInQueue = 0;
};

/**
 * Simulate a dynamic-batching server against a latency model.
 *
 * Policy: when the server is free and requests are pending, the batch
 * dispatches as soon as either maxBatch requests have arrived or the
 * oldest pending request has waited maxWaitNs; the batch contains
 * every request arrived by the dispatch instant (capped at maxBatch).
 *
 * When @p obs is non-null the simulation additionally records probes
 * into it: per-batch duration spans, boundary samples of
 * serving.queue_depth / serving.batch_inflight and windowed
 * serving.throughput_rps / serving.ttft_ms, plus registry totals
 * (serving.requests_offered/completed, serving.batches) and a
 * serving.latency_ms histogram. Probes never perturb the result.
 *
 * @throws skipsim::FatalError on non-positive or non-finite
 *         rate/horizon, non-positive batch, or a negative or
 *         non-finite max wait.
 */
ServingResult simulateServing(const LatencyModel &latency,
                              const ServingConfig &config,
                              obs::Collector *obs = nullptr);

} // namespace skipsim::serving

#endif // SKIPSIM_SERVING_SERVER_SIM_HH

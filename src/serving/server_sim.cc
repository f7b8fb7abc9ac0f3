#include "serving/server_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/collector.hh"
#include "serving/arrival.hh"
#include "stats/summary.hh"

namespace skipsim::serving
{

namespace
{

/** One dispatched batch, for post-hoc probe replay. */
struct BatchRec
{
    double dispatchNs = 0.0;
    double doneNs = 0.0;
    int count = 0;
};

/**
 * Replay the recorded batches over the collector's deterministic
 * sampling boundaries. @p latencies holds each request's latency in
 * dispatch order, so batch k's requests complete at its doneNs with
 * the next batches[k].count entries. Runs after the simulation so the
 * probes cannot perturb it.
 */
void
emitServingObs(obs::Collector &obs, const std::vector<double> &arrivals,
               const std::vector<BatchRec> &batches,
               const std::vector<double> &latencies, double horizon_ns)
{
    obs::Registry &metrics = obs.metrics();
    metrics.counter("serving.requests_offered")
        .add(static_cast<double>(arrivals.size()));
    metrics.counter("serving.requests_completed")
        .add(static_cast<double>(latencies.size()));
    metrics.counter("serving.batches")
        .add(static_cast<double>(batches.size()));
    obs::Histogram &lat_hist = metrics.histogram(
        "serving.latency_ms", obs::defaultLatencyBucketsMs());
    for (double latency_ns : latencies)
        lat_hist.observe(latency_ns / 1e6);

    for (const BatchRec &batch : batches)
        obs.span("batch b=" + std::to_string(batch.count), 0,
                 std::llround(batch.dispatchNs),
                 std::llround(batch.doneNs - batch.dispatchNs));

    // Boundary replay: arrivals, dispatches, and completions are all
    // time-sorted (the server is serial), so one pass suffices.
    obs::Ticker tick = obs.ticker();
    const double window_sec =
        static_cast<double>(obs.intervalNs()) / 1e9;
    std::size_t arr_i = 0;
    std::size_t batch_i = 0;
    std::size_t done_i = 0; // batches whose completions are counted
    std::size_t lat_i = 0;  // first latency of batch done_i
    long long dispatched = 0;
    // Visit through the first boundary at or past the horizon so the
    // final partial window is represented.
    const double stop =
        horizon_ns + static_cast<double>(obs.intervalNs()) - 1.0;
    tick.advanceTo(stop, [&](std::int64_t t) {
        const double now = static_cast<double>(t);
        while (arr_i < arrivals.size() && arrivals[arr_i] <= now)
            ++arr_i;
        while (batch_i < batches.size() &&
               batches[batch_i].dispatchNs <= now) {
            dispatched += batches[batch_i].count;
            ++batch_i;
        }
        double inflight = 0.0;
        if (batch_i > 0 && batches[batch_i - 1].doneNs > now)
            inflight = static_cast<double>(batches[batch_i - 1].count);

        const std::size_t window_begin = lat_i;
        double window_latency_ns = 0.0;
        while (done_i < batches.size() && batches[done_i].doneNs <= now) {
            for (int k = 0; k < batches[done_i].count; ++k)
                window_latency_ns += latencies[lat_i++];
            ++done_i;
        }
        const std::size_t window_count = lat_i - window_begin;

        obs.sample("serving.queue_depth", {}, t,
                   static_cast<double>(arr_i) -
                       static_cast<double>(dispatched));
        obs.sample("serving.batch_inflight", {}, t, inflight);
        obs.sample("serving.throughput_rps", {}, t,
                   static_cast<double>(window_count) / window_sec);
        // TTFT == end-to-end latency for the dynamic batcher (see
        // ServingResult); windowed mean, 0 when the window is empty.
        obs.sample("serving.ttft_ms", {}, t,
                   window_count > 0
                       ? window_latency_ns /
                           static_cast<double>(window_count) / 1e6
                       : 0.0);
    });
}

} // namespace

ServingResult
simulateServing(const LatencyModel &latency, const ServingConfig &config,
                obs::Collector *obs)
{
    // NaN and infinity fail these checks: either would keep the
    // arrival generator from terminating or poison the dispatch
    // instants.
    if (!std::isfinite(config.arrivalRatePerSec) ||
        config.arrivalRatePerSec <= 0.0)
        fatal("simulateServing: arrivalRatePerSec must be positive and "
              "finite");
    if (!std::isfinite(config.horizonSec) || config.horizonSec <= 0.0)
        fatal("simulateServing: horizonSec must be positive and finite");
    if (config.maxBatch <= 0)
        fatal("simulateServing: maxBatch must be positive");
    if (!std::isfinite(config.maxWaitNs) || config.maxWaitNs < 0.0)
        fatal("simulateServing: maxWaitNs must be non-negative and "
              "finite");

    requireArrivalBudget(config.arrivalRatePerSec, config.horizonSec,
                         "simulateServing", "arrivalRatePerSec",
                         "horizonSec");

    // Poisson arrivals: exponential inter-arrival gaps.
    double horizon_ns = config.horizonSec * 1e9;
    std::vector<double> arrivals = poissonTimesNs(
        config.arrivalRatePerSec, horizon_ns, config.seed);

    ServingResult result;
    std::vector<double> latencies;
    std::vector<BatchRec> obs_batches;
    double busy_ns = 0.0;
    stats::Summary batch_sizes;

    // Dynamic batcher on one serial server. A batch dispatches at the
    // first instant the server is free AND either the oldest waiting
    // request has waited maxWaitNs or maxBatch requests are waiting,
    // so each dispatch instant follows in closed form from the last
    // batch's end and the arrival vector.
    const std::size_t max_batch =
        static_cast<std::size_t>(config.maxBatch);
    double free_ns = 0.0;
    std::size_t next = 0; // first request not yet dispatched
    while (next < arrivals.size()) {
        double ready = arrivals[next] + config.maxWaitNs;
        if (max_batch <= arrivals.size() - next)
            ready = std::min(ready, arrivals[next + max_batch - 1]);
        const double now = std::max(free_ns, ready);
        // Dispatch instants are monotone, so the first one past the
        // horizon means no batch ever dispatches again.
        if (now > horizon_ns)
            break;

        // Everyone arrived by the dispatch instant rides along.
        std::size_t count = 0;
        while (next + count < arrivals.size() && count < max_batch &&
               arrivals[next + count] <= now) {
            ++count;
        }

        double exec = latency.latencyNs(static_cast<int>(count));
        free_ns = now + exec;
        busy_ns += exec;
        batch_sizes.add(static_cast<double>(count));
        for (std::size_t i = 0; i < count; ++i)
            latencies.push_back(free_ns - arrivals[next + i]);
        if (obs != nullptr)
            obs_batches.push_back({now, free_ns,
                                   static_cast<int>(count)});
        next += count;
    }

    if (obs != nullptr)
        emitServingObs(*obs, arrivals, obs_batches, latencies,
                       horizon_ns);

    result.completed = latencies.size();
    result.leftInQueue = arrivals.size() - next;
    if (latencies.empty())
        return result;

    result.throughputRps =
        static_cast<double>(result.completed) / config.horizonSec;
    std::vector<double> ps =
        stats::percentiles(latencies, {50.0, 95.0, 99.0});
    result.p50LatencyNs = ps[0];
    result.p95LatencyNs = ps[1];
    result.p99LatencyNs = ps[2];
    // One forward pass serves the whole request: the first token is
    // the completed batch, so TTFT == end-to-end latency (see header).
    result.p50TtftNs = ps[0];
    result.p95TtftNs = ps[1];
    result.p99TtftNs = ps[2];
    stats::Summary lat;
    lat.addAll(latencies);
    result.meanLatencyNs = lat.mean();
    result.meanBatch = batch_sizes.mean();
    result.utilization = std::min(1.0, busy_ns / horizon_ns);
    return result;
}

} // namespace skipsim::serving

#include "serving/server_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/collector.hh"
#include "serving/arrival.hh"
#include "serving/probe_replay.hh"
#include "stats/summary.hh"

namespace skipsim::serving
{

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
    std::vector<double> obs_admits; // one dispatch instant per request
    std::vector<IterationRecord> obs_batches;
    std::vector<std::pair<double, double>> obs_ttfts;
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
        if (obs != nullptr) {
            // A batch is one iteration whose tokens are its requests;
            // TTFT == end-to-end latency (see ServingResult).
            const int batch = static_cast<int>(count);
            obs_admits.insert(obs_admits.end(), count, now);
            obs_batches.push_back({now, free_ns, batch, batch,
                                   "batch b=" + std::to_string(batch)});
            for (std::size_t i = latencies.size() - count;
                 i < latencies.size(); ++i)
                obs_ttfts.emplace_back(free_ns, latencies[i]);
        }
        next += count;
    }

    if (obs != nullptr) {
        obs::Registry &metrics = obs->metrics();
        metrics.counter("serving.requests_offered")
            .add(static_cast<double>(arrivals.size()));
        metrics.counter("serving.requests_completed")
            .add(static_cast<double>(latencies.size()));
        metrics.counter("serving.batches")
            .add(static_cast<double>(obs_batches.size()));
        obs::Histogram &lat_hist = metrics.histogram(
            "serving.latency_ms", obs::defaultLatencyBucketsMs());
        for (double latency_ns : latencies)
            lat_hist.observe(latency_ns / 1e6);
        replayProbes(*obs,
                     {"serving.queue_depth", "serving.batch_inflight",
                      "serving.throughput_rps", "serving.ttft_ms"},
                     arrivals, obs_admits, obs_batches, obs_ttfts,
                     horizon_ns);
    }

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

#include "serving/server_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/engine.hh"
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
 * Replay the recorded batches/completions over the collector's
 * deterministic sampling boundaries. Runs after the simulation so the
 * probes cannot perturb it.
 */
void
emitServingObs(obs::Collector &obs, const std::vector<double> &arrivals,
               const std::vector<BatchRec> &batches,
               const std::vector<std::pair<double, double>> &completions,
               double horizon_ns)
{
    obs::Registry &metrics = obs.metrics();
    metrics.counter("serving.requests_offered")
        .add(static_cast<double>(arrivals.size()));
    metrics.counter("serving.requests_completed")
        .add(static_cast<double>(completions.size()));
    metrics.counter("serving.batches")
        .add(static_cast<double>(batches.size()));
    obs::Histogram &lat_hist = metrics.histogram(
        "serving.latency_ms", obs::defaultLatencyBucketsMs());
    for (const auto &completion : completions)
        lat_hist.observe(completion.second / 1e6);

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
    std::size_t comp_i = 0;
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

        const std::size_t window_begin = comp_i;
        double window_latency_ns = 0.0;
        while (comp_i < completions.size() &&
               completions[comp_i].first <= now) {
            window_latency_ns += completions[comp_i].second;
            ++comp_i;
        }
        const std::size_t window_count = comp_i - window_begin;

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
    // arrival generator or the event queue from terminating.
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
    std::vector<BatchRec> obs_batches;
    std::vector<std::pair<double, double>> obs_completions;
    if (arrivals.empty()) {
        if (obs != nullptr)
            emitServingObs(*obs, arrivals, obs_batches, obs_completions,
                           horizon_ns);
        return result;
    }

    std::vector<double> latencies;
    double busy_ns = 0.0;
    std::size_t next = 0; // first request not yet dispatched
    bool server_busy = false;
    stats::Summary batch_sizes;

    // Event-driven dynamic batcher on the core engine. A batch
    // dispatches at the first instant the server is free AND either
    // the oldest waiting request's deadline has passed or the batch
    // is full. Three event kinds can create that instant, in
    // tie-break order at equal timestamps: an arrival (may fill the
    // batch), the server coming free, and a wait-deadline wake.
    enum
    {
        PrioArrival = 0,
        PrioServerFree = 1,
        PrioWake = 2,
    };

    core::Engine engine;
    core::EventKind arrive = 0;
    core::EventKind server_free = 0;
    core::EventKind wake = 0;

    // tryDispatch runs at each candidate instant; dispatch times are
    // monotone, so the first candidate past the horizon means no
    // batch ever dispatches again.
    auto try_dispatch = [&](double now) {
        if (server_busy || next >= arrivals.size() ||
            now > horizon_ns)
            return;
        double oldest = arrivals[next];
        if (oldest > now)
            return; // nothing waiting yet
        std::size_t full_idx =
            next + static_cast<std::size_t>(config.maxBatch) - 1;
        bool full = full_idx < arrivals.size() &&
            arrivals[full_idx] <= now;
        bool due = now >= oldest + config.maxWaitNs;
        if (!full && !due)
            return;

        // Everyone arrived by the dispatch instant rides along.
        std::size_t count = 0;
        while (next + count < arrivals.size() &&
               count < static_cast<std::size_t>(config.maxBatch) &&
               arrivals[next + count] <= now) {
            ++count;
        }

        double exec = latency.latencyNs(static_cast<int>(count));
        double done = now + exec;
        busy_ns += exec;
        batch_sizes.add(static_cast<double>(count));

        for (std::size_t i = 0; i < count; ++i) {
            latencies.push_back(done - arrivals[next + i]);
            if (obs != nullptr)
                obs_completions.emplace_back(done,
                                             done - arrivals[next + i]);
        }
        if (obs != nullptr)
            obs_batches.push_back({now, done,
                                   static_cast<int>(count)});

        next += count;
        server_busy = true;
        engine.at(done, PrioServerFree, server_free);
    };

    server_free = engine.addHandler([&](const core::Event &ev) {
        server_busy = false;
        try_dispatch(ev.timeNs);
    });
    // Arrivals are chained: each one schedules the next arrival and
    // its own wake before it dispatches, so one arrival is pending at
    // a time. Arrivals tie on (time, priority) only with arrivals and
    // wakes only with wakes, and both are still scheduled in request
    // order, so the pops follow the pre-scheduled order.
    arrive = engine.addHandler([&](const core::Event &ev) {
        const std::size_t i = ev.payload;
        if (i + 1 < arrivals.size())
            engine.at(arrivals[i + 1], PrioArrival, arrive, 0, i + 1);
        // The wake fires when this request, as the oldest waiting one,
        // has waited out the batching window.
        engine.at(arrivals[i] + config.maxWaitNs, PrioWake, wake);
        try_dispatch(ev.timeNs);
    });
    wake = engine.addHandler(
        [&](const core::Event &ev) { try_dispatch(ev.timeNs); });
    engine.at(arrivals.front(), PrioArrival, arrive, 0, 0);
    engine.run();

    if (obs != nullptr)
        emitServingObs(*obs, arrivals, obs_batches, obs_completions,
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

#include "check/event_batcher.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/strutil.hh"
#include "core/engine.hh"
#include "serving/arrival.hh"
#include "stats/summary.hh"

namespace skipsim::check
{

using serving::ServingConfig;
using serving::ServingResult;

ServingResult
eventDrivenServing(const serving::LatencyModel &latency,
                   const ServingConfig &config)
{
    // Poisson arrivals: exponential inter-arrival gaps.
    double horizon_ns = config.horizonSec * 1e9;
    std::vector<double> arrivals = serving::poissonTimesNs(
        config.arrivalRatePerSec, horizon_ns, config.seed);

    ServingResult result;
    if (arrivals.empty())
        return result;

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
    // Each kind is queued at its own value as priority.
    enum Kind : core::EventKind
    {
        Arrival = 0,
        ServerFree = 1,
        Wake = 2,
    };

    core::Engine engine;

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

        for (std::size_t i = 0; i < count; ++i)
            latencies.push_back(done - arrivals[next + i]);

        next += count;
        server_busy = true;
        engine.at(done, ServerFree, ServerFree);
    };

    engine.at(arrivals.front(), Arrival, Arrival, 0, 0);
    engine.run([&](const core::Event &ev) {
        switch (ev.kind) {
        case ServerFree:
            server_busy = false;
            break;
        case Arrival: {
            // Arrivals are chained: each one schedules the next
            // arrival and its own wake before it dispatches, so one
            // arrival is pending at a time. Arrivals tie on (time,
            // priority) only with arrivals and wakes only with wakes,
            // and both are still scheduled in request order, so the
            // pops follow the pre-scheduled order.
            const std::size_t i = ev.payload;
            if (i + 1 < arrivals.size())
                engine.at(arrivals[i + 1], Arrival, Arrival, 0, i + 1);
            // The wake fires when this request, as the oldest waiting
            // one, has waited out the batching window.
            engine.at(arrivals[i] + config.maxWaitNs, Wake, Wake);
            break;
        }
        }
        try_dispatch(ev.timeNs);
    });

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

std::string
diffServing(const serving::LatencyModel &latency,
            const ServingConfig &config)
{
    const ServingResult walk = serving::simulateServing(latency, config);
    const ServingResult events = eventDrivenServing(latency, config);

    const std::pair<const char *, std::size_t ServingResult::*>
        counts[] = {
            {"completed", &ServingResult::completed},
            {"leftInQueue", &ServingResult::leftInQueue},
        };
    for (const auto &[name, field] : counts) {
        if (walk.*field != events.*field)
            return strprintf("%s: walk %zu, event-driven %zu", name,
                             walk.*field, events.*field);
    }

    const std::pair<const char *, double ServingResult::*> values[] = {
        {"throughputRps", &ServingResult::throughputRps},
        {"p50LatencyNs", &ServingResult::p50LatencyNs},
        {"p95LatencyNs", &ServingResult::p95LatencyNs},
        {"p99LatencyNs", &ServingResult::p99LatencyNs},
        {"meanLatencyNs", &ServingResult::meanLatencyNs},
        {"p50TtftNs", &ServingResult::p50TtftNs},
        {"p95TtftNs", &ServingResult::p95TtftNs},
        {"p99TtftNs", &ServingResult::p99TtftNs},
        {"meanBatch", &ServingResult::meanBatch},
        {"utilization", &ServingResult::utilization},
    };
    for (const auto &[name, field] : values) {
        if (std::bit_cast<std::uint64_t>(walk.*field) !=
            std::bit_cast<std::uint64_t>(events.*field))
            return strprintf("%s: walk %.17g, event-driven %.17g", name,
                             walk.*field, events.*field);
    }
    return {};
}

} // namespace skipsim::check

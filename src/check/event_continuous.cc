#include "check/event_continuous.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/strutil.hh"
#include "core/engine.hh"
#include "json/writer.hh"
#include "obs/collector.hh"
#include "serving/arrival.hh"
#include "serving/probe_replay.hh"
#include "serving/replica_engine.hh"
#include "stats/summary.hh"
#include "trace/chrome.hh"

namespace skipsim::check
{

using serving::ContinuousConfig;
using serving::ContinuousResult;
using serving::IterationInfo;
using serving::IterationRecord;
using serving::ReplicaEngine;

ContinuousResult
eventDrivenContinuous(const serving::IterationCostModel &cost,
                      const ContinuousConfig &config, obs::Collector *obs)
{
    // Poisson arrivals over the horizon.
    return eventDrivenContinuous(
        cost, config,
        serving::poissonTimesNs(config.arrivalRatePerSec,
                                config.horizonSec * 1e9, config.seed),
        obs);
}

ContinuousResult
eventDrivenContinuous(const serving::IterationCostModel &cost,
                      const ContinuousConfig &config,
                      const std::vector<double> &arrivals,
                      obs::Collector *obs)
{
    double horizon_ns = config.horizonSec * 1e9;
    ContinuousResult result;
    std::vector<double> obs_admits; // one admission instant per request
    std::vector<IterationRecord> obs_iters;
    std::vector<std::pair<double, double>> obs_ttfts;
    std::vector<double> ttfts;

    ReplicaEngine::Config rc;
    rc.cost = &cost;
    rc.maxActive = config.maxActive;
    rc.genTokens = config.genTokens;
    rc.chunkTokens = config.chunkTokens;
    rc.horizonNs = horizon_ns;

    ReplicaEngine::Callbacks cb;
    if (obs != nullptr)
        cb.onAdmitRequest = [&](std::size_t, double now, double, bool) {
            obs_admits.push_back(now);
        };
    cb.onFirstToken = [&](std::size_t, double ttft, double now) {
        ttfts.push_back(ttft);
        if (obs != nullptr)
            obs_ttfts.emplace_back(now, ttft);
    };
    cb.onComplete = [&](std::size_t, double) { ++result.completed; };
    if (obs != nullptr)
        cb.onIteration = [&](const IterationInfo &info) {
            std::string label;
            int active = 0;
            if (info.prefill) {
                label = "prefill b=" + std::to_string(info.prefillBatch);
                active = info.prefillBatch;
            } else if (info.chunk && info.decodeBatch > 0) {
                label = "chunk+decode b=" +
                    std::to_string(info.decodeBatch + 1);
                active = info.decodeBatch + 1;
            } else if (info.chunk) {
                label = "chunk b=1";
                active = 1;
            } else {
                label = "decode b=" + std::to_string(info.decodeBatch);
                active = info.decodeBatch;
            }
            obs_iters.push_back({info.beginNs, info.endNs, active,
                                 info.tokens, std::move(label)});
        };

    ReplicaEngine replica(rc, std::move(cb));

    // Arrivals (priority 0) admit at an equal-time boundary before the
    // iteration end (priority 1). Arrivals are chained: each schedules
    // the next before it admits, so one is pending at a time and ties
    // (arrivals only) still pop in arrival order.
    core::Engine engine;
    core::EventKind iter_end = 0;
    iter_end = engine.addHandler([&](const core::Event &ev) {
        if (replica.finishIteration(ev.timeNs))
            engine.at(replica.iterEndNs(), 1, iter_end);
    });
    core::EventKind arrive = 0;
    arrive = engine.addHandler([&](const core::Event &ev) {
        const std::size_t id = ev.payload;
        if (id + 1 < arrivals.size())
            engine.at(arrivals[id + 1], 0, arrive, 0, id + 1);
        replica.enqueue(id, ev.timeNs);
        if (replica.maybeStart(ev.timeNs))
            engine.at(replica.iterEndNs(), 1, iter_end);
    });
    if (!arrivals.empty())
        engine.at(arrivals.front(), 0, arrive, 0, 0);
    engine.run();

    if (obs != nullptr) {
        obs::Registry &metrics = obs->metrics();
        metrics.counter("continuous.requests_offered")
            .add(static_cast<double>(arrivals.size()));
        metrics.counter("continuous.requests_completed")
            .add(static_cast<double>(result.completed));
        metrics.counter("continuous.tokens")
            .add(static_cast<double>(replica.tokensEmitted()));
        metrics.counter("continuous.iterations")
            .add(static_cast<double>(obs_iters.size()));
        obs::Histogram &ttft_hist = metrics.histogram(
            "continuous.ttft_ms", obs::defaultLatencyBucketsMs());
        for (const auto &ttft : obs_ttfts)
            ttft_hist.observe(ttft.second / 1e6);
        serving::replayProbes(
            *obs,
            {"continuous.queue_depth", "continuous.batch_active",
             "continuous.tokens_per_sec", "continuous.ttft_ms"},
            arrivals, obs_admits, obs_iters, obs_ttfts, horizon_ns);
    }

    result.unfinished = replica.pendingCount() + replica.activeCount() +
        (replica.chunkHeadInFlight() ? 1 : 0);
    if (!ttfts.empty()) {
        std::vector<double> ps = stats::percentiles(ttfts, {50.0, 99.0});
        result.p50TtftNs = ps[0];
        result.p99TtftNs = ps[1];
    }
    if (replica.iterLatency().count() > 0)
        result.meanTpotNs = replica.iterLatency().mean();
    // Chunked single-token runs time chunk iterations but never decode.
    if (replica.activeSizes().count() > 0)
        result.meanActive = replica.activeSizes().mean();
    double elapsed_s = std::min(engine.nowNs(), horizon_ns) / 1e9;
    if (elapsed_s > 0.0)
        result.tokensPerSec =
            static_cast<double>(replica.tokensEmitted()) / elapsed_s;
    return result;
}

namespace
{

constexpr double kObsIntervalMs = 5.0;

/** The first difference between the two runs, or empty. */
std::string
firstDifference(const ContinuousResult &walk,
                const obs::Collector &walk_obs,
                const ContinuousResult &events,
                const obs::Collector &events_obs)
{
    const std::pair<const char *, std::size_t ContinuousResult::*>
        counts[] = {
            {"completed", &ContinuousResult::completed},
            {"unfinished", &ContinuousResult::unfinished},
        };
    for (const auto &[name, field] : counts) {
        if (walk.*field != events.*field)
            return strprintf("%s: walk %zu, event-driven %zu", name,
                             walk.*field, events.*field);
    }

    const std::pair<const char *, double ContinuousResult::*> values[] = {
        {"p50TtftNs", &ContinuousResult::p50TtftNs},
        {"p99TtftNs", &ContinuousResult::p99TtftNs},
        {"meanTpotNs", &ContinuousResult::meanTpotNs},
        {"tokensPerSec", &ContinuousResult::tokensPerSec},
        {"meanActive", &ContinuousResult::meanActive},
    };
    for (const auto &[name, field] : values) {
        if (std::bit_cast<std::uint64_t>(walk.*field) !=
            std::bit_cast<std::uint64_t>(events.*field))
            return strprintf("%s: walk %.17g, event-driven %.17g", name,
                             walk.*field, events.*field);
    }

    if (json::write(walk_obs.toJson()) != json::write(events_obs.toJson()))
        return "obs: the walk's metrics and series JSON differ from "
               "the event-driven loop's";
    if (trace::toChromeText(walk_obs.toTrace()) !=
        trace::toChromeText(events_obs.toTrace()))
        return "obs: the walk's iteration spans differ from the "
               "event-driven loop's";
    return {};
}

} // namespace

std::string
diffContinuous(const serving::IterationCostModel &cost,
               const ContinuousConfig &config,
               const std::function<void(ContinuousResult &)> &mutateWalk)
{
    obs::Collector walk_obs(kObsIntervalMs);
    ContinuousResult walk =
        serving::simulateContinuous(cost, config, &walk_obs);
    if (mutateWalk)
        mutateWalk(walk);
    obs::Collector events_obs(kObsIntervalMs);
    const ContinuousResult events =
        eventDrivenContinuous(cost, config, &events_obs);
    return firstDifference(walk, walk_obs, events, events_obs);
}

std::string
diffContinuous(const serving::IterationCostModel &cost,
               const ContinuousConfig &config,
               const std::vector<double> &arrivals)
{
    obs::Collector walk_obs(kObsIntervalMs);
    const ContinuousResult walk =
        serving::walkContinuous(cost, config, arrivals, &walk_obs);
    obs::Collector events_obs(kObsIntervalMs);
    const ContinuousResult events =
        eventDrivenContinuous(cost, config, arrivals, &events_obs);
    return firstDifference(walk, walk_obs, events, events_obs);
}

} // namespace skipsim::check

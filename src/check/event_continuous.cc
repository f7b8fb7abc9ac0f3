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
#include "serving/replica_engine.hh"
#include "trace/chrome.hh"

namespace skipsim::check
{

using serving::ContinuousConfig;
using serving::ContinuousResult;
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
    return serving::recordContinuous(
        cost, config, arrivals, obs, [&](ReplicaEngine &replica) {
            // Arrivals (priority 0) admit at an equal-time boundary
            // before the iteration end (priority 1). Arrivals are
            // chained: each schedules the next before it admits, so
            // one is pending at a time and ties (arrivals only) still
            // pop in arrival order.
            enum Kind : core::EventKind
            {
                Arrive,
                IterEnd,
            };
            core::Engine engine;
            if (!arrivals.empty())
                engine.at(arrivals.front(), 0, Arrive, 0, 0);
            engine.run([&](const core::Event &ev) {
                bool started = false;
                if (ev.kind == Arrive) {
                    const std::size_t id = ev.payload;
                    if (id + 1 < arrivals.size())
                        engine.at(arrivals[id + 1], 0, Arrive, 0, id + 1);
                    replica.enqueue(id, ev.timeNs);
                    started = replica.maybeStart(ev.timeNs);
                } else {
                    started = replica.finishIteration(ev.timeNs);
                }
                if (started)
                    engine.at(replica.iterEndNs(), 1, IterEnd);
            });
            return engine.nowNs();
        });
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

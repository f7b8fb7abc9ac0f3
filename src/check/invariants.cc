#include "check/invariants.hh"

#include <algorithm>
#include <limits>
#include <map>

#include "common/strutil.hh"

namespace skipsim::check
{

namespace
{

using trace::EventKind;
using trace::TraceEvent;

void
report(TraceCheckReport &out, const char *code, std::uint64_t eventId,
       std::string message)
{
    Violation v;
    v.code = code;
    v.eventId = eventId;
    v.message = std::move(message);
    out.violations.push_back(std::move(v));
}

/** Per-event structural checks: durations, stream ids. */
void
checkStructure(const trace::Trace &trace, TraceCheckReport &out)
{
    for (const TraceEvent &ev : trace.events()) {
        if (ev.durNs < 0) {
            report(out, "negative-duration", ev.id,
                   strprintf("event %llu '%s' has negative duration "
                             "%lld ns",
                             static_cast<unsigned long long>(ev.id),
                             ev.name.c_str(),
                             static_cast<long long>(ev.durNs)));
        }
        if (ev.onGpu() && ev.streamId < 0) {
            report(out, "missing-stream", ev.id,
                   strprintf("GPU event %llu '%s' carries no stream id",
                             static_cast<unsigned long long>(ev.id),
                             ev.name.c_str()));
        }
    }
}

/**
 * Correlation-id bijection plus per-pair causality (launch begin <=
 * kernel begin). Populates @p pairs with (launch, kernel) for the
 * stream-order checks.
 */
void
checkCorrelations(const trace::Trace &trace, TraceCheckReport &out,
                  std::map<std::uint64_t,
                           std::pair<const TraceEvent *,
                                     const TraceEvent *>> &pairs)
{
    for (const TraceEvent &ev : trace.events()) {
        if (ev.kind == EventKind::Runtime && ev.correlationId != 0) {
            auto &slot = pairs[ev.correlationId];
            if (slot.first != nullptr) {
                report(out, "duplicate-launch-correlation", ev.id,
                       strprintf("correlation id %llu used by runtime "
                                 "calls %llu and %llu",
                                 static_cast<unsigned long long>(
                                     ev.correlationId),
                                 static_cast<unsigned long long>(
                                     slot.first->id),
                                 static_cast<unsigned long long>(
                                     ev.id)));
            } else {
                slot.first = &ev;
            }
        }
        if (ev.onGpu()) {
            if (ev.correlationId == 0) {
                report(out, "kernel-without-correlation", ev.id,
                       strprintf("GPU event %llu '%s' carries no "
                                 "correlation id",
                                 static_cast<unsigned long long>(ev.id),
                                 ev.name.c_str()));
                continue;
            }
            auto &slot = pairs[ev.correlationId];
            if (slot.second != nullptr) {
                report(out, "duplicate-kernel-correlation", ev.id,
                       strprintf("correlation id %llu matches GPU "
                                 "events %llu and %llu",
                                 static_cast<unsigned long long>(
                                     ev.correlationId),
                                 static_cast<unsigned long long>(
                                     slot.second->id),
                                 static_cast<unsigned long long>(
                                     ev.id)));
            } else {
                slot.second = &ev;
            }
        }
    }

    for (const auto &[corr, pair] : pairs) {
        const TraceEvent *launch = pair.first;
        const TraceEvent *kernel = pair.second;
        if (launch == nullptr) {
            report(out, "orphan-kernel", kernel->id,
                   strprintf("GPU event %llu '%s' (correlation %llu) "
                             "has no runtime launch",
                             static_cast<unsigned long long>(kernel->id),
                             kernel->name.c_str(),
                             static_cast<unsigned long long>(corr)));
            continue;
        }
        if (kernel == nullptr) {
            report(out, "launch-without-kernel", launch->id,
                   strprintf("runtime call %llu '%s' (correlation "
                             "%llu) launched no GPU event",
                             static_cast<unsigned long long>(launch->id),
                             launch->name.c_str(),
                             static_cast<unsigned long long>(corr)));
            continue;
        }
        ++out.pairsChecked;
        if (kernel->tsBeginNs < launch->tsBeginNs) {
            report(out, "kernel-before-launch", kernel->id,
                   strprintf("GPU event %llu '%s' begins at %lld ns, "
                             "before its launch %llu at %lld ns",
                             static_cast<unsigned long long>(kernel->id),
                             kernel->name.c_str(),
                             static_cast<long long>(kernel->tsBeginNs),
                             static_cast<unsigned long long>(launch->id),
                             static_cast<long long>(
                                 launch->tsBeginNs)));
        }
    }
}

/**
 * Every runtime launch must begin inside some operator interval on its
 * thread (op begin <= launch begin <= op end): the CPU dispatch loop
 * only issues launches from within an operator. Skipped entirely when
 * the trace carries no Operator events (see header).
 */
void
checkOperatorEnclosure(const trace::Trace &trace, TraceCheckReport &out)
{
    if (trace.countOf(EventKind::Operator) == 0)
        return;

    // Per thread: operator intervals sorted by begin, with a running
    // prefix-max of ends, so "is instant t inside any operator?"
    // becomes one binary search.
    struct OpIndex
    {
        std::vector<std::int64_t> begins;
        std::vector<std::int64_t> maxEnds; ///< prefix max of tsEndNs
    };
    std::map<int, std::vector<const TraceEvent *>> per_tid;
    for (const TraceEvent &ev : trace.events()) {
        if (ev.kind == EventKind::Operator)
            per_tid[ev.tid].push_back(&ev);
    }
    std::map<int, OpIndex> index;
    for (auto &[tid, ops] : per_tid) {
        std::sort(ops.begin(), ops.end(),
                  [](const TraceEvent *a, const TraceEvent *b) {
                      if (a->tsBeginNs != b->tsBeginNs)
                          return a->tsBeginNs < b->tsBeginNs;
                      return a->id < b->id;
                  });
        OpIndex &idx = index[tid];
        std::int64_t running = std::numeric_limits<std::int64_t>::min();
        for (const TraceEvent *op : ops) {
            running = std::max(running, op->tsEndNs());
            idx.begins.push_back(op->tsBeginNs);
            idx.maxEnds.push_back(running);
        }
    }

    for (const TraceEvent &ev : trace.events()) {
        if (ev.kind != EventKind::Runtime || ev.correlationId == 0)
            continue;
        auto it = index.find(ev.tid);
        bool enclosed = false;
        if (it != index.end()) {
            const OpIndex &idx = it->second;
            // Last operator beginning at or before the launch begin.
            auto pos = std::upper_bound(idx.begins.begin(),
                                        idx.begins.end(), ev.tsBeginNs);
            if (pos != idx.begins.begin()) {
                std::size_t i = static_cast<std::size_t>(
                    pos - idx.begins.begin() - 1);
                enclosed = idx.maxEnds[i] >= ev.tsBeginNs;
            }
        }
        if (!enclosed) {
            report(out, "launch-outside-operator", ev.id,
                   strprintf("runtime call %llu '%s' begins at %lld ns "
                             "outside every operator on thread %d",
                             static_cast<unsigned long long>(ev.id),
                             ev.name.c_str(),
                             static_cast<long long>(ev.tsBeginNs),
                             ev.tid));
        }
    }
}

/**
 * Per-stream order: GPU events sorted by begin must not overlap, and
 * their begin order must match their launches' begin order (an
 * in-order stream is FIFO with respect to launch submission).
 */
void
checkStreamOrder(const trace::Trace &trace, TraceCheckReport &out,
                 const std::map<std::uint64_t,
                                std::pair<const TraceEvent *,
                                          const TraceEvent *>> &pairs)
{
    std::map<int, std::vector<const TraceEvent *>> per_stream;
    for (const TraceEvent &ev : trace.events()) {
        if (ev.onGpu() && ev.streamId >= 0)
            per_stream[ev.streamId].push_back(&ev);
    }

    // kernel -> its launch, for the FIFO comparison.
    std::map<std::uint64_t, const TraceEvent *> launch_of;
    for (const auto &[corr, pair] : pairs) {
        (void)corr;
        if (pair.first != nullptr && pair.second != nullptr)
            launch_of[pair.second->id] = pair.first;
    }

    for (auto &[stream, events] : per_stream) {
        std::sort(events.begin(), events.end(),
                  [](const TraceEvent *a, const TraceEvent *b) {
                      if (a->tsBeginNs != b->tsBeginNs)
                          return a->tsBeginNs < b->tsBeginNs;
                      return a->id < b->id;
                  });
        const TraceEvent *prev = nullptr;
        const TraceEvent *prev_launch = nullptr;
        for (const TraceEvent *ev : events) {
            if (prev != nullptr && ev->tsBeginNs < prev->tsEndNs()) {
                report(out, "stream-overlap", ev->id,
                       strprintf("stream %d: GPU event %llu '%s' "
                                 "begins at %lld ns before event %llu "
                                 "'%s' ends at %lld ns",
                                 stream,
                                 static_cast<unsigned long long>(ev->id),
                                 ev->name.c_str(),
                                 static_cast<long long>(ev->tsBeginNs),
                                 static_cast<unsigned long long>(
                                     prev->id),
                                 prev->name.c_str(),
                                 static_cast<long long>(
                                     prev->tsEndNs())));
            }
            prev = ev;

            auto it = launch_of.find(ev->id);
            if (it == launch_of.end())
                continue; // bijection findings already reported
            const TraceEvent *launch = it->second;
            if (prev_launch != nullptr &&
                launch->tsBeginNs < prev_launch->tsBeginNs) {
                report(out, "fifo-order", ev->id,
                       strprintf("stream %d: GPU event %llu '%s' runs "
                                 "before its launch order allows "
                                 "(launch %llu at %lld ns vs previous "
                                 "launch %llu at %lld ns)",
                                 stream,
                                 static_cast<unsigned long long>(ev->id),
                                 ev->name.c_str(),
                                 static_cast<unsigned long long>(
                                     launch->id),
                                 static_cast<long long>(
                                     launch->tsBeginNs),
                                 static_cast<unsigned long long>(
                                     prev_launch->id),
                                 static_cast<long long>(
                                     prev_launch->tsBeginNs)));
            }
            prev_launch = launch;
        }
    }
}

/**
 * Launch-queue depth derived from the trace's correlated pairs: +1
 * at every launch begin, -1 at the matching GPU-event begin; ties
 * process the +1 first (a kernel may start the instant its launch
 * begins). The depth going negative means a kernel ran that was
 * never launched before it — causality corruption the per-pair check
 * can miss when correlation ids themselves are corrupted.
 */
void
checkQueueDepth(TraceCheckReport &out,
                const std::map<std::uint64_t,
                               std::pair<const TraceEvent *,
                                         const TraceEvent *>> &pairs)
{
    struct Edge
    {
        std::int64_t tsNs;
        int delta; ///< +1 launch begin, -1 kernel begin
        std::uint64_t eventId;
    };
    std::vector<Edge> edges;
    for (const auto &[corr, pair] : pairs) {
        (void)corr;
        if (pair.first == nullptr || pair.second == nullptr)
            continue;
        edges.push_back({pair.first->tsBeginNs, +1, pair.first->id});
        edges.push_back({pair.second->tsBeginNs, -1, pair.second->id});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) {
                  if (a.tsNs != b.tsNs)
                      return a.tsNs < b.tsNs;
                  if (a.delta != b.delta)
                      return a.delta > b.delta; // +1 before -1
                  return a.eventId < b.eventId;
              });
    long depth = 0;
    for (const Edge &edge : edges) {
        depth += edge.delta;
        if (depth < 0) {
            report(out, "negative-queue-depth", edge.eventId,
                   strprintf("launch-queue depth is %ld at %lld ns "
                             "(GPU event %llu began before its launch)",
                             depth, static_cast<long long>(edge.tsNs),
                             static_cast<unsigned long long>(
                                 edge.eventId)));
            return; // once negative, every later depth is suspect
        }
    }
}

} // namespace

bool
TraceCheckReport::has(const std::string &code) const
{
    for (const Violation &v : violations) {
        if (v.code == code)
            return true;
    }
    return false;
}

std::string
TraceCheckReport::render() const
{
    std::string out = strprintf(
        "trace check: %zu events, %zu GPU events, %zu launch/kernel "
        "pairs -> %s (%zu violation%s)\n",
        eventsChecked, gpuChecked, pairsChecked, ok() ? "OK" : "FAIL",
        violations.size(), violations.size() == 1 ? "" : "s");
    for (const Violation &v : violations)
        out += strprintf("  [%s] %s\n", v.code.c_str(),
                         v.message.c_str());
    return out;
}

json::Value
TraceCheckReport::toJson() const
{
    json::Object doc;
    doc.set("ok", json::Value(ok()));
    doc.set("events", static_cast<unsigned long long>(eventsChecked));
    doc.set("gpu_events", static_cast<unsigned long long>(gpuChecked));
    doc.set("pairs", static_cast<unsigned long long>(pairsChecked));
    json::Value::Array items;
    for (const Violation &v : violations) {
        json::Object item;
        item.set("code", v.code);
        item.set("message", v.message);
        item.set("event", static_cast<unsigned long long>(v.eventId));
        items.push_back(json::Value(std::move(item)));
    }
    doc.set("violations", json::Value(std::move(items)));
    return json::Value(std::move(doc));
}

TraceCheckReport
validateTrace(const trace::Trace &trace)
{
    TraceCheckReport out;
    out.eventsChecked = trace.size();
    out.gpuChecked = trace.countOf(EventKind::Kernel) +
        trace.countOf(EventKind::Memcpy);

    checkStructure(trace, out);
    std::map<std::uint64_t,
             std::pair<const TraceEvent *, const TraceEvent *>>
        pairs;
    checkCorrelations(trace, out, pairs);
    checkOperatorEnclosure(trace, out);
    checkStreamOrder(trace, out, pairs);
    checkQueueDepth(out, pairs);
    return out;
}

} // namespace skipsim::check

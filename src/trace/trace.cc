#include "trace/trace.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::trace
{

namespace
{

/**
 * Positions of `events` in (tsBeginNs, id) order: a stable LSD radix
 * sort of the begin timestamps, 11 bits a pass, over keys laid out in
 * id order (`pos_of_id[id]` is the position of event `id`), so
 * stability gives the id tie-break whatever order the events are in.
 * Linear in the event count; the pass count grows with log2 of the
 * time span.
 */
std::vector<std::size_t>
timeOrder(const std::vector<TraceEvent> &events,
          const std::vector<std::size_t> &pos_of_id)
{
    const std::size_t n = events.size();
    if (n == 0)
        return {};
    std::int64_t lo = events.front().tsBeginNs;
    std::int64_t hi = lo;
    for (const auto &ev : events) {
        lo = std::min(lo, ev.tsBeginNs);
        hi = std::max(hi, ev.tsBeginNs);
    }
    // Unsigned offsets from the earliest begin: any int64 span fits.
    auto offset = [lo](std::int64_t ts) {
        return static_cast<std::uint64_t>(ts) -
            static_cast<std::uint64_t>(lo);
    };
    using Key = std::pair<std::uint64_t, std::size_t>; // (offset, pos)
    std::vector<Key> keys(n);
    std::vector<Key> next(n);
    for (std::size_t id = 0; id < n; ++id) {
        std::size_t pos = pos_of_id[id];
        keys[id] = {offset(events[pos].tsBeginNs), pos};
    }

    constexpr unsigned kBits = 11;
    constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
    std::vector<std::size_t> bucket(kMask + 1);
    const std::uint64_t span = offset(hi);
    for (unsigned shift = 0; shift < 64 && (span >> shift) != 0;
         shift += kBits) {
        std::fill(bucket.begin(), bucket.end(), 0);
        for (const Key &key : keys)
            ++bucket[(key.first >> shift) & kMask];
        std::size_t start = 0;
        for (std::size_t &b : bucket)
            start += std::exchange(b, start);
        for (const Key &key : keys)
            next[bucket[(key.first >> shift) & kMask]++] = key;
        keys.swap(next);
    }

    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = keys[i].second;
    return order;
}

} // namespace

void
Trace::setMeta(const std::string &key, const std::string &value)
{
    for (auto &entry : _meta) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    _meta.emplace_back(key, value);
}

std::string
Trace::meta(const std::string &key) const
{
    for (const auto &entry : _meta) {
        if (entry.first == key)
            return entry.second;
    }
    return {};
}

std::uint64_t
Trace::add(TraceEvent event)
{
    event.id = _events.size();
    _posOfId.push_back(_events.size());
    _events.push_back(std::move(event));
    return _events.back().id;
}

void
Trace::adopt(std::vector<TraceEvent> events)
{
    const std::size_t n = events.size();
    std::vector<std::size_t> pos_of_id(n, n); // n: id not seen yet
    for (std::size_t pos = 0; pos < n; ++pos) {
        const std::uint64_t id = events[pos].id;
        if (id >= n || pos_of_id[id] != n)
            fatal(strprintf(
                "Trace::adopt: event at position %zu has %s id %llu; "
                "ids must be a permutation of 0..n-1 (n = %zu)",
                pos, id >= n ? "out-of-range" : "duplicate",
                static_cast<unsigned long long>(id), n));
        pos_of_id[id] = pos;
    }
    _events = std::move(events);
    _posOfId = std::move(pos_of_id);
}

void
Trace::reserve(std::size_t events)
{
    _events.reserve(events);
    _posOfId.reserve(events);
}

void
Trace::addCounter(CounterEvent counter)
{
    _counters.push_back(std::move(counter));
}

void
Trace::addInstant(InstantEvent instant)
{
    _instants.push_back(std::move(instant));
}

void
Trace::sortByTime()
{
    auto before = [](const TraceEvent &a, const TraceEvent &b) {
        if (a.tsBeginNs != b.tsBeginNs)
            return a.tsBeginNs < b.tsBeginNs;
        return a.id < b.id;
    };
    if (!std::is_sorted(_events.begin(), _events.end(), before)) {
        // Move every event once, in the order the compact keys give.
        std::vector<TraceEvent> sorted;
        sorted.reserve(_events.size());
        for (std::size_t pos : timeOrder(_events, _posOfId))
            sorted.push_back(std::move(_events[pos]));
        _events = std::move(sorted);
        for (std::size_t i = 0; i < _events.size(); ++i)
            _posOfId[_events[i].id] = i;
    }
    std::stable_sort(_counters.begin(), _counters.end(),
                     [](const CounterEvent &a, const CounterEvent &b) {
                         return a.tsNs < b.tsNs;
                     });
    std::stable_sort(_instants.begin(), _instants.end(),
                     [](const InstantEvent &a, const InstantEvent &b) {
                         return a.tsNs < b.tsNs;
                     });
}

const TraceEvent &
Trace::byId(std::uint64_t id) const
{
    if (id < _posOfId.size())
        return _events[_posOfId[id]];
    fatal(strprintf("Trace: no event with id %llu",
                    static_cast<unsigned long long>(id)));
}

std::vector<TraceEvent>
Trace::ofKind(EventKind kind) const
{
    std::vector<TraceEvent> out;
    for (const auto &ev : _events) {
        if (ev.kind == kind)
            out.push_back(ev);
    }
    return out;
}

std::size_t
Trace::countOf(EventKind kind) const
{
    std::size_t n = 0;
    for (const auto &ev : _events) {
        if (ev.kind == kind)
            ++n;
    }
    return n;
}

std::int64_t
Trace::beginNs() const
{
    if (_events.empty())
        fatal("Trace::beginNs on empty trace");
    std::int64_t ts = _events.front().tsBeginNs;
    for (const auto &ev : _events)
        ts = std::min(ts, ev.tsBeginNs);
    return ts;
}

std::int64_t
Trace::endNs() const
{
    if (_events.empty())
        fatal("Trace::endNs on empty trace");
    std::int64_t ts = _events.front().tsEndNs();
    for (const auto &ev : _events)
        ts = std::max(ts, ev.tsEndNs());
    return ts;
}

std::vector<std::string>
Trace::validate() const
{
    std::vector<std::string> problems;

    std::map<std::uint64_t, int> launch_corr;
    std::map<std::uint64_t, int> kernel_corr;

    for (const auto &ev : _events) {
        if (ev.durNs < 0) {
            problems.push_back(strprintf(
                "event %llu '%s' has negative duration",
                static_cast<unsigned long long>(ev.id), ev.name.c_str()));
        }
        if (ev.onGpu() && ev.streamId < 0) {
            problems.push_back(strprintf(
                "GPU event %llu '%s' has no stream id",
                static_cast<unsigned long long>(ev.id), ev.name.c_str()));
        }
        if (ev.kind == EventKind::Runtime && ev.correlationId != 0)
            ++launch_corr[ev.correlationId];
        if (ev.onGpu() && ev.correlationId != 0)
            ++kernel_corr[ev.correlationId];
    }

    for (const auto &[corr, count] : launch_corr) {
        if (count > 1) {
            problems.push_back(strprintf(
                "correlation id %llu used by %d runtime calls",
                static_cast<unsigned long long>(corr), count));
        }
        auto it = kernel_corr.find(corr);
        if (it == kernel_corr.end())
            continue; // launch without kernel is legal (e.g. cudaMemset)
        if (it->second > 1) {
            problems.push_back(strprintf(
                "correlation id %llu matches %d kernels",
                static_cast<unsigned long long>(corr), it->second));
        }
    }
    for (const auto &[corr, count] : kernel_corr) {
        (void)count;
        if (!launch_corr.count(corr)) {
            problems.push_back(strprintf(
                "kernel correlation id %llu has no runtime launch",
                static_cast<unsigned long long>(corr)));
        }
    }
    return problems;
}

} // namespace skipsim::trace

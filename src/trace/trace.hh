/**
 * @file
 * Trace container: owns TraceEvents with dense ids, keeps an id ->
 * position index, and offers kind-filtered views and basic integrity
 * validation. Events enter one at a time through add(), which assigns
 * ids in insertion order, or all at once through adopt(), which takes
 * the ids they carry (the simulator records its trace already in time
 * order this way).
 */

#ifndef SKIPSIM_TRACE_TRACE_HH
#define SKIPSIM_TRACE_TRACE_HH

#include <string>
#include <vector>

#include "trace/event.hh"

namespace skipsim::trace
{

/**
 * An execution trace. Events keep their ids; sortByTime() orders them
 * by (tsBeginNs, id) which downstream consumers (SKIP's
 * dependency-graph builder) rely on.
 */
class Trace
{
  public:
    Trace() = default;

    /** Optional free-form metadata (platform name, model, batch...). */
    void setMeta(const std::string &key, const std::string &value);

    /** @return metadata value or empty string when absent. */
    std::string meta(const std::string &key) const;

    /** All metadata keys in insertion order. */
    const std::vector<std::pair<std::string, std::string>> &
    metaEntries() const
    {
        return _meta;
    }

    /**
     * Append an event. The event's id field is overwritten with the
     * next dense id.
     * @return the assigned id.
     */
    std::uint64_t add(TraceEvent event);

    /**
     * Replace the events with @p events, keeping the ids they carry.
     * @throws skipsim::FatalError naming Trace::adopt when the ids are
     *         not a permutation of 0..n-1 (one out of range or
     *         repeated).
     */
    void adopt(std::vector<TraceEvent> events);

    /** Make room for @p events events without reallocating. */
    void reserve(std::size_t events);

    /** Append a sampled counter value ("ph":"C" in Chrome traces). */
    void addCounter(CounterEvent counter);

    /** Append an instant marker ("ph":"i" in Chrome traces). */
    void addInstant(InstantEvent instant);

    /** Counter samples in current order. */
    const std::vector<CounterEvent> &counters() const
    {
        return _counters;
    }

    /** Instant markers in current order. */
    const std::vector<InstantEvent> &instants() const
    {
        return _instants;
    }

    /**
     * Sort events by (tsBeginNs, id), whatever their current order;
     * counters and instants stable-sort by timestamp. An already
     * ordered trace is checked in one pass and left as it is; otherwise
     * the events are radix-sorted and the id index rebuilt.
     */
    void sortByTime();

    std::size_t size() const { return _events.size(); }
    bool empty() const { return _events.empty(); }

    const std::vector<TraceEvent> &events() const { return _events; }

    /**
     * Event lookup by dense id, O(1) in any event order.
     * @throws skipsim::FatalError when absent.
     */
    const TraceEvent &byId(std::uint64_t id) const;

    /** Copies of all events of one kind, in current order. */
    std::vector<TraceEvent> ofKind(EventKind kind) const;

    /** Count of events of one kind. */
    std::size_t countOf(EventKind kind) const;

    /** Earliest begin timestamp; @throws skipsim::FatalError when empty. */
    std::int64_t beginNs() const;

    /** Latest end timestamp; @throws skipsim::FatalError when empty. */
    std::int64_t endNs() const;

    /**
     * Validate internal consistency: non-negative durations, kernels
     * carrying stream ids, runtime launches with nonzero correlation
     * ids that match exactly one kernel.
     * @return list of human-readable problems (empty when valid).
     */
    std::vector<std::string> validate() const;

  private:
    std::vector<TraceEvent> _events;
    std::vector<std::size_t> _posOfId; ///< _events[_posOfId[id]].id == id
    std::vector<CounterEvent> _counters;
    std::vector<InstantEvent> _instants;
    std::vector<std::pair<std::string, std::string>> _meta;
};

} // namespace skipsim::trace

#endif // SKIPSIM_TRACE_TRACE_HH

/**
 * @file
 * Deterministic discrete-event queue: a binary min-heap keyed by
 * (time, priority, seq). `seq` is the push serial, so events that
 * collide on both timestamp and priority pop in scheduling order —
 * never in heap-internal order. This total order is the project-wide
 * tie-breaking contract (docs/core.md): every engine built on the
 * queue is reproducible event-for-event from its inputs alone,
 * independent of host threading or library internals.
 */

#ifndef SKIPSIM_CORE_EVENT_QUEUE_HH
#define SKIPSIM_CORE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace skipsim::core
{

/** Event handler; receives the event's timestamp. */
using EventFn = std::function<void(double tNs)>;

/** One scheduled event. */
struct Event
{
    double timeNs = 0.0;
    int priority = 0;
    std::uint64_t seq = 0;
    EventFn fn;
};

/** Min-heap of events ordered by (timeNs, priority, seq). */
class EventQueue
{
  public:
    /** Schedule @p fn at @p timeNs. Events never execute here. */
    void schedule(double timeNs, int priority, EventFn fn);

    bool empty() const { return _heap.empty(); }
    std::size_t size() const { return _heap.size(); }

    /** Timestamp of the next event. @throws PanicError when empty. */
    double nextTimeNs() const;

    /** Priority of the next event. @throws PanicError when empty. */
    int nextPriority() const;

    /** Remove and return the next event (time, then priority, then
     *  scheduling order); queue must be non-empty. */
    Event pop();

    /** Drop every scheduled event (the push serial keeps counting). */
    void clear() { _heap.clear(); }

  private:
    /** @return true when @p a executes after @p b. */
    static bool after(const Event &a, const Event &b);

    std::vector<Event> _heap;
    std::uint64_t _nextSeq = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_EVENT_QUEUE_HH

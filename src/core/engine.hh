/**
 * @file
 * Discrete-event engine: one Clock plus one EventQueue plus the run
 * loop of its one host, the cluster, which schedules the iteration
 * ends its passive serving::ReplicaEngines report (check/ oracles keep
 * replaced loops on it). Events are typed records whose kind is the
 * host's own enum. at() schedules into the queue's heap; atSlot()
 * schedules into one of the queue's keyed slots, each of which holds
 * at most one pending event (the cluster gives each replica one for
 * its iteration end), and both pop in the same (time, priority, seq)
 * order. The loop pops events, advances the clock, and hands each
 * event to the host's dispatch callable, which switches on the kind
 * (the cluster first flushes its probe boundaries there, so a
 * boundary sample always sees the state *as of* the boundary, never a
 * partially applied event — the sample-then-update contract). The
 * host schedules follow-up events through the same engine;
 * determinism follows from the queue's total order and from drawing
 * randomness out of core::RngStreams.
 */

#ifndef SKIPSIM_CORE_ENGINE_HH
#define SKIPSIM_CORE_ENGINE_HH

#include <cstdint>

#include "core/clock.hh"
#include "core/event_queue.hh"

namespace skipsim::core
{

/** Clock + queue + run loop; see file comment. */
class Engine
{
  public:
    /** An engine whose queue has @p slots keyed slots. */
    explicit Engine(std::size_t slots = 0) : _queue(slots) {}
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    double nowNs() const { return _clock.nowNs(); }

    /**
     * Schedule an event of @p kind at absolute time @p tNs (>= now;
     * the queue would regress the clock otherwise, which panics at
     * pop time).
     */
    void
    at(double tNs, int priority, EventKind kind, std::uint32_t target = 0,
       std::uint64_t payload = 0)
    {
        _queue.schedule(tNs, priority, kind, target, payload);
        notePending();
    }

    /**
     * at() into keyed slot @p slot, which must hold no pending event
     * (EventQueue::scheduleSlot panics otherwise).
     */
    void
    atSlot(std::size_t slot, double tNs, int priority, EventKind kind,
           std::uint32_t target = 0, std::uint64_t payload = 0)
    {
        _queue.scheduleSlot(slot, tNs, priority, kind, target, payload);
        notePending();
    }

    /**
     * Run until the queue drains, calling @p dispatch with each popped
     * event after the clock advances to it. @return events processed.
     */
    template <typename Dispatch>
    std::size_t
    run(Dispatch &&dispatch)
    {
        std::size_t n = 0;
        for (; !_queue.empty(); ++n) {
            const Event ev = _queue.pop();
            _clock.advanceTo(ev.timeNs);
            ++_processed;
            dispatch(ev);
        }
        return n;
    }

    /** Events processed across all run() calls. */
    std::uint64_t processed() const { return _processed; }

    /** Most events ever pending at once, heap and live slots (a run
     *  counter, never part of any report). */
    std::size_t peakPending() const { return _peakPending; }

  private:
    void
    notePending()
    {
        if (_queue.size() > _peakPending)
            _peakPending = _queue.size();
    }

    Clock _clock;
    EventQueue _queue;
    std::uint64_t _processed = 0;
    std::size_t _peakPending = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_ENGINE_HH

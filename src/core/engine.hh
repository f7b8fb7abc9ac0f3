/**
 * @file
 * Discrete-event engine: one Clock plus one EventQueue plus the run
 * loop of its one host, the cluster, which schedules the iteration
 * ends its passive serving::ReplicaEngines report (check/ oracles keep
 * replaced loops on it). Events are typed
 * records; each kind names an entry of the engine's handler table,
 * filled once when the simulation is set up (addHandler). The loop
 * pops events in (time, priority, seq) order, invokes the
 * before-event hook (probe samplers flush deterministic boundaries
 * here, so a boundary sample always sees the state *as of* the
 * boundary, never a partially applied event — the sample-then-update
 * contract), advances the clock, and runs the kind's handler.
 * Handlers schedule follow-up events through the same engine;
 * determinism follows from the queue's total order and from drawing
 * randomness out of core::RngStreams.
 */

#ifndef SKIPSIM_CORE_ENGINE_HH
#define SKIPSIM_CORE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/clock.hh"
#include "core/event_queue.hh"

namespace skipsim::core
{

/** Clock + queue + handler table + run loop; see file comment. */
class Engine
{
  public:
    /** Runs one event kind; receives the popped event. */
    using Handler = std::function<void(const Event &)>;

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    double nowNs() const { return _clock.nowNs(); }

    /**
     * Append @p handler to the handler table. @return the kind that
     * dispatches to it.
     * @throws PanicError on an empty handler or while the engine runs.
     */
    EventKind addHandler(Handler handler);

    /**
     * Schedule an event of @p kind at absolute time @p tNs (>= now;
     * the queue would regress the clock otherwise, which panics at
     * pop time). @throws PanicError on a kind addHandler never
     * returned.
     */
    void
    at(double tNs, int priority, EventKind kind, std::uint32_t target = 0,
       std::uint64_t payload = 0)
    {
        if (kind >= _handlers.size())
            unknownKind(kind);
        Entry &entry = _handlers[kind];
        if (++entry.pending > entry.peak)
            entry.peak = entry.pending;
        _queue.schedule(tNs, priority, kind, target, payload);
        if (_queue.size() > _peakPending)
            _peakPending = _queue.size();
    }

    /**
     * Install the pre-event hook: invoked with the next event's
     * timestamp before the clock advances and the handler runs.
     * Probe collectors sample their interval boundaries here.
     */
    void
    onBeforeEvent(std::function<void(double)> hook)
    {
        _beforeEvent = std::move(hook);
    }

    /** Run until the queue drains. @return events processed. */
    std::size_t run();

    /** Events processed across all run() calls. */
    std::uint64_t processed() const { return _processed; }

    /** Most events ever pending at once (a run counter, never part of
     *  any report). */
    std::size_t peakPending() const { return _peakPending; }

    /** Most events of @p kind ever pending at once. */
    std::size_t peakPending(EventKind kind) const;

  private:
    struct Entry
    {
        Handler fn;
        std::size_t pending = 0;
        std::size_t peak = 0;
    };

    [[noreturn]] void unknownKind(EventKind kind) const;

    Clock _clock;
    EventQueue _queue;
    std::vector<Entry> _handlers;
    std::function<void(double)> _beforeEvent;
    std::uint64_t _processed = 0;
    std::size_t _peakPending = 0;
    /** Set while run() executes: a handler runs out of _handlers,
     *  so the table must not grow under it. */
    bool _running = false;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_ENGINE_HH

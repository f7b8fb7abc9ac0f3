/**
 * @file
 * Discrete-event engine: one Clock plus one EventQueue plus the run
 * loop every simulation path shares (sim GPU stream, dynamic batcher,
 * continuous batching, cluster). The loop pops events in
 * (time, priority, seq) order, invokes the before-event hook (probe
 * samplers flush deterministic boundaries here, so a boundary sample
 * always sees the state *as of* the boundary, never a partially
 * applied event — the sample-then-update contract), advances the
 * clock, and runs the handler. Handlers schedule follow-up events
 * through the same engine; determinism follows from the queue's total
 * order and from drawing randomness out of core::RngStreams.
 */

#ifndef SKIPSIM_CORE_ENGINE_HH
#define SKIPSIM_CORE_ENGINE_HH

#include <cstdint>
#include <utility>

#include "core/clock.hh"
#include "core/event_queue.hh"

namespace skipsim::core
{

/** Clock + queue + run loop; see file comment. */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    double nowNs() const { return _clock.nowNs(); }
    const Clock &clock() const { return _clock; }

    /**
     * Schedule @p fn at absolute time @p tNs (>= now; the queue would
     * regress the clock otherwise, which panics at pop time).
     */
    void
    at(double tNs, int priority, EventFn fn)
    {
        _queue.schedule(tNs, priority, std::move(fn));
    }

    /** Schedule @p fn @p delayNs after now. */
    void
    after(double delayNs, int priority, EventFn fn)
    {
        at(nowNs() + delayNs, priority, std::move(fn));
    }

    /**
     * Install the pre-event hook: invoked with the next event's
     * timestamp before the clock advances and the handler runs.
     * Probe collectors sample their interval boundaries here.
     */
    void
    onBeforeEvent(EventFn hook)
    {
        _beforeEvent = std::move(hook);
    }

    /** Run until the queue drains. @return events processed. */
    std::size_t run();

    /**
     * Run events with time <= @p tNs, then stop (remaining events stay
     * queued). @return events processed.
     */
    std::size_t runUntil(double tNs);

    bool idle() const { return _queue.empty(); }
    std::size_t pendingEvents() const { return _queue.size(); }

    /** Events processed across all run()/runUntil() calls. */
    std::uint64_t processed() const { return _processed; }

  private:
    bool step();

    Clock _clock;
    EventQueue _queue;
    EventFn _beforeEvent;
    std::uint64_t _processed = 0;
};

/**
 * Lightweight actor base: a Process owns a slice of simulation state
 * and schedules its own follow-up events on the shared engine. The
 * base class only carries the engine reference and scheduling sugar —
 * composition is by convention (handlers are plain member-capturing
 * callbacks), not by virtual dispatch, so porting an existing loop
 * costs nothing but moving its state into a class.
 */
class Process
{
  public:
    explicit Process(Engine &engine) : _engine(engine) {}
    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

  protected:
    ~Process() = default;

    double nowNs() const { return _engine.nowNs(); }

    void
    at(double tNs, int priority, EventFn fn)
    {
        _engine.at(tNs, priority, std::move(fn));
    }

    void
    after(double delayNs, int priority, EventFn fn)
    {
        _engine.after(delayNs, priority, std::move(fn));
    }

  private:
    Engine &_engine;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_ENGINE_HH

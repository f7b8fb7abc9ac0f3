/**
 * @file
 * Differential oracle for core::EventQueue. ClosureEventQueue is the
 * queue the key heap replaced: a binary heap of whole events, each
 * carrying its handler as a std::function, ordered by the same
 * (timeNs, priority, seq) contract through std::push_heap/pop_heap.
 * diffEventQueues() replays seeded sequences of pushes, pops and
 * clears on both, first through the heap alone and then with keyed
 * slots, and reports the first step where they disagree.
 */

#ifndef SKIPSIM_CHECK_CLOSURE_QUEUE_HH
#define SKIPSIM_CHECK_CLOSURE_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace skipsim::check
{

/** Event handler; receives the event's timestamp. */
using ClosureFn = std::function<void(double tNs)>;

/** One scheduled event of the reference queue. */
struct ClosureEvent
{
    double timeNs = 0.0;
    int priority = 0;
    std::uint64_t seq = 0;
    ClosureFn fn;
};

/** Min-heap of closures ordered by (timeNs, priority, seq). */
class ClosureEventQueue
{
  public:
    /** Schedule @p fn at @p timeNs. @throws PanicError on NaN. */
    void schedule(double timeNs, int priority, ClosureFn fn);

    bool empty() const { return _heap.empty(); }
    std::size_t size() const { return _heap.size(); }

    /** Timestamp of the next event. @throws PanicError when empty. */
    double nextTimeNs() const;

    /** Priority of the next event. @throws PanicError when empty. */
    int nextPriority() const;

    /** Remove and return the next event. @throws PanicError when
     *  empty. */
    ClosureEvent pop();

    /** Drop every scheduled event (the push serial keeps counting). */
    void clear() { _heap.clear(); }

  private:
    /** @return true when @p a executes after @p b. */
    static bool after(const ClosureEvent &a, const ClosureEvent &b);

    std::vector<ClosureEvent> _heap;
    std::uint64_t _nextSeq = 0;
};

/**
 * Replay @p steps random operations, seeded by @p seed, on a
 * core::EventQueue and a ClosureEventQueue: pushes drawn from a few
 * colliding times (±0 and +inf among them) and priorities, pops, rare
 * clear()s, NaN pushes and pops of an empty queue. After every step
 * the sizes and head (time, priority) must agree; every pop must
 * return the same (time, priority, seq), sign of zero included, and
 * the typed record must name the push whose closure the oracle runs;
 * NaN pushes and empty pops must panic in both. The heap-only replay
 * runs first, then diffKeyedEventQueues() at the same arguments.
 * @return empty when both queues agree throughout, else a
 *         description of the first divergence.
 */
std::string diffEventQueues(std::uint64_t seed, std::size_t steps);

/**
 * The keyed half of diffEventQueues(): the same replay on a queue
 * with a few keyed slots. Half the pushes schedule a random slot that
 * holds no pending event, interleaved with heap pushes on the same
 * colliding times and priorities; a slot event that pops re-keys its
 * slot at once half the time; a push to a taken slot, or to one past
 * the last, must panic with the slot's name and change nothing, and a
 * NaN slot push must panic as the oracle's NaN push does.
 */
std::string diffKeyedEventQueues(std::uint64_t seed, std::size_t steps);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_CLOSURE_QUEUE_HH

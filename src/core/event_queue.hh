/**
 * @file
 * Deterministic discrete-event queue. An event is a typed record
 * {kind, target, payload} — what the host does, on which entity, with
 * one word of data — held in a slot array. The heap itself is a
 * 4-ary heap of 16-byte keys (timeNs, priority, slot) ordered by an
 * inlinable comparator, so a sift moves two words, never a callable.
 * Each record also holds its push serial `seq`, which the comparator
 * reads only when two keys tie on (timeNs, priority): events that
 * collide on both pop in scheduling order, never in heap-internal
 * order. This total order is the project-wide tie-breaking contract
 * (docs/core.md): every engine built on the queue is reproducible
 * event-for-event from its inputs alone, independent of host
 * threading or library internals.
 */

#ifndef SKIPSIM_CORE_EVENT_QUEUE_HH
#define SKIPSIM_CORE_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace skipsim::core
{

/** An event's kind: a value of the host's own event enum. */
using EventKind = std::uint32_t;

/** One popped event: its ordering key and its typed record. */
struct Event
{
    double timeNs = 0.0;
    int priority = 0;
    std::uint64_t seq = 0;

    /** What the host does with the event. */
    EventKind kind = 0;
    /** The entity the event addresses (replica, fault, ...). */
    std::uint32_t target = 0;
    /** One word of event data (request id, serial, duration, ...). */
    std::uint64_t payload = 0;
};

/** Min-heap of events ordered by (timeNs, priority, seq). */
class EventQueue
{
  public:
    /**
     * Schedule the record {@p kind, @p target, @p payload} at
     * @p timeNs. Events never execute here.
     * @throws PanicError on a NaN time.
     */
    void schedule(double timeNs, int priority, EventKind kind,
                  std::uint32_t target = 0, std::uint64_t payload = 0);

    bool empty() const { return _heap.size() == kOffset; }
    std::size_t size() const { return _heap.size() - kOffset; }

    /** Timestamp of the next event. @throws PanicError when empty. */
    double nextTimeNs() const;

    /** Priority of the next event. @throws PanicError when empty. */
    int nextPriority() const;

    /** Remove and return the next event (time, then priority, then
     *  scheduling order). @throws PanicError when empty. */
    Event pop();

    /** Drop every scheduled event (the push serial keeps counting). */
    void clear();

  private:
    /**
     * What the heap orders: 16 bytes, four to a cache line. The push
     * serial lives in the slot's record and is read only when two
     * keys tie on (time, priority).
     */
    struct Key
    {
        double timeNs;
        int priority;
        std::uint32_t slot;
    };

    struct Record
    {
        EventKind kind;
        std::uint32_t target;
        std::uint64_t payload;
        std::uint64_t seq;
    };

    /** True when @p a executes after @p b. */
    struct Later
    {
        const Record *records;

        bool
        operator()(const Key &a, const Key &b) const noexcept
        {
            if (a.timeNs != b.timeNs)
                return a.timeNs > b.timeNs;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return records[a.slot].seq > records[b.slot].seq;
        }
    };

    /** Cache-line-aligned storage for the heap array. */
    template <typename T>
    struct LineAllocator
    {
        using value_type = T;
        LineAllocator() = default;
        template <typename U>
        LineAllocator(const LineAllocator<U> &)
        {
        }
        T *
        allocate(std::size_t n)
        {
            return static_cast<T *>(
                ::operator new(n * sizeof(T), std::align_val_t{64}));
        }
        void
        deallocate(T *p, std::size_t)
        {
            ::operator delete(p, std::align_val_t{64});
        }
        template <typename U>
        bool
        operator==(const LineAllocator<U> &) const
        {
            return true;
        }
    };

    /**
     * Children per node. The heap array starts kArity - 1 entries
     * into a line-aligned buffer, so each node's four children fill
     * exactly one 64-byte line, and a sift touches one line per
     * level of a tree half as deep as a binary one (10 levels at 1M
     * events).
     */
    static constexpr std::size_t kArity = 4;
    static constexpr std::size_t kOffset = kArity - 1;
    static_assert(sizeof(Key) * kArity == 64, "one line of children");

    Key *keys() { return _heap.data() + kOffset; }
    const Key *keys() const { return _heap.data() + kOffset; }
    Later later() const { return Later{_slots.data()}; }

    void siftUp(std::size_t hole, Key key);
    void siftDown(std::size_t hole, Key key);

    /** kOffset padding entries, then the heap. */
    std::vector<Key, LineAllocator<Key>> _heap =
        std::vector<Key, LineAllocator<Key>>(kOffset);
    std::vector<Record> _slots;
    /** Slots of popped events, reused last-in first-out. */
    std::vector<std::uint32_t> _freeSlots;
    std::uint64_t _nextSeq = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_EVENT_QUEUE_HH

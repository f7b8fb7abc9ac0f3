/**
 * @file
 * Deterministic discrete-event queue. An event is a typed record
 * {kind, target, payload} — what the host does, on which entity, with
 * one word of data — ordered by the key (timeNs, priority, seq), where
 * seq is the push serial: events that collide on (timeNs, priority)
 * pop in scheduling order, never in heap-internal order. This total
 * order is the project-wide tie-breaking contract (docs/core.md):
 * every engine built on the queue is reproducible event-for-event from
 * its inputs alone, independent of host threading or library
 * internals.
 *
 * The pending set has two levels. Most events go to a 4-ary heap of
 * 16-byte keys (timeNs, priority, record) ordered by an inlinable
 * comparator, so a sift moves two words, never a callable; the record
 * holds seq, which the comparator reads only on a (timeNs, priority)
 * tie. Keyed slots hold the rest: slot i holds at most one pending
 * event (the cluster's replica i iteration end), and a core::MinTree
 * over the slots names the earliest. Slot keys take seq from the same
 * push counter, and pop() takes the lesser of the heap top and the
 * tree root under the heap's own rule, so the pops are exactly those
 * of one heap holding every event. A slot event that re-schedules its
 * own slot when it pops re-keys one leaf in place.
 */

#ifndef SKIPSIM_CORE_EVENT_QUEUE_HH
#define SKIPSIM_CORE_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "core/min_tree.hh"

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

/** Two-level min-set of events ordered by (timeNs, priority, seq). */
class EventQueue
{
  public:
    /** A queue with @p slots keyed slots (0 to slots - 1). */
    explicit EventQueue(std::size_t slots = 0);
    /** The slot tree's comparator points into this queue's records. */
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule the record {@p kind, @p target, @p payload} at
     * @p timeNs. Events never execute here.
     * @throws PanicError on a NaN time.
     */
    void schedule(double timeNs, int priority, EventKind kind,
                  std::uint32_t target = 0, std::uint64_t payload = 0);

    /**
     * schedule() into keyed slot @p slot, which holds at most one
     * pending event; the pop order is the same as schedule()'s.
     * @throws PanicError on a NaN time, a slot out of range, or a slot
     *         that still holds a pending event.
     */
    void scheduleSlot(std::size_t slot, double timeNs, int priority,
                      EventKind kind, std::uint32_t target = 0,
                      std::uint64_t payload = 0);

    bool empty() const { return heapSize() == 0 && _liveSlots == 0; }
    std::size_t size() const { return heapSize() + _liveSlots; }

    /** Timestamp of the next event. @throws PanicError when empty. */
    double nextTimeNs();

    /** Priority of the next event. @throws PanicError when empty. */
    int nextPriority();

    /** Remove and return the next event (time, then priority, then
     *  scheduling order). @throws PanicError when empty. */
    Event pop();

    /** Drop every scheduled event, heap and slots (the push serial
     *  keeps counting). */
    void clear();

  private:
    /** True when (ta, pa, sa) executes after (tb, pb, sb): the order
     *  Later and SlotEarlier apply within each level, here deciding
     *  between the heap top and the slot root. */
    static bool
    after(double ta, int pa, std::uint64_t sa, double tb, int pb,
          std::uint64_t sb) noexcept
    {
        if (ta != tb)
            return ta > tb;
        if (pa != pb)
            return pa > pb;
        return sa > sb;
    }

    /**
     * What the heap orders: 16 bytes, four to a cache line. The push
     * serial lives in the record and is read only when two keys tie
     * on (time, priority).
     */
    struct Key
    {
        double timeNs;
        int priority;
        std::uint32_t record;
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
            return records[a.record].seq > records[b.record].seq;
        }
    };

    /** What a keyed slot holds besides its key; a vacant slot's
     *  seq is kVacantSeq. */
    struct SlotRecord
    {
        EventKind kind;
        std::uint32_t target;
        std::uint64_t payload;
        std::uint64_t seq;
    };

    /**
     * What the slot tree orders: 16 bytes, like the heap's Key, with
     * the push serial in the slot's record, read only on a
     * (time, priority) tie.
     */
    struct SlotKey
    {
        double timeNs;
        int priority;
        std::uint32_t slot;
    };

    /** True when @p a executes before @p b (Later, swapped). */
    struct SlotEarlier
    {
        const SlotRecord *records;

        bool
        operator()(const SlotKey &a, const SlotKey &b) const noexcept
        {
            if (a.timeNs != b.timeNs)
                return a.timeNs < b.timeNs;
            if (a.priority != b.priority)
                return a.priority < b.priority;
            return records[a.slot].seq < records[b.slot].seq;
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

    static constexpr std::uint64_t kVacantSeq =
        std::numeric_limits<std::uint64_t>::max();
    static constexpr std::uint32_t kNoSlot =
        std::numeric_limits<std::uint32_t>::max();

    /** The key of a vacant leaf: it names the sentinel record past
     *  the last slot, whose seq stays kVacantSeq, so it orders after
     *  every live key. */
    SlotKey
    vacant() const
    {
        return SlotKey{std::numeric_limits<double>::infinity(),
                       std::numeric_limits<int>::max(),
                       static_cast<std::uint32_t>(slotCount())};
    }
    std::size_t slotCount() const { return _slotRecords.size() - 1; }

    std::size_t heapSize() const { return _heap.size() - kOffset; }
    Key *keys() { return _heap.data() + kOffset; }
    const Key *keys() const { return _heap.data() + kOffset; }
    Later later() const { return Later{_records.data()}; }

    void siftUp(std::size_t hole, Key key);
    void siftDown(std::size_t hole, Key key);

    /** Vacate the slot that popped last, unless it was re-keyed. */
    void
    settle()
    {
        if (_popped != kNoSlot) {
            _slotRecords[_popped].seq = kVacantSeq;
            _slots.setLeaf(_popped, vacant());
            _popped = kNoSlot;
        }
    }
    /** settle(), then whether the next event is the slot tree's root.
     *  @throws PanicError when empty, naming @p what. */
    bool slotFirst(const char *what);

    /** kOffset padding entries, then the heap. */
    std::vector<Key, LineAllocator<Key>> _heap =
        std::vector<Key, LineAllocator<Key>>(kOffset);
    std::vector<Record> _records;
    /** Records of popped heap events, reused last-in first-out. */
    std::vector<std::uint32_t> _freeRecords;

    /** One record per slot, then the vacant sentinel. */
    std::vector<SlotRecord> _slotRecords;
    MinTree<SlotKey, SlotEarlier> _slots;
    std::size_t _liveSlots = 0;
    /**
     * The slot that popped last while its leaf still holds the popped
     * key: re-scheduling it re-keys the leaf in one walk, and any
     * other pop or slot schedule vacates it first (settle()).
     */
    std::uint32_t _popped = kNoSlot;
    std::uint64_t _nextSeq = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_EVENT_QUEUE_HH

#include "core/event_queue.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace skipsim::core
{

namespace
{

/** Hint that @p p is read soon (no-op where unsupported). */
inline void
prefetch(const void *p)
{
#if defined(__GNUC__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
}

} // namespace

void
EventQueue::siftUp(std::size_t hole, Key key)
{
    const Later after = later();
    Key *heap = keys();
    while (hole > 0) {
        std::size_t parent = (hole - 1) / kArity;
        if (!after(heap[parent], key))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = key;
}

void
EventQueue::siftDown(std::size_t hole, Key key)
{
    // Floyd's variant: walk the hole down to a leaf along the earliest
    // children without comparing against @p key, then sift @p key up
    // from there. @p key comes from the heap's tail, so it rarely
    // climbs far, and the descent saves one comparison per level.
    const Later after = later();
    Key *heap = keys();
    const std::size_t n = size();
    while (true) {
        const std::size_t first = hole * kArity + 1;
        if (first >= n)
            break;
        // The next level's candidates are the children of these four;
        // each group is one line, so fetch all four groups while the
        // comparisons below decide which one is taken.
        const std::size_t grand = first * kArity + 1;
        for (std::size_t g = grand; g < n && g < grand + kArity * kArity;
             g += kArity)
            prefetch(heap + g);
        const std::size_t last = first + kArity < n ? first + kArity : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (after(heap[best], heap[c]))
                best = c;
        heap[hole] = heap[best];
        hole = best;
    }
    siftUp(hole, key);
}

void
EventQueue::schedule(double timeNs, int priority, EventKind kind,
                     std::uint32_t target, std::uint64_t payload)
{
    if (std::isnan(timeNs))
        panic("core::EventQueue: NaN event time");
    const Record rec{kind, target, payload, _nextSeq++};
    std::uint32_t slot;
    if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
        _slots[slot] = rec;
    } else {
        if (_slots.size() > std::numeric_limits<std::uint32_t>::max())
            panic("core::EventQueue: more than 2^32 pending events");
        slot = static_cast<std::uint32_t>(_slots.size());
        _slots.push_back(rec);
    }
    _heap.emplace_back();
    siftUp(size() - 1, Key{timeNs, priority, slot});
}

double
EventQueue::nextTimeNs() const
{
    if (empty())
        panic("core::EventQueue: nextTimeNs on empty queue");
    return keys()[0].timeNs;
}

int
EventQueue::nextPriority() const
{
    if (empty())
        panic("core::EventQueue: nextPriority on empty queue");
    return keys()[0].priority;
}

Event
EventQueue::pop()
{
    if (empty())
        panic("core::EventQueue: pop from empty queue");
    const Key top = keys()[0];
    const Key tail = _heap.back();
    _heap.pop_back();
    if (!empty()) {
        siftDown(0, tail);
        // The next pop reads the new head's record.
        prefetch(&_slots[keys()[0].slot]);
    }
    const Record &rec = _slots[top.slot];
    Event ev;
    ev.timeNs = top.timeNs;
    ev.priority = top.priority;
    ev.seq = rec.seq;
    ev.kind = rec.kind;
    ev.target = rec.target;
    ev.payload = rec.payload;
    _freeSlots.push_back(top.slot);
    return ev;
}

void
EventQueue::clear()
{
    _heap.resize(kOffset);
    _slots.clear();
    _freeSlots.clear();
}

} // namespace skipsim::core

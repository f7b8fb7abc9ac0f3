#include "core/event_queue.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/strutil.hh"

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
    const std::size_t n = heapSize();
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

EventQueue::EventQueue(std::size_t slots)
    : _slotRecords(slots < kNoSlot ? slots + 1 : 0,
                   SlotRecord{0, 0, 0, kVacantSeq}),
      _slots(SlotEarlier{_slotRecords.data()})
{
    if (slots >= kNoSlot)
        panic("core::EventQueue: more than 2^32 - 2 keyed slots");
    _slots.assign(std::vector<SlotKey>(slots, vacant()), vacant());
}

void
EventQueue::schedule(double timeNs, int priority, EventKind kind,
                     std::uint32_t target, std::uint64_t payload)
{
    if (std::isnan(timeNs))
        panic("core::EventQueue: NaN event time");
    const Record rec{kind, target, payload, _nextSeq++};
    std::uint32_t record;
    if (!_freeRecords.empty()) {
        record = _freeRecords.back();
        _freeRecords.pop_back();
        _records[record] = rec;
    } else {
        if (_records.size() > std::numeric_limits<std::uint32_t>::max())
            panic("core::EventQueue: more than 2^32 pending events");
        record = static_cast<std::uint32_t>(_records.size());
        _records.push_back(rec);
    }
    _heap.emplace_back();
    siftUp(heapSize() - 1, Key{timeNs, priority, record});
}

void
EventQueue::scheduleSlot(std::size_t slot, double timeNs, int priority,
                         EventKind kind, std::uint32_t target,
                         std::uint64_t payload)
{
    if (slot >= slotCount())
        panic(strprintf("core::EventQueue: slot %zu out of range (%zu "
                        "slots)",
                        slot, slotCount()));
    if (std::isnan(timeNs))
        panic("core::EventQueue: NaN event time");
    if (slot == _popped) {
        // The event that just popped from this slot re-schedules it:
        // one walk re-keys the leaf it still holds.
        _popped = kNoSlot;
    } else {
        if (_slotRecords[slot].seq != kVacantSeq)
            panic(strprintf("core::EventQueue: slot %zu already holds a "
                            "pending event",
                            slot));
        settle();
    }
    _slotRecords[slot] = SlotRecord{kind, target, payload, _nextSeq++};
    _slots.setLeaf(slot, SlotKey{timeNs, priority,
                                 static_cast<std::uint32_t>(slot)});
    ++_liveSlots;
}

bool
EventQueue::slotFirst(const char *what)
{
    settle();
    if (_liveSlots == 0) {
        if (heapSize() == 0)
            panic(strprintf("core::EventQueue: %s", what));
        return false;
    }
    if (heapSize() == 0)
        return true;
    const SlotKey &root = _slots.key(_slots.top());
    const Key &top = keys()[0];
    return after(top.timeNs, top.priority, _records[top.record].seq,
                 root.timeNs, root.priority, _slotRecords[root.slot].seq);
}

double
EventQueue::nextTimeNs()
{
    return slotFirst("nextTimeNs on empty queue")
        ? _slots.key(_slots.top()).timeNs
        : keys()[0].timeNs;
}

int
EventQueue::nextPriority()
{
    return slotFirst("nextPriority on empty queue")
        ? _slots.key(_slots.top()).priority
        : keys()[0].priority;
}

Event
EventQueue::pop()
{
    Event ev;
    if (slotFirst("pop from empty queue")) {
        const std::uint32_t slot = _slots.top();
        const SlotKey &key = _slots.key(slot);
        const SlotRecord &rec = _slotRecords[slot];
        ev.timeNs = key.timeNs;
        ev.priority = key.priority;
        ev.seq = rec.seq;
        ev.kind = rec.kind;
        ev.target = rec.target;
        ev.payload = rec.payload;
        _popped = slot;
        --_liveSlots;
        return ev;
    }
    const Key top = keys()[0];
    const Key tail = _heap.back();
    _heap.pop_back();
    if (heapSize() != 0) {
        siftDown(0, tail);
        // The next pop reads the new head's record.
        prefetch(&_records[keys()[0].record]);
    }
    const Record &rec = _records[top.record];
    ev.timeNs = top.timeNs;
    ev.priority = top.priority;
    ev.seq = rec.seq;
    ev.kind = rec.kind;
    ev.target = rec.target;
    ev.payload = rec.payload;
    _freeRecords.push_back(top.record);
    return ev;
}

void
EventQueue::clear()
{
    _heap.resize(kOffset);
    _records.clear();
    _freeRecords.clear();
    for (SlotRecord &rec : _slotRecords)
        rec.seq = kVacantSeq;
    _slots.assign(std::vector<SlotKey>(slotCount(), vacant()), vacant());
    _liveSlots = 0;
    _popped = kNoSlot;
}

} // namespace skipsim::core

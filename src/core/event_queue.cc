#include "core/event_queue.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace skipsim::core
{

bool
EventQueue::after(const Event &a, const Event &b)
{
    if (a.timeNs != b.timeNs)
        return a.timeNs > b.timeNs;
    if (a.priority != b.priority)
        return a.priority > b.priority;
    return a.seq > b.seq;
}

void
EventQueue::schedule(double timeNs, int priority, EventFn fn)
{
    if (std::isnan(timeNs))
        panic("core::EventQueue: NaN event time");
    Event ev;
    ev.timeNs = timeNs;
    ev.priority = priority;
    ev.seq = _nextSeq++;
    ev.fn = std::move(fn);
    _heap.push_back(std::move(ev));
    std::push_heap(_heap.begin(), _heap.end(), after);
}

double
EventQueue::nextTimeNs() const
{
    if (_heap.empty())
        panic("core::EventQueue: nextTimeNs on empty queue");
    return _heap.front().timeNs;
}

int
EventQueue::nextPriority() const
{
    if (_heap.empty())
        panic("core::EventQueue: nextPriority on empty queue");
    return _heap.front().priority;
}

Event
EventQueue::pop()
{
    if (_heap.empty())
        panic("core::EventQueue: pop from empty queue");
    std::pop_heap(_heap.begin(), _heap.end(), after);
    Event ev = std::move(_heap.back());
    _heap.pop_back();
    return ev;
}

} // namespace skipsim::core

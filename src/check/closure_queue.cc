#include "check/closure_queue.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "core/event_queue.hh"

namespace skipsim::check
{

bool
ClosureEventQueue::after(const ClosureEvent &a, const ClosureEvent &b)
{
    if (a.timeNs != b.timeNs)
        return a.timeNs > b.timeNs;
    if (a.priority != b.priority)
        return a.priority > b.priority;
    return a.seq > b.seq;
}

void
ClosureEventQueue::schedule(double timeNs, int priority, ClosureFn fn)
{
    if (std::isnan(timeNs))
        panic("check::ClosureEventQueue: NaN event time");
    ClosureEvent ev;
    ev.timeNs = timeNs;
    ev.priority = priority;
    ev.seq = _nextSeq++;
    ev.fn = std::move(fn);
    _heap.push_back(std::move(ev));
    std::push_heap(_heap.begin(), _heap.end(), after);
}

double
ClosureEventQueue::nextTimeNs() const
{
    if (_heap.empty())
        panic("check::ClosureEventQueue: nextTimeNs on empty queue");
    return _heap.front().timeNs;
}

int
ClosureEventQueue::nextPriority() const
{
    if (_heap.empty())
        panic("check::ClosureEventQueue: nextPriority on empty queue");
    return _heap.front().priority;
}

ClosureEvent
ClosureEventQueue::pop()
{
    if (_heap.empty())
        panic("check::ClosureEventQueue: pop from empty queue");
    std::pop_heap(_heap.begin(), _heap.end(), after);
    ClosureEvent ev = std::move(_heap.back());
    _heap.pop_back();
    return ev;
}

namespace
{

/** The panic text of @p fn after its "class: " prefix, or "" when it
 *  does not panic. */
template <typename Fn>
std::string
panicText(Fn &&fn)
{
    try {
        fn();
    } catch (const PanicError &err) {
        std::string what = err.what();
        std::size_t colon = what.find(": ");
        return colon == std::string::npos ? what : what.substr(colon + 2);
    }
    return "";
}

} // namespace

std::string
diffEventQueues(std::uint64_t seed, std::size_t steps)
{
    Rng rng(seed);
    core::EventQueue fast;
    ClosureEventQueue oracle;
    // Few distinct times and priorities, so (time, priority) pairs
    // collide and the seq tie-break decides most pops.
    const double kTimes[] = {0.0, -0.0, 1.0, 1.0, 2.5, 7.0, 1e9,
                             std::numeric_limits<double>::infinity()};
    const int kPriorities[] = {0, 0, 1, 2, -1, 1 << 20};
    std::uint64_t ran = 0; ///< push index the oracle's closure names
    std::uint64_t pushes = 0;

    auto where = [&](std::size_t step) {
        return strprintf("event-queue differential (seed %llu): step %zu",
                         static_cast<unsigned long long>(seed), step);
    };
    for (std::size_t step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 55) {
            double t = kTimes[rng.below(std::size(kTimes))];
            if (rng.below(8) == 0)
                t = rng.uniform(0.0, 10.0);
            const int prio = kPriorities[rng.below(std::size(kPriorities))];
            const std::uint64_t tag = pushes++;
            fast.schedule(t, prio, static_cast<core::EventKind>(tag % 7),
                          static_cast<std::uint32_t>(tag), tag);
            oracle.schedule(t, prio, [&ran, tag](double) { ran = tag; });
        } else if (op < 97) {
            if (fast.empty() != oracle.empty())
                return where(step) + ": emptiness differs";
            if (fast.empty()) {
                std::string got = panicText([&] { fast.pop(); });
                std::string want = panicText([&] { oracle.pop(); });
                if (got.empty() || got != want)
                    return where(step) + strprintf(
                        ": empty pop panics \"%s\", the oracle \"%s\"",
                        got.c_str(), want.c_str());
                continue;
            }
            core::Event got = fast.pop();
            ClosureEvent want = oracle.pop();
            want.fn(want.timeNs);
            if (got.timeNs != want.timeNs ||
                std::signbit(got.timeNs) != std::signbit(want.timeNs) ||
                got.priority != want.priority || got.seq != want.seq)
                return where(step) + strprintf(
                    ": popped (%g, %d, %llu), the oracle (%g, %d, %llu)",
                    got.timeNs, got.priority,
                    static_cast<unsigned long long>(got.seq),
                    want.timeNs, want.priority,
                    static_cast<unsigned long long>(want.seq));
            if (got.payload != ran || got.target != ran ||
                got.kind != ran % 7)
                return where(step) + strprintf(
                    ": popped the record of push %llu, the oracle ran "
                    "push %llu",
                    static_cast<unsigned long long>(got.payload),
                    static_cast<unsigned long long>(ran));
        } else if (op < 98) {
            std::string got = panicText(
                [&] { fast.schedule(std::nan(""), 0, 0); });
            std::string want = panicText(
                [&] { oracle.schedule(std::nan(""), 0, nullptr); });
            if (got.empty() || got != want)
                return where(step) + strprintf(
                    ": NaN push panics \"%s\", the oracle \"%s\"",
                    got.c_str(), want.c_str());
        } else {
            fast.clear();
            oracle.clear();
        }
        if (fast.size() != oracle.size())
            return where(step) + strprintf(": size %zu, the oracle %zu",
                                           fast.size(), oracle.size());
        if (!fast.empty() &&
            (fast.nextTimeNs() != oracle.nextTimeNs() ||
             fast.nextPriority() != oracle.nextPriority()))
            return where(step) + ": head (time, priority) differs";
    }
    return "";
}

} // namespace skipsim::check

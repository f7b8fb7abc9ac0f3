#include "check/closure_queue.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

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

/**
 * One seeded replay. With @p slots 0 every push goes to the heap, as
 * before keyed slots existed; otherwise half the pushes target a
 * random keyed slot, a push to a taken slot (or past the last) must
 * panic and leave both queues as they were, and a slot event that pops
 * re-keys its slot at once half the time.
 */
std::string
diffQueues(std::uint64_t seed, std::size_t steps, std::size_t slots)
{
    // The keyed replay draws from its own stream of the seed.
    Rng rng(slots == 0 ? seed : mixSeed(seed, slots));
    core::EventQueue fast(slots);
    ClosureEventQueue oracle;
    // Few distinct times and priorities, so (time, priority) pairs
    // collide and the seq tie-break decides most pops.
    const double kTimes[] = {0.0, -0.0, 1.0, 1.0, 2.5, 7.0, 1e9,
                             std::numeric_limits<double>::infinity()};
    const int kPriorities[] = {0, 0, 1, 2, -1, 1 << 20};
    constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t ran = 0; ///< push index the oracle's closure names
    std::uint64_t pushes = 0;
    /** Push index pending in each slot, or kNone. */
    std::vector<std::uint64_t> slotTag(slots, kNone);
    /** Slot of each push, or kNone for a heap push. */
    std::vector<std::uint64_t> tagSlot;

    auto where = [&](std::size_t step) {
        return strprintf("event-queue differential (seed %llu, %zu slots): "
                         "step %zu",
                         static_cast<unsigned long long>(seed), slots, step);
    };
    // Push one event to both queues: into @p slot, or the heap when it
    // is kNone.
    auto push = [&](std::uint64_t slot) {
        double t = kTimes[rng.below(std::size(kTimes))];
        if (rng.below(8) == 0)
            t = rng.uniform(0.0, 10.0);
        const int prio = kPriorities[rng.below(std::size(kPriorities))];
        const std::uint64_t tag = pushes++;
        const auto kind = static_cast<core::EventKind>(tag % 7);
        if (slot == kNone) {
            fast.schedule(t, prio, kind, static_cast<std::uint32_t>(tag),
                          tag);
        } else {
            fast.scheduleSlot(slot, t, prio, kind,
                              static_cast<std::uint32_t>(tag), tag);
            slotTag[slot] = tag;
        }
        tagSlot.push_back(slot);
        oracle.schedule(t, prio, [&ran, tag](double) { ran = tag; });
    };
    for (std::size_t step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 55) {
            if (slots == 0 || rng.below(2) == 0) {
                push(kNone);
                continue;
            }
            // One draw past the last slot tests the range check.
            const std::uint64_t slot = rng.below(slots + 1);
            if (slot < slots && slotTag[slot] == kNone) {
                push(slot);
                continue;
            }
            const std::size_t size = fast.size();
            std::string got = panicText(
                [&] { fast.scheduleSlot(slot, 1.0, 0, 0); });
            std::string want = slot < slots
                ? strprintf("slot %llu already holds a pending event",
                            static_cast<unsigned long long>(slot))
                : strprintf("slot %llu out of range (%zu slots)",
                            static_cast<unsigned long long>(slot), slots);
            if (got != want || fast.size() != size)
                return where(step) + strprintf(
                    ": a push to slot %llu panics \"%s\" and leaves %zu "
                    "events, want \"%s\" and %zu",
                    static_cast<unsigned long long>(slot), got.c_str(),
                    fast.size(), want.c_str(), size);
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
            const std::uint64_t slot = tagSlot[ran];
            if (slot != kNone) {
                slotTag[slot] = kNone;
                // The iteration-end pattern: the event that popped
                // schedules its slot's next one.
                if (rng.below(2) == 0)
                    push(slot);
            }
        } else if (op < 98) {
            std::string got = panicText(
                [&] { fast.schedule(std::nan(""), 0, 0); });
            std::string want = panicText(
                [&] { oracle.schedule(std::nan(""), 0, nullptr); });
            if (slots != 0 && got == want)
                got = panicText([&] {
                    fast.scheduleSlot(rng.below(slots), std::nan(""), 0, 0);
                });
            if (got.empty() || got != want)
                return where(step) + strprintf(
                    ": NaN push panics \"%s\", the oracle \"%s\"",
                    got.c_str(), want.c_str());
        } else {
            fast.clear();
            oracle.clear();
            std::fill(slotTag.begin(), slotTag.end(), kNone);
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

/** Keyed slots of the keyed half: few, so slot pushes often find
 *  their slot taken. */
constexpr std::size_t kDiffSlots = 5;

} // namespace

std::string
diffEventQueues(std::uint64_t seed, std::size_t steps)
{
    std::string problem = diffQueues(seed, steps, 0);
    if (problem.empty())
        problem = diffKeyedEventQueues(seed, steps);
    return problem;
}

std::string
diffKeyedEventQueues(std::uint64_t seed, std::size_t steps)
{
    return diffQueues(seed, steps, kDiffSlots);
}

} // namespace skipsim::check

#include "skip/dep_graph.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::skip
{

namespace
{

/** No position / no parent. Trace ids and positions are below it. */
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kNoParent = std::numeric_limits<std::uint64_t>::max();

/**
 * Open-addressing map from a 64-bit key to a position: Fibonacci
 * hashing, linear probing, a power-of-two capacity that doubles at half
 * load. An empty slot holds kNone, so kNone is never stored.
 */
class PositionTable
{
  public:
    explicit PositionTable(std::size_t expected)
    {
        reset(std::bit_ceil(std::max<std::size_t>(8, 2 * expected)));
    }

    /** The position stored under @p key, or kNone. */
    std::size_t
    find(std::uint64_t key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            if (_slots[i].pos == kNone || _slots[i].key == key)
                return _slots[i].pos;
        }
    }

    /** Store @p pos under @p key, replacing an earlier position. */
    void
    put(std::uint64_t key, std::size_t pos)
    {
        std::size_t i = home(key);
        for (; _slots[i].pos != kNone; i = (i + 1) & _mask) {
            if (_slots[i].key == key) {
                _slots[i].pos = pos;
                return;
            }
        }
        _slots[i] = {key, pos};
        if (2 * ++_size > _slots.size())
            grow();
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::size_t pos = kNone;
    };

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    int _shift = 0;
    std::size_t _size = 0;

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> _shift);
    }

    void
    reset(std::size_t capacity)
    {
        _slots.assign(capacity, Slot{});
        _mask = capacity - 1;
        _shift = 64 - std::countr_zero(capacity);
        _size = 0;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(_slots);
        reset(2 * old.size());
        for (const Slot &slot : old) {
            if (slot.pos != kNone)
                put(slot.key, slot.pos);
        }
    }
};

} // namespace

DependencyGraph
DependencyGraph::build(trace::Trace trace)
{
    DependencyGraph g;
    trace.sortByTime();
    g._trace = std::move(trace);

    // Trace ids are dense, so every per-event table is indexed by id;
    // the per-thread stacks link event positions through `below`.
    const auto &events = g._trace.events();
    const std::size_t n = events.size();
    g._parents.assign(n, kNoParent);
    std::vector<std::uint64_t> roots(n);
    std::vector<std::size_t> below(n);  // next entry down the stack
    std::vector<std::size_t> tops;      // stack top per thread slot
    std::vector<std::uint64_t> linked;  // ids with a parent, visit order
    std::vector<std::size_t> gpu_at;    // GPU event positions
    PositionTable threads(4);           // tid -> slot in tops
    PositionTable launches(n / 2);      // correlation id -> position

    // --- CPU containment per thread, launch index -----------------
    // Events arrive in (begin, id) order. Within a run of equal begin
    // timestamps CPU events are visited by end descending, so a parent
    // precedes the children sharing its begin timestamp.
    std::vector<std::size_t> run;
    for (std::size_t i = 0; i < n;) {
        run.clear();
        std::size_t j = i;
        for (; j < n && events[j].tsBeginNs == events[i].tsBeginNs; ++j) {
            const trace::TraceEvent &ev = events[j];
            if (!ev.onCpu()) {
                gpu_at.push_back(j);
                continue;
            }
            run.push_back(j);
            // A reused correlation id resolves to its latest launch.
            if (ev.kind == trace::EventKind::Runtime &&
                ev.correlationId != 0)
                launches.put(ev.correlationId, j);
        }
        i = j;
        if (run.size() > 1) {
            std::stable_sort(run.begin(), run.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return events[a].tsEndNs() >
                                     events[b].tsEndNs();
                             });
        }
        for (std::size_t pos : run) {
            const trace::TraceEvent &ev = events[pos];
            const auto tid = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(ev.tid));
            std::size_t thread = threads.find(tid);
            if (thread == kNone) {
                thread = tops.size();
                threads.put(tid, thread);
                tops.push_back(kNone);
            }
            std::size_t &top = tops[thread];
            while (top != kNone && events[top].tsEndNs() <= ev.tsBeginNs)
                top = below[top];
            roots[ev.id] = ev.id;
            if (top != kNone && ev.tsEndNs() <= events[top].tsEndNs()) {
                std::uint64_t parent = events[top].id;
                g._parents[ev.id] = parent;
                linked.push_back(ev.id);
                roots[ev.id] = roots[parent];
            } else if (ev.kind == trace::EventKind::Operator) {
                g._rootOps.push_back(ev.id);
            }
            below[pos] = top;
            top = pos;
        }
    }

    // Children in one array: count per parent, turn the counts into
    // range ends, then fill each range back to front in reverse visit
    // order, which leaves every range in visit order and every
    // _childBegin[p] at the start of p's range.
    g._childBegin.assign(n + 1, 0);
    for (std::uint64_t child : linked)
        ++g._childBegin[g._parents[child]];
    std::partial_sum(g._childBegin.begin(), g._childBegin.end(),
                     g._childBegin.begin());
    g._childIds.resize(linked.size());
    for (auto it = linked.rbegin(); it != linked.rend(); ++it)
        g._childIds[--g._childBegin[g._parents[*it]]] = *it;

    // --- Kernel linkage via correlation ids -----------------------
    // GPU events are visited in (begin, id) order, which is stream
    // (execution) order with ties kept in id order.
    g._kernels.reserve(gpu_at.size());
    for (std::size_t pos : gpu_at) {
        const trace::TraceEvent &ev = events[pos];
        std::size_t at = ev.correlationId == 0
            ? kNone
            : launches.find(ev.correlationId);
        if (at == kNone) {
            fatal(strprintf(
                "dependency graph: kernel '%s' (id %llu) has no runtime "
                "launch with correlation id %llu",
                ev.name.c_str(),
                static_cast<unsigned long long>(ev.id),
                static_cast<unsigned long long>(ev.correlationId)));
        }
        const trace::TraceEvent &launch = events[at];
        KernelLink link;
        link.kernelId = ev.id;
        link.runtimeId = launch.id;
        link.launchToStartNs = ev.tsBeginNs - launch.tsBeginNs;
        if (std::uint64_t parent = g._parents[launch.id];
            parent != kNoParent) {
            link.leafOpId = parent;
            link.rootOpId = roots[parent];
        }
        g._kernels.push_back(link);
    }
    return g;
}

std::optional<std::uint64_t>
DependencyGraph::parentOf(std::uint64_t id) const
{
    if (id >= _parents.size())
        fatal("DependencyGraph::parentOf: unknown event id");
    if (_parents[id] == kNoParent)
        return std::nullopt;
    return _parents[id];
}

std::span<const std::uint64_t>
DependencyGraph::childrenOf(std::uint64_t id) const
{
    if (id >= _parents.size())
        fatal("DependencyGraph::childrenOf: unknown event id");
    return {_childIds.data() + _childBegin[id],
            _childBegin[id + 1] - _childBegin[id]};
}

std::uint64_t
DependencyGraph::rootAncestorOf(std::uint64_t id) const
{
    std::uint64_t cur = id;
    while (auto parent = parentOf(cur))
        cur = *parent;
    return cur;
}

std::vector<KernelLink>
DependencyGraph::computeKernelsOnly() const
{
    std::vector<KernelLink> out;
    for (const auto &link : _kernels) {
        if (_trace.byId(link.kernelId).kind == trace::EventKind::Kernel)
            out.push_back(link);
    }
    return out;
}

} // namespace skipsim::skip

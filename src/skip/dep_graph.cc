#include "skip/dep_graph.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::skip
{

DependencyGraph
DependencyGraph::build(trace::Trace trace)
{
    DependencyGraph g;
    trace.sortByTime();
    g._trace = std::move(trace);

    // Trace ids are dense, so every per-event table is indexed by id.
    const auto &events = g._trace.events();
    g._parents.assign(events.size(), std::nullopt);
    g._children.assign(events.size(), {});
    std::vector<std::uint64_t> roots(events.size());

    // --- CPU containment per thread, launch index -----------------
    // Events arrive in (begin, id) order. Within a run of equal begin
    // timestamps CPU events are visited by end descending, so a parent
    // precedes the children sharing its begin timestamp.
    std::unordered_map<int, std::vector<const trace::TraceEvent *>> stacks;
    std::unordered_map<std::uint64_t, const trace::TraceEvent *> launches;
    std::vector<const trace::TraceEvent *> run;
    for (std::size_t i = 0; i < events.size();) {
        run.clear();
        std::size_t j = i;
        for (; j < events.size() &&
             events[j].tsBeginNs == events[i].tsBeginNs; ++j) {
            const trace::TraceEvent &ev = events[j];
            if (!ev.onCpu())
                continue;
            run.push_back(&ev);
            // A reused correlation id resolves to its latest launch.
            if (ev.kind == trace::EventKind::Runtime &&
                ev.correlationId != 0)
                launches[ev.correlationId] = &ev;
        }
        i = j;
        if (run.size() > 1) {
            std::stable_sort(run.begin(), run.end(),
                             [](const trace::TraceEvent *a,
                                const trace::TraceEvent *b) {
                                 return a->tsEndNs() > b->tsEndNs();
                             });
        }
        for (const auto *ev : run) {
            auto &stack = stacks[ev->tid];
            while (!stack.empty() &&
                   stack.back()->tsEndNs() <= ev->tsBeginNs)
                stack.pop_back();
            roots[ev->id] = ev->id;
            if (!stack.empty() &&
                ev->tsEndNs() <= stack.back()->tsEndNs()) {
                std::uint64_t parent = stack.back()->id;
                g._parents[ev->id] = parent;
                g._children[parent].push_back(ev->id);
                roots[ev->id] = roots[parent];
            } else if (ev->kind == trace::EventKind::Operator) {
                g._rootOps.push_back(ev->id);
            }
            stack.push_back(ev);
        }
    }

    // --- Kernel linkage via correlation ids -----------------------
    // GPU events are visited in (begin, id) order, which is stream
    // (execution) order with ties kept in id order.
    for (const auto &ev : events) {
        if (!ev.onGpu())
            continue;
        auto it = launches.find(ev.correlationId);
        if (it == launches.end()) {
            fatal(strprintf(
                "dependency graph: kernel '%s' (id %llu) has no runtime "
                "launch with correlation id %llu",
                ev.name.c_str(),
                static_cast<unsigned long long>(ev.id),
                static_cast<unsigned long long>(ev.correlationId)));
        }
        const trace::TraceEvent &launch = *it->second;
        KernelLink link;
        link.kernelId = ev.id;
        link.runtimeId = launch.id;
        link.launchToStartNs = ev.tsBeginNs - launch.tsBeginNs;
        if (auto parent = g._parents[launch.id]) {
            link.leafOpId = parent;
            link.rootOpId = roots[*parent];
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
    return _parents[id];
}

const std::vector<std::uint64_t> &
DependencyGraph::childrenOf(std::uint64_t id) const
{
    if (id >= _children.size())
        fatal("DependencyGraph::childrenOf: unknown event id");
    return _children[id];
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

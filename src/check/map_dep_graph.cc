#include "check/map_dep_graph.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::check
{

MapDependencyGraph
buildMapDependencyGraph(trace::Trace trace)
{
    MapDependencyGraph g;
    trace.sortByTime();

    const auto &events = trace.events();
    g.parents.assign(events.size(), std::nullopt);
    g.children.assign(events.size(), {});
    std::vector<std::uint64_t> roots(events.size());

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
                g.parents[ev->id] = parent;
                g.children[parent].push_back(ev->id);
                roots[ev->id] = roots[parent];
            } else if (ev->kind == trace::EventKind::Operator) {
                g.rootOps.push_back(ev->id);
            }
            stack.push_back(ev);
        }
    }

    // GPU events are visited in (begin, id) order.
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
        skip::KernelLink link;
        link.kernelId = ev.id;
        link.runtimeId = launch.id;
        link.launchToStartNs = ev.tsBeginNs - launch.tsBeginNs;
        if (auto parent = g.parents[launch.id]) {
            link.leafOpId = parent;
            link.rootOpId = roots[*parent];
        }
        g.kernels.push_back(link);
    }
    return g;
}

namespace
{

std::string
describe(std::optional<std::uint64_t> id)
{
    return id ? std::to_string(*id) : std::string("none");
}

/** First field where two kernel links differ, or empty. */
std::string
diffLinks(const skip::KernelLink &a, const skip::KernelLink &b)
{
    if (a.kernelId != b.kernelId)
        return strprintf("kernelId %llu != %llu",
                         static_cast<unsigned long long>(a.kernelId),
                         static_cast<unsigned long long>(b.kernelId));
    if (a.runtimeId != b.runtimeId)
        return strprintf("runtimeId %llu != %llu",
                         static_cast<unsigned long long>(a.runtimeId),
                         static_cast<unsigned long long>(b.runtimeId));
    if (a.leafOpId != b.leafOpId)
        return strprintf("leafOpId %s != %s", describe(a.leafOpId).c_str(),
                         describe(b.leafOpId).c_str());
    if (a.rootOpId != b.rootOpId)
        return strprintf("rootOpId %s != %s", describe(a.rootOpId).c_str(),
                         describe(b.rootOpId).c_str());
    if (a.launchToStartNs != b.launchToStartNs)
        return strprintf("launchToStartNs %lld != %lld",
                         static_cast<long long>(a.launchToStartNs),
                         static_cast<long long>(b.launchToStartNs));
    return {};
}

} // namespace

std::string
diffDependencyGraphs(const trace::Trace &trace)
{
    std::optional<skip::DependencyGraph> flat;
    std::string flat_error;
    try {
        flat = skip::DependencyGraph::build(trace);
    } catch (const FatalError &err) {
        flat_error = err.what();
    }
    std::optional<MapDependencyGraph> ref;
    std::string ref_error;
    try {
        ref = buildMapDependencyGraph(trace);
    } catch (const FatalError &err) {
        ref_error = err.what();
    }
    if (!flat || !ref) {
        if (flat_error == ref_error)
            return {};
        auto outcome = [](bool built, const std::string &error) {
            return built ? std::string("succeeded")
                         : strprintf("threw '%s'", error.c_str());
        };
        return strprintf("dependency graph: build %s, map-based "
                         "reference %s",
                         outcome(flat.has_value(), flat_error).c_str(),
                         outcome(ref.has_value(), ref_error).c_str());
    }

    for (std::uint64_t id = 0; id < ref->parents.size(); ++id) {
        if (flat->parentOf(id) != ref->parents[id])
            return strprintf("dependency graph: parentOf(%llu) %s != "
                             "reference %s",
                             static_cast<unsigned long long>(id),
                             describe(flat->parentOf(id)).c_str(),
                             describe(ref->parents[id]).c_str());
        std::span<const std::uint64_t> kids = flat->childrenOf(id);
        if (!std::equal(kids.begin(), kids.end(), ref->children[id].begin(),
                        ref->children[id].end()))
            return strprintf("dependency graph: childrenOf(%llu) differs "
                             "(%zu children, reference %zu)",
                             static_cast<unsigned long long>(id),
                             kids.size(), ref->children[id].size());
    }
    if (flat->rootOps() != ref->rootOps)
        return strprintf("dependency graph: %zu root operators, "
                         "reference %zu (or their order differs)",
                         flat->rootOps().size(), ref->rootOps.size());
    if (flat->kernels().size() != ref->kernels.size())
        return strprintf("dependency graph: %zu kernels, reference %zu",
                         flat->kernels().size(), ref->kernels.size());
    for (std::size_t i = 0; i < ref->kernels.size(); ++i) {
        std::string d = diffLinks(flat->kernels()[i], ref->kernels[i]);
        if (!d.empty())
            return strprintf("dependency graph: kernel %zu: %s", i,
                             d.c_str());
    }
    return {};
}

} // namespace skipsim::check

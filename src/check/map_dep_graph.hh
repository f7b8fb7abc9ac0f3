/**
 * @file
 * Differential oracle for skip::DependencyGraph::build. The builder
 * keeps flat tables: a parent per id, every id's children in one CSR
 * array, and open-addressing indexes of correlation ids and threads.
 * buildMapDependencyGraph() is the builder it replaced: hash maps of
 * per-thread stacks and of launches, and a vector of children per
 * event. diffDependencyGraphs() builds both from one trace and requires
 * the same error message, or the same parentOf, childrenOf (in order),
 * rootOps and kernels.
 */

#ifndef SKIPSIM_CHECK_MAP_DEP_GRAPH_HH
#define SKIPSIM_CHECK_MAP_DEP_GRAPH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "skip/dep_graph.hh"
#include "trace/trace.hh"

namespace skipsim::check
{

/** The reference builder's tables, indexed by trace id. */
struct MapDependencyGraph
{
    std::vector<std::optional<std::uint64_t>> parents;
    std::vector<std::vector<std::uint64_t>> children;
    std::vector<std::uint64_t> rootOps;
    std::vector<skip::KernelLink> kernels;
};

/**
 * The map-based dependency graph of @p trace.
 * @throws skipsim::FatalError as skip::DependencyGraph::build().
 */
MapDependencyGraph buildMapDependencyGraph(trace::Trace trace);

/**
 * skip::DependencyGraph::build against buildMapDependencyGraph on
 * @p trace.
 * @return empty when both throw the same FatalError message or both
 *         build the same graph, else the first difference.
 */
std::string diffDependencyGraphs(const trace::Trace &trace);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_MAP_DEP_GRAPH_HH

/**
 * @file
 * SKIP's operator-kernel dependency graph (paper Sec. IV-A). From a
 * timestamped trace it derives:
 *  - CPU parent/child operator relationships by interval containment
 *    per thread ("an ATen operator p is designated the parent of a
 *    subsequent child operator c and/or CUDA runtime call l if their
 *    start times fall within p's duration");
 *  - launch-to-kernel links via CUDA correlation IDs.
 */

#ifndef SKIPSIM_SKIP_DEP_GRAPH_HH
#define SKIPSIM_SKIP_DEP_GRAPH_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "trace/trace.hh"

namespace skipsim::skip
{

/** One kernel with its resolved launch chain. */
struct KernelLink
{
    /** The GPU kernel (or memcpy) event id. */
    std::uint64_t kernelId = 0;

    /** The cudaLaunchKernel / cudaMemcpyAsync runtime event id. */
    std::uint64_t runtimeId = 0;

    /** The operator that directly performed the launch (if any). */
    std::optional<std::uint64_t> leafOpId;

    /** The top-level (root) ATen operator the launch belongs to. */
    std::optional<std::uint64_t> rootOpId;

    /**
     * Launch-to-start latency t_l = ts_b(kernel) - ts_b(launch), ns
     * (paper Eq. 1): launch call cost + driver overhead, stretched by
     * queuing when the stream is busy.
     */
    std::int64_t launchToStartNs = 0;
};

/**
 * The dependency graph over one trace. Owns the trace, sorted by time;
 * all ids refer to TraceEvent::id. Building it checks the time order
 * (sorting only a trace that is out of order), makes one pass over the
 * events and one over the kernels, and allocates flat tables only: a
 * parent per id, the children of every id in one array (CSR), and
 * open-addressing indexes of correlation ids and threads. parentOf and
 * childrenOf are O(1), rootAncestorOf walks the containment chain.
 */
class DependencyGraph
{
  public:
    /**
     * Build the graph from a trace. Pass the trace by move to skip the
     * copy.
     * @throws skipsim::FatalError when a GPU event's correlation id
     *         cannot be resolved to a runtime call.
     */
    static DependencyGraph build(trace::Trace trace);

    const trace::Trace &trace() const { return _trace; }

    /** Containment parent of a CPU event (nullopt for roots). */
    std::optional<std::uint64_t> parentOf(std::uint64_t id) const;

    /**
     * Direct children of a CPU event, in the order the build visits
     * them: by begin time, and by end descending among equal begins.
     */
    std::span<const std::uint64_t> childrenOf(std::uint64_t id) const;

    /** Topmost ancestor of a CPU event (itself when already a root). */
    std::uint64_t rootAncestorOf(std::uint64_t id) const;

    /** Ids of top-level CPU operator events, in time order. */
    const std::vector<std::uint64_t> &rootOps() const { return _rootOps; }

    /** Kernel links in GPU execution (stream) order. */
    const std::vector<KernelLink> &kernels() const { return _kernels; }

    /** Kernel links excluding memcpys, in stream order. */
    std::vector<KernelLink> computeKernelsOnly() const;

  private:
    DependencyGraph() = default;

    trace::Trace _trace;
    std::vector<std::uint64_t> _parents; ///< by id; kNoParent for roots
    /** Children of id: _childIds[_childBegin[id], _childBegin[id + 1]). */
    std::vector<std::size_t> _childBegin;
    std::vector<std::uint64_t> _childIds;
    std::vector<std::uint64_t> _rootOps;
    std::vector<KernelLink> _kernels;
};

} // namespace skipsim::skip

#endif // SKIPSIM_SKIP_DEP_GRAPH_HH

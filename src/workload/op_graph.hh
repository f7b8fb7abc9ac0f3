/**
 * @file
 * The framework-level operator tree an inference forward pass executes.
 * Each node is an ATen-style operator with a CPU dispatch cost, child
 * operators, and the GPU kernel launches it performs directly. The
 * execution simulator walks this tree depth-first, exactly like the
 * single-threaded PyTorch eager dispatch loop.
 */

#ifndef SKIPSIM_WORKLOAD_OP_GRAPH_HH
#define SKIPSIM_WORKLOAD_OP_GRAPH_HH

#include <functional>
#include <string>
#include <vector>

#include "hw/kernel_cost.hh"

namespace skipsim::workload
{

/** One GPU kernel launch performed by an operator. */
struct KernelLaunch
{
    /** Kernel name as it would appear in a CUPTI trace. */
    std::string kernelName;

    /**
     * Work components executed by this kernel. Unfused kernels carry
     * one component; fused kernels (FlashAttention, CUDA-graph replay)
     * carry one per original kernel.
     */
    std::vector<hw::KernelWork> work;

    /** True for host<->device copies (excluded from kernel statistics). */
    bool isMemcpy = false;

    /** Total FLOPs over components. */
    double totalFlops() const;

    /** Total bytes over components. */
    double totalBytes() const;
};

/**
 * An operator node. Execution order within a node is: pre-dispatch CPU
 * work, children (in order, recursively), kernel launches (in order),
 * post-dispatch CPU work.
 */
struct OpNode
{
    /** ATen operator name, e.g. "aten::linear". */
    std::string name;

    /** Framework CPU cost at the reference CPU (score 1.0), ns. */
    double cpuNs = 0.0;

    /** Fraction of cpuNs spent before children/launches (rest after). */
    double preFraction = 0.6;

    std::vector<OpNode> children;
    std::vector<KernelLaunch> launches;
};

/** A complete forward-pass operator graph (list of top-level ops). */
struct OperatorGraph
{
    std::vector<OpNode> roots;

    /** Total operator nodes (recursive). */
    std::size_t numOps() const;

    /** Total kernel launches, excluding memcpys. */
    std::size_t numKernelLaunches() const;

    /** Total memcpy launches. */
    std::size_t numMemcpys() const;

    /** Sum of kernel FLOPs (excluding memcpys). */
    double totalFlops() const;

    /** Sum of kernel device-memory bytes (excluding memcpys). */
    double totalBytes() const;

    /** Sum of framework CPU cost at the reference CPU, ns. */
    double totalCpuNs() const;

    /** Kernel names in launch (depth-first) order, excluding memcpys. */
    std::vector<std::string> kernelSequence() const;

    /** Visit every node depth-first (pre-order). */
    void forEachOp(const std::function<void(const OpNode &)> &fn) const;

    /** Visit every launch in execution order. */
    void
    forEachLaunch(const std::function<void(const KernelLaunch &)> &fn) const;
};

/** @name Builder helpers
 * Convenience constructors used by the graph builders and tests.
 * @{ */

/** Leaf operator launching one kernel. */
OpNode makeKernelOp(std::string op_name, double cpu_ns,
                    std::string kernel_name, hw::KernelWork work);

/** CPU-only operator (views, reshapes, metadata ops). */
OpNode makeCpuOp(std::string op_name, double cpu_ns);

/** Parent operator wrapping children. */
OpNode makeParentOp(std::string op_name, double cpu_ns,
                    std::vector<OpNode> children);

/** @} */

} // namespace skipsim::workload

#endif // SKIPSIM_WORKLOAD_OP_GRAPH_HH

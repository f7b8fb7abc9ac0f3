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
#include <span>
#include <string>
#include <string_view>
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

/** Default fraction of an operator's CPU cost spent before its work. */
constexpr double defaultPreFraction = 0.6;

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
    double preFraction = defaultPreFraction;

    std::vector<OpNode> children;
    std::vector<KernelLaunch> launches;
};

/**
 * Receives a forward pass as a stream of operators in issue order, the
 * order the simulator executes them: begin() opens an operator,
 * launch() issues one kernel or copy of the innermost open operator,
 * end() closes it. Operators opened between a begin() and its end()
 * are its children; an operator's children all come before its
 * launches. Names and work spans are valid only during the call.
 *
 * The builder's emitter also brackets a pass's stack of equal
 * transformer layers: repeat(n) opens the block, the emitter streams
 * as many layers as it returns, and endRepeat() closes it. The default
 * streams all n and does nothing at the end, so a sink that does not
 * override the pair sees every layer. A sink that returns fewer must
 * account for the layers it skipped itself at endRepeat(), and must
 * keep no names: a skipped layer draws no kernel-variant suffixes.
 * Only the simulator's trace-free walk folds (sim/runner.hh);
 * OperatorGraph::emit() never marks a block.
 */
class OpSink
{
  public:
    virtual ~OpSink() = default;

    /**
     * Whether the sink reads kernel names. A sink that returns false
     * is handed each kernel's stem (the fixed prefix naming its kind,
     * e.g. "bmm_f16_") so the emitter formats no shape or variant.
     */
    virtual bool keepsNames() const = 0;

    /** Open an operator costing @p cpuNs at the reference CPU. */
    virtual void begin(std::string_view name, double cpuNs,
                       double preFraction) = 0;

    /** Issue one kernel (or host-to-device copy) of the open operator. */
    virtual void launch(std::string_view kernel,
                        std::span<const hw::KernelWork> work,
                        bool isMemcpy) = 0;

    /** Close the innermost open operator. */
    virtual void end() = 0;

    /**
     * Open a block of @p layers equal layers.
     * @return how many of them the emitter streams (default: all).
     */
    virtual int repeat(int layers) { return layers; }

    /** Close the block repeat() opened. */
    virtual void endRepeat() {}
};

/** A complete forward-pass operator graph (list of top-level ops). */
struct OperatorGraph
{
    std::vector<OpNode> roots;

    /**
     * Stream the tree into @p sink depth-first, in issue order. A
     * template, so that the calls into a final sink bind statically.
     */
    template <typename Sink>
    void
    emit(Sink &sink) const
    {
        for (const auto &root : roots)
            emitOp(root, sink);
    }

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

  private:
    template <typename Sink>
    static void
    emitOp(const OpNode &node, Sink &sink)
    {
        sink.begin(node.name, node.cpuNs, node.preFraction);
        for (const auto &child : node.children)
            emitOp(child, sink);
        for (const auto &launch : node.launches)
            sink.launch(launch.kernelName, launch.work, launch.isMemcpy);
        sink.end();
    }
};

/** @name Builder helpers
 * Convenience constructors used by the graph builders and tests.
 * @{ */

/** Leaf operator launching one kernel. */
OpNode makeKernelOp(std::string op_name, double cpu_ns,
                    std::string kernel_name, hw::KernelWork work);

/** Parent operator wrapping children. */
OpNode makeParentOp(std::string op_name, double cpu_ns,
                    std::vector<OpNode> children);

/** @} */

} // namespace skipsim::workload

#endif // SKIPSIM_WORKLOAD_OP_GRAPH_HH

/**
 * @file
 * Operator-graph builders: expand a ModelConfig into the ATen operator
 * tree and GPU kernel launch sequence a PyTorch forward pass executes,
 * under each execution mode (eager, FlashAttention2, torch.compile
 * variants). Kernel sequences follow the HuggingFace implementations:
 * e.g. GPT2's tanh-GELU expands into eight pointwise kernels and its
 * attention upcasts to fp32 around softmax, while BERT's softmax stays
 * in fp16 — details that drive both kernel counts (K_eager) and the
 * memory traffic that separates the platforms.
 *
 * Every pass, in every mode, runs one pipeline of operator sinks
 * (OpSink, op_graph.hh), in the order the simulator executes them:
 *  1. one emitter streams the eager (or FlashAttention2) pass;
 *  2. a decode step is a sequence-length-1 pass whose attention work
 *     the one decode rule (ContextPatch) resizes to the KV cache, per
 *     rank;
 *  3. a compile mode's stage (CompileSink) drops layout copies, fuses
 *     memory-bound runs and streams the compiled pass at the end;
 *  4. the caller's sink.
 * There are two kinds of entry point:
 *  - buildPrefillGraph() and buildDecodeStepGraph() end the pipeline
 *    in a tree sink that builds the OperatorGraph in place; SKIP, the
 *    fuzzer and the Kineto path read that tree;
 *  - emitPrefill() and emitDecodeStep() end it in any sink. A sink
 *    that keeps no names (the simulator's trace-free walk) gets kernel
 *    stems, so no shape or variant string is formatted, and no tree is
 *    built: sim::Simulator::wallNs(model, opts[, ctx]) prices a pass
 *    this way.
 * The emitter marks the encoder or decoder layer stack with
 * OpSink::repeat()/endRepeat(). The decode rule forwards the mark; the
 * compile stage and the tree sink keep the default and see every
 * layer. The trace-free walk may stream one layer and fold the others
 * in closed form (sim/runner.hh).
 */

#ifndef SKIPSIM_WORKLOAD_BUILDER_HH
#define SKIPSIM_WORKLOAD_BUILDER_HH

#include "workload/exec_mode.hh"
#include "workload/model_config.hh"
#include "workload/op_graph.hh"

namespace skipsim::workload
{

/** Parameters of one inference invocation. */
struct BuildOptions
{
    int batch = 1;
    int seqLen = 512;
    ExecMode mode = ExecMode::Eager;

    /**
     * Tensor-parallel degree (Megatron-style): attention heads and MLP
     * columns are sharded across this many GPUs, with one NCCL
     * all-reduce after the attention output and MLP down projections.
     * The built graph is ONE rank's view (all ranks are symmetric).
     * Requires heads, intermediate and vocab divisible by the degree,
     * and a platform with a peer GPU link (GpuModel::nvlinkGBs > 0).
     */
    int tensorParallel = 1;

    /**
     * Scale on framework CPU per-operator costs (1.0 = calibrated
     * PyTorch eager dispatch on the reference CPU). Exposed for
     * ablation studies.
     */
    double cpuCostScale = 1.0;
};

/** @name Framework CPU cost constants (reference CPU, ns)
 * Calibrated so BERT-base BS=1 prefill lands in the low-millisecond
 * range on the Intel reference platform, as measured eager-mode
 * HuggingFace inference does.
 * @{ */
constexpr double opParentCpuNs = 10000.0; ///< composite op (aten::linear)
constexpr double opLeafCpuNs = 7000.0;    ///< kernel-launching leaf op
constexpr double opViewCpuNs = 3000.0;    ///< metadata-only op
constexpr double opCompiledCpuNs = 2200.0; ///< per-launch cost, compiled
/** @} */

/**
 * Build the prefill (TTFT) forward-pass graph.
 * @param model architecture descriptor.
 * @param opts batch/sequence/mode.
 * @throws skipsim::FatalError on non-positive batch or sequence.
 */
OperatorGraph buildPrefillGraph(const ModelConfig &model,
                                const BuildOptions &opts);

/**
 * Build a single autoregressive decode step with a KV cache holding
 * @p context_len tokens (extension beyond the paper's prefill-only
 * evaluation). Under tensor parallelism the attention over the cache
 * covers this rank's heads only, as in the prefill.
 * @throws skipsim::FatalError on non-positive @p context_len, and on
 *         the options buildPrefillGraph() rejects; every message names
 *         buildDecodeStepGraph.
 */
OperatorGraph buildDecodeStepGraph(const ModelConfig &model,
                                   const BuildOptions &opts,
                                   int context_len);

/**
 * Stream the prefill pass into @p sink: the operators
 * buildPrefillGraph() would build, in the same order with the same
 * costs and work. A sink that keeps no names gets kernel stems.
 * @throws skipsim::FatalError as buildPrefillGraph().
 */
void emitPrefill(const ModelConfig &model, const BuildOptions &opts,
                 OpSink &sink);

/**
 * Stream a decode step into @p sink, as emitPrefill() does for the
 * prefill.
 * @throws skipsim::FatalError as buildDecodeStepGraph().
 */
void emitDecodeStep(const ModelConfig &model, const BuildOptions &opts,
                    int context_len, OpSink &sink);

/**
 * Build the nullKernel microbenchmark graph: @p count back-to-back
 * empty-kernel launches (paper Sec. V-A / Table V).
 */
OperatorGraph buildNullKernelGraph(int count);

} // namespace skipsim::workload

#endif // SKIPSIM_WORKLOAD_BUILDER_HH

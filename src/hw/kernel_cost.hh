/**
 * @file
 * Kernel work descriptors and the roofline-style duration model.
 *
 * Each GPU kernel is characterized by its class, floating-point work and
 * device-memory traffic. Duration on a given GPU is
 *
 *     max(min_kernel_ns, compute_ns, memory_ns)
 *
 * with GEMM efficiency saturating in per-kernel work (small GEMMs cannot
 * fill the machine). Fused kernels carry multiple work components and
 * take the sum of component durations: fusion saves *launches*, not
 * execution time, exactly the assumption the paper makes (Sec. II-C:
 * "This work analyzes kernel fusion benefits solely through reduced
 * kernel launch counts").
 */

#ifndef SKIPSIM_HW_KERNEL_COST_HH
#define SKIPSIM_HW_KERNEL_COST_HH

#include <span>
#include <string>
#include <vector>

namespace skipsim::hw
{

/** Broad kernel families with distinct cost behaviour. */
enum class KernelClass
{
    Gemm,        ///< dense matrix multiply (compute-bound at scale)
    Attention,   ///< fused flash-attention style kernel
    Softmax,     ///< row softmax (memory-bound)
    Norm,        ///< layer/rms norm (memory-bound)
    Elementwise, ///< add/mul/gelu/silu/copy-like pointwise ops
    Reduction,   ///< reductions (memory-bound)
    Copy,        ///< device-side copies / transposes
    Embedding,   ///< gather from embedding tables
    Memcpy,      ///< host<->device transfer over the interconnect
    Collective,  ///< GPU-GPU collective (NCCL all-reduce/all-gather)
    Null,        ///< empty kernel (launch-overhead microbenchmark)
    Graph,       ///< captured CUDA-graph replay (fused whole graph)
};

/** @return a stable lowercase name for a kernel class. */
const char *kernelClassName(KernelClass cls);

/** One unit of GPU work: class plus FLOP and byte counts. */
struct KernelWork
{
    KernelClass cls = KernelClass::Elementwise;
    double flops = 0.0;
    double bytes = 0.0;

    /**
     * GEMM output rows (M = batch * sequence for transformer GEMMs);
     * 0 means unknown. Small-M GEMMs achieve lower occupancy even at
     * equal FLOP counts, which the efficiency model accounts for.
     */
    double rows = 0.0;
};

/** Forward declaration; defined in platform.hh. */
struct GpuModel;

/**
 * Duration of a single work component on a GPU, in ns.
 * @see file header for the model.
 */
double kernelDurationNs(const GpuModel &gpu, const KernelWork &work);

/**
 * Duration of a (possibly fused) kernel: the sum of its components'
 * durations. An empty component list costs the GPU's minimum kernel
 * duration (a null kernel).
 */
double kernelDurationNs(const GpuModel &gpu,
                        std::span<const KernelWork> work);

inline double
kernelDurationNs(const GpuModel &gpu, const std::vector<KernelWork> &work)
{
    return kernelDurationNs(gpu, std::span<const KernelWork>(work));
}

/**
 * GEMM efficiency achieved at a given per-kernel FLOP count and output
 * row count:
 *
 *     max_eff * w/(w + half_work) * m/(m + half_rows)
 *
 * (the row factor is 1 when rows are unknown). Exposed for tests and
 * ablations.
 */
double gemmEfficiency(const GpuModel &gpu, double flops, double rows = 0.0);

} // namespace skipsim::hw

#endif // SKIPSIM_HW_KERNEL_COST_HH

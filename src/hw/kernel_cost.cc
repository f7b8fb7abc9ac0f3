#include "hw/kernel_cost.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hw/platform.hh"

namespace skipsim::hw
{

const char *
kernelClassName(KernelClass cls)
{
    switch (cls) {
      case KernelClass::Gemm: return "gemm";
      case KernelClass::Attention: return "attention";
      case KernelClass::Softmax: return "softmax";
      case KernelClass::Norm: return "norm";
      case KernelClass::Elementwise: return "elementwise";
      case KernelClass::Reduction: return "reduction";
      case KernelClass::Copy: return "copy";
      case KernelClass::Embedding: return "embedding";
      case KernelClass::Memcpy: return "memcpy";
      case KernelClass::Collective: return "collective";
      case KernelClass::Null: return "null";
      case KernelClass::Graph: return "graph";
    }
    panic("kernelClassName: invalid KernelClass");
}

double
gemmEfficiency(const GpuModel &gpu, double flops, double rows)
{
    if (flops <= 0.0)
        return gpu.maxGemmEff;
    double eff = gpu.maxGemmEff * flops / (flops + gpu.gemmHalfWorkFlops);
    if (rows > 0.0) {
        // Floor the occupancy factor: even single-row (decode) GEMMs
        // retain a small fraction of peak; below it the memory side of
        // the roofline governs, as it does on real hardware.
        eff *= std::max(0.05, rows / (rows + gpu.gemmHalfRows));
    }
    return eff;
}

namespace
{

// Non-GEMM compute efficiency: pointwise/softmax kernels use the CUDA
// cores, not tensor cores; they reach only a small fraction of FP16
// tensor peak. Their cost is almost always memory-bound anyway.
constexpr double nonGemmComputeEff = 0.02;

} // namespace

double
kernelDurationNs(const GpuModel &gpu, const KernelWork &work)
{
    if (gpu.fp16Tflops <= 0.0 || gpu.memBwGBs <= 0.0)
        fatal("kernelDurationNs: GPU with non-positive peak rates");

    // flop/ns at peak: TFLOP/s * 1e12 / 1e9 = TFLOPs * 1e3.
    const double peak_flop_per_ns = gpu.fp16Tflops * 1e3;
    // bytes/ns: GB/s * 1e9 / 1e9 = GB/s numerically.
    const double peak_bytes_per_ns = gpu.memBwGBs;

    // Collectives move bytes over the GPU-GPU fabric, not HBM.
    if (work.cls == KernelClass::Collective) {
        if (gpu.nvlinkGBs <= 0.0)
            fatal("kernelDurationNs: collective kernel on a GPU with no "
                  "peer link (nvlinkGBs = 0) - tensor parallelism is "
                  "not available on this platform");
        return std::max(gpu.minKernelNs, work.bytes / gpu.nvlinkGBs);
    }

    double eff;
    switch (work.cls) {
      case KernelClass::Gemm:
      case KernelClass::Attention:
      case KernelClass::Graph:
        eff = gemmEfficiency(gpu, work.flops, work.rows);
        break;
      default:
        eff = nonGemmComputeEff;
        break;
    }

    double compute_ns =
        work.flops > 0.0 ? work.flops / (peak_flop_per_ns * eff) : 0.0;
    double memory_ns =
        work.bytes > 0.0
            ? work.bytes / (peak_bytes_per_ns * gpu.memEff)
            : 0.0;

    return std::max(gpu.minKernelNs, std::max(compute_ns, memory_ns));
}

double
kernelDurationNs(const GpuModel &gpu, std::span<const KernelWork> work)
{
    if (work.empty())
        return gpu.minKernelNs;
    double total = 0.0;
    for (const auto &w : work)
        total += kernelDurationNs(gpu, w);
    return total;
}

} // namespace skipsim::hw

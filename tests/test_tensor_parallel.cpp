/**
 * @file
 * Tests for tensor-parallel graph construction and its simulated
 * behaviour: per-rank work sharding, collective insertion, platform
 * link requirements, and the emergent deepening of the CPU-bound
 * region under TP.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "sim/simulator.hh"
#include "skip/profile.hh"
#include "workload/builder.hh"

namespace skipsim::workload
{
namespace
{

OperatorGraph
llamaGraph(int tp, int batch = 1)
{
    BuildOptions opts;
    opts.batch = batch;
    opts.tensorParallel = tp;
    return buildPrefillGraph(llama32_1b(), opts);
}

TEST(TensorParallel, DegreeOneIsIdentity)
{
    OperatorGraph tp1 = llamaGraph(1);
    BuildOptions opts;
    OperatorGraph base = buildPrefillGraph(llama32_1b(), opts);
    EXPECT_EQ(tp1.numKernelLaunches(), base.numKernelLaunches());
    EXPECT_DOUBLE_EQ(tp1.totalFlops(), base.totalFlops());
    EXPECT_EQ(tp1.kernelSequence(), base.kernelSequence());
}

TEST(TensorParallel, AddsCollectivesPerLayer)
{
    OperatorGraph tp4 = llamaGraph(4);
    std::size_t all_reduce = 0;
    std::size_t all_gather = 0;
    for (const auto &name : tp4.kernelSequence()) {
        if (name == "nccl_all_reduce_f16")
            ++all_reduce;
        if (name == "nccl_all_gather_f16")
            ++all_gather;
    }
    EXPECT_EQ(all_reduce, 2u * 16u); // attention + MLP per layer
    EXPECT_EQ(all_gather, 1u);       // lm head
    EXPECT_EQ(tp4.numKernelLaunches(),
              llamaGraph(1).numKernelLaunches() + 33u);
}

TEST(TensorParallel, ShardsGpuWork)
{
    double flops1 = llamaGraph(1).totalFlops();
    double flops4 = llamaGraph(4).totalFlops();
    // Per-rank GEMM work shrinks toward 1/4 (collectives add a little
    // and grouped KV replication keeps K/V projections whole).
    EXPECT_LT(flops4, 0.45 * flops1);
    EXPECT_GT(flops4, 0.2 * flops1);
}

/** Summed {flops, bytes} of a graph's launches whose kernel name
 *  contains @p stem. */
std::pair<double, double>
workOf(const OperatorGraph &graph, const std::string &stem)
{
    std::pair<double, double> total{0.0, 0.0};
    graph.forEachLaunch([&](const KernelLaunch &launch) {
        if (contains(launch.kernelName, stem)) {
            total.first += launch.totalFlops();
            total.second += launch.totalBytes();
        }
    });
    return total;
}

TEST(TensorParallel, ShardsDecodeAttentionOverTheContext)
{
    // A decode step's attention runs over the KV cache on this rank's
    // heads only, as the prefill's does: half the heads at degree 2,
    // so half the bmm, softmax and flash work over the context.
    auto decode = [](int tp, ExecMode mode) {
        BuildOptions opts;
        opts.batch = 4;
        opts.tensorParallel = tp;
        opts.mode = mode;
        return buildDecodeStepGraph(llama32_1b(), opts, 512);
    };
    const OperatorGraph eager1 = decode(1, ExecMode::Eager);
    const OperatorGraph eager2 = decode(2, ExecMode::Eager);
    for (const char *stem : {"bmm_f16_", "softmax_"}) {
        auto [flops1, bytes1] = workOf(eager1, stem);
        auto [flops2, bytes2] = workOf(eager2, stem);
        EXPECT_GT(flops1, 0.0) << stem;
        EXPECT_DOUBLE_EQ(flops2, 0.5 * flops1) << stem;
        EXPECT_DOUBLE_EQ(bytes2, 0.5 * bytes1) << stem;
    }
    auto [flash_flops1, flash_bytes1] =
        workOf(decode(1, ExecMode::FlashAttention2), "flash_fwd_");
    auto [flash_flops2, flash_bytes2] =
        workOf(decode(2, ExecMode::FlashAttention2), "flash_fwd_");
    EXPECT_GT(flash_flops1, 0.0);
    EXPECT_DOUBLE_EQ(flash_flops2, 0.5 * flash_flops1);
    EXPECT_DOUBLE_EQ(flash_bytes2, 0.5 * flash_bytes1);
}

TEST(TensorParallel, CpuWorkDoesNotShrink)
{
    // Every rank still dispatches the full operator stream — the heart
    // of the TP-vs-CPU-boundedness interaction.
    double cpu1 = llamaGraph(1).totalCpuNs();
    double cpu4 = llamaGraph(4).totalCpuNs();
    EXPECT_GT(cpu4, cpu1);
}

TEST(TensorParallel, InvalidDegreesThrow)
{
    BuildOptions opts;
    opts.tensorParallel = 0;
    EXPECT_THROW(buildPrefillGraph(llama32_1b(), opts), FatalError);
    opts.tensorParallel = 3; // 32 heads % 3 != 0
    EXPECT_THROW(buildPrefillGraph(llama32_1b(), opts), FatalError);
    opts.tensorParallel = 64; // exceeds head count
    EXPECT_THROW(buildPrefillGraph(llama32_1b(), opts), FatalError);
}

TEST(TensorParallel, CollectiveNeedsPeerLink)
{
    OperatorGraph tp2 = llamaGraph(2);
    hw::Platform no_link = hw::platforms::gh200();
    no_link.gpu.nvlinkGBs = 0.0;
    sim::Simulator simulator(no_link);
    EXPECT_THROW(simulator.run(tp2), FatalError);

    sim::Simulator ok(hw::platforms::gh200());
    EXPECT_NO_THROW(ok.run(tp2));
}

TEST(TensorParallel, SpeedsUpGpuBoundPrefill)
{
    // Llama BS=8 is GPU-bound on GH200: TP=4 must cut latency, though
    // sublinearly (collectives + unsharded work).
    sim::SimOptions opts;
    opts.jitter = false;
    sim::Simulator simulator(hw::platforms::gh200(), opts);
    double t1 = simulator.run(llamaGraph(1, 8)).wallNs;
    double t4 = simulator.run(llamaGraph(4, 8)).wallNs;
    EXPECT_LT(t4, t1);
    EXPECT_GT(t4, t1 / 4.0);
}

TEST(TensorParallel, DeepensCpuBoundRegion)
{
    // Sharding shrinks GPU time but not dispatch: at BS=1 the TP=4
    // run is more CPU-bound (higher GPU idle share) than TP=1.
    auto idle_share = [](int tp) {
        BuildOptions opts;
        opts.tensorParallel = tp;
        OperatorGraph graph = buildPrefillGraph(llama32_1b(), opts);
        sim::Simulator simulator(hw::platforms::gh200());
        sim::SimResult result = simulator.run(graph);
        skip::MetricsReport metrics = skip::computeMetrics(
            skip::DependencyGraph::build(std::move(result.trace)));
        return metrics.gpuIdleNs / metrics.ilNs;
    };
    EXPECT_GT(idle_share(4), idle_share(1));
}

TEST(TensorParallel, SlowLinkHurtsCollectives)
{
    // Intel+H100's PCIe peer link (100 GB/s) makes TP collectives far
    // more expensive than GH200's NVLink fabric.
    OperatorGraph tp4 = llamaGraph(4, 8);
    sim::SimOptions opts;
    opts.jitter = false;

    auto collective_time = [&](const hw::Platform &platform) {
        sim::Simulator simulator(platform, opts);
        sim::SimResult result = simulator.run(tp4);
        double total = 0.0;
        for (const auto &ev : result.trace.events()) {
            if (ev.kind == trace::EventKind::Kernel &&
                startsWith(ev.name, "nccl_")) {
                total += static_cast<double>(ev.durNs);
            }
        }
        return total;
    };
    EXPECT_GT(collective_time(hw::platforms::intelH100()),
              3.0 * collective_time(hw::platforms::gh200()));
}

} // namespace
} // namespace skipsim::workload

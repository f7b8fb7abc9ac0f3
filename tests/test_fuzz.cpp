/**
 * @file
 * Randomized property tests: draw pseudo-random operator graphs from
 * the skipsim::check fuzz generator and verify simulator/analyzer
 * invariants hold for every one of them — trace validity, metric
 * identities, flatten/round-trip equivalence, chain-mining accounting
 * and Chrome-trace round trips.
 */

#include <gtest/gtest.h>

#include "check/fuzzer.hh"
#include "fusion/proximity.hh"
#include "hw/catalog.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "trace/chrome.hh"
#include "workload/flatten.hh"
#include "workload/op_graph.hh"

namespace skipsim
{
namespace
{

/**
 * Draw a random operator graph from the shared check::Fuzzer
 * generator (these tests predate it and used to keep their own copy).
 * The generator mixes engine kinds, so scan indices for the first
 * sim-kind case of this campaign seed; ~70% are sim cases, making a
 * 64-index scan effectively infallible.
 */
workload::OperatorGraph
randomGraph(std::uint64_t seed)
{
    check::FuzzOptions opts;
    opts.seed = seed;
    check::Fuzzer fuzzer(opts);
    for (std::uint64_t i = 0; i < 64; ++i) {
        check::FuzzCase c = fuzzer.generate(i);
        if (c.kind == check::FuzzKind::Sim)
            return c.graph;
    }
    ADD_FAILURE() << "no sim-kind fuzz case in 64 draws (seed "
                  << seed << ")";
    return {};
}

class FuzzGraphs : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzGraphs, SimulatedTraceIsAlwaysValid)
{
    workload::OperatorGraph graph = randomGraph(GetParam());
    for (const auto &platform :
         {hw::platforms::intelH100(), hw::platforms::gh200()}) {
        sim::Simulator simulator(platform);
        sim::SimResult result = simulator.run(graph);
        EXPECT_TRUE(result.trace.validate().empty());
        EXPECT_GE(result.wallNs, 0.0);
        EXPECT_EQ(result.trace.countOf(trace::EventKind::Kernel),
                  graph.numKernelLaunches());
    }
}

TEST_P(FuzzGraphs, MetricIdentitiesHold)
{
    workload::OperatorGraph graph = randomGraph(GetParam());
    sim::Simulator simulator(hw::platforms::amdA100());
    sim::SimResult result = simulator.run(graph);
    skip::MetricsReport metrics = skip::computeMetrics(
        skip::DependencyGraph::build(std::move(result.trace)));

    if (metrics.numKernels == 0)
        return;
    EXPECT_NEAR(metrics.gpuBusyNs + metrics.gpuIdleNs, metrics.ilNs,
                1.0);
    EXPECT_GE(metrics.tklqtNs, metrics.tklqtQueueNs);
    EXPECT_GE(metrics.cpuBusyNs, 0.0);
    EXPECT_LE(metrics.cpuBusyNs, metrics.ilNs + 1.0);
    EXPECT_NEAR(metrics.avgLaunchNs * metrics.numKernels,
                metrics.tklqtNs, 1.0);
    std::size_t by_kernel_total = 0;
    for (const auto &stat : metrics.byKernel)
        by_kernel_total += stat.count;
    EXPECT_EQ(by_kernel_total, metrics.numKernels);
}

TEST_P(FuzzGraphs, FlattenPreservesSimulation)
{
    workload::OperatorGraph graph = randomGraph(GetParam());
    workload::OperatorGraph flat =
        workload::timelineToGraph(workload::flattenGraph(graph));

    sim::SimOptions opts;
    opts.jitter = false;
    sim::Simulator simulator(hw::platforms::gh200(), opts);
    sim::SimResult a = simulator.run(graph);
    sim::SimResult b = simulator.run(flat);
    auto ka = a.trace.ofKind(trace::EventKind::Kernel);
    auto kb = b.trace.ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(ka.size(), kb.size());
    for (std::size_t i = 0; i < ka.size(); ++i) {
        // Merging CPU segments rounds once where the tree rounds
        // twice, so timestamps may drift by a few ns over the run.
        EXPECT_NEAR(static_cast<double>(ka[i].tsBeginNs),
                    static_cast<double>(kb[i].tsBeginNs), 100.0);
        EXPECT_EQ(ka[i].durNs, kb[i].durNs);
        EXPECT_EQ(ka[i].name, kb[i].name);
    }
}

TEST_P(FuzzGraphs, ChromeRoundTripLossless)
{
    workload::OperatorGraph graph = randomGraph(GetParam());
    sim::Simulator simulator(hw::platforms::intelH100());
    sim::SimResult result = simulator.run(graph);

    trace::Trace reloaded =
        trace::fromChromeText(trace::toChromeText(result.trace));
    ASSERT_EQ(reloaded.size(), result.trace.size());
    skip::MetricsReport a = skip::computeMetrics(
        skip::DependencyGraph::build(result.trace));
    skip::MetricsReport b = skip::computeMetrics(
        skip::DependencyGraph::build(std::move(reloaded)));
    EXPECT_DOUBLE_EQ(a.tklqtNs, b.tklqtNs);
    EXPECT_DOUBLE_EQ(a.ilNs, b.ilNs);
}

TEST_P(FuzzGraphs, ChainMiningInvariants)
{
    workload::OperatorGraph graph = randomGraph(GetParam());
    fusion::ProximityAnalyzer analyzer(graph.kernelSequence());
    for (std::size_t length : {std::size_t(2), std::size_t(5)}) {
        if (analyzer.sequenceLength() < length)
            continue;
        fusion::ChainStats stats = analyzer.analyze(length);
        EXPECT_EQ(stats.totalInstances,
                  analyzer.sequenceLength() - length + 1);
        EXPECT_LE(stats.deterministicChains, stats.uniqueChains);
        EXPECT_EQ(stats.kFused,
                  stats.kEager - stats.fusedChains * (length - 1));
        EXPECT_GE(stats.idealSpeedup, 1.0);
        for (const auto &cand : analyzer.candidates(length, 1.0)) {
            EXPECT_DOUBLE_EQ(analyzer.proximityScore(cand.kernels),
                             1.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzGraphs,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89, 144, 233));

} // namespace
} // namespace skipsim

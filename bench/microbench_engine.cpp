/**
 * @file
 * google-benchmark microbenchmarks of the library itself: graph
 * building, simulation, dependency-graph construction, metric
 * computation and chain mining — plus ablations of the design choices
 * called out in DESIGN.md (jitter on/off, greedy chain selection cost
 * vs chain length).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.hh"
#include "cluster/cluster.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "core/event_queue.hh"
#include "fusion/proximity.hh"
#include "hw/catalog.hh"
#include "obs/span.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

workload::OperatorGraph
gpt2Graph(int batch)
{
    workload::BuildOptions opts;
    opts.batch = batch;
    return workload::buildPrefillGraph(workload::gpt2(), opts);
}

void
BM_BuildPrefillGraph(benchmark::State &state)
{
    workload::BuildOptions opts;
    opts.batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto graph =
            workload::buildPrefillGraph(workload::llama32_1b(), opts);
        benchmark::DoNotOptimize(graph.numKernelLaunches());
    }
}
BENCHMARK(BM_BuildPrefillGraph)->Arg(1)->Arg(16);

void
BM_SimulateForward(benchmark::State &state)
{
    auto graph = gpt2Graph(static_cast<int>(state.range(0)));
    sim::Simulator simulator(hw::platforms::gh200());
    for (auto _ : state) {
        auto result = simulator.run(graph);
        benchmark::DoNotOptimize(result.wallNs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numKernelLaunches()));
}
BENCHMARK(BM_SimulateForward)->Arg(1)->Arg(32);

void
BM_SimulateNoJitterAblation(benchmark::State &state)
{
    // Ablation: deterministic mode (jitter off, the default) vs jittered.
    auto graph = gpt2Graph(1);
    sim::SimOptions opts;
    opts.jitter = state.range(0) != 0;
    sim::Simulator simulator(hw::platforms::intelH100(), opts);
    for (auto _ : state) {
        auto result = simulator.run(graph);
        benchmark::DoNotOptimize(result.wallNs);
    }
}
BENCHMARK(BM_SimulateNoJitterAblation)->Arg(0)->Arg(1);

/**
 * A Kineto-shaped trace of at least `events` events: back-to-back
 * copies of one simulated GPT2 step, timestamps and correlation ids
 * offset, written track by track (CPU operators, runtime calls, then
 * each GPU stream) as Kineto exports are. Ids therefore end out of time
 * order once the trace is sorted, as on a real profiler file.
 */
trace::Trace
kinetoShapedTrace(std::size_t events)
{
    trace::Trace step =
        sim::Simulator(hw::platforms::intelH100()).run(gpt2Graph(1)).trace;
    std::vector<trace::TraceEvent> all;
    std::int64_t offset_ns = 0;
    std::uint64_t corr_offset = 0;
    while (all.size() < events) {
        std::uint64_t max_corr = 0;
        for (trace::TraceEvent event : step.events()) {
            max_corr = std::max(max_corr, event.correlationId);
            event.tsBeginNs += offset_ns;
            if (event.correlationId != 0)
                event.correlationId += corr_offset;
            all.push_back(std::move(event));
        }
        offset_ns += step.endNs() + 1000;
        corr_offset += max_corr;
    }
    auto track = [](const trace::TraceEvent &event) {
        return std::make_tuple(
            event.onGpu() ? 2 : event.kind == trace::EventKind::Runtime,
            event.onGpu() ? event.streamId : event.tid, event.tsBeginNs);
    };
    std::stable_sort(all.begin(), all.end(),
                     [&](const trace::TraceEvent &a,
                         const trace::TraceEvent &b) {
                         return track(a) < track(b);
                     });
    trace::Trace out;
    for (trace::TraceEvent &event : all)
        out.add(std::move(event));
    return out;
}

void
BM_DependencyGraphBuild(benchmark::State &state)
{
    // The build is a radix time sort plus linear passes, so ns/event
    // (the inverse of items_per_second) stays flat while the trace fits
    // in cache. The 1M row adds the cost of a DRAM-bound working set.
    trace::Trace kineto =
        kinetoShapedTrace(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        state.PauseTiming();
        trace::Trace copy = kineto;
        state.ResumeTiming();
        auto dep = skip::DependencyGraph::build(std::move(copy));
        benchmark::DoNotOptimize(dep.kernels().size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kineto.size()));
    state.counters["events"] = static_cast<double>(kineto.size());
}
BENCHMARK(BM_DependencyGraphBuild)
    ->Arg(8 << 10)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void
BM_ComputeMetrics(benchmark::State &state)
{
    auto graph = gpt2Graph(1);
    sim::Simulator simulator(hw::platforms::intelH100());
    auto result = simulator.run(graph);
    auto dep = skip::DependencyGraph::build(result.trace);
    for (auto _ : state) {
        auto metrics = skip::computeMetrics(dep);
        benchmark::DoNotOptimize(metrics.tklqtNs);
    }
}
BENCHMARK(BM_ComputeMetrics);

void
BM_ChainMining(benchmark::State &state)
{
    auto graph = gpt2Graph(1);
    fusion::ProximityAnalyzer analyzer(graph.kernelSequence());
    std::size_t length = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto stats = analyzer.analyze(length);
        benchmark::DoNotOptimize(stats.idealSpeedup);
    }
}
BENCHMARK(BM_ChainMining)->Arg(2)->Arg(16)->Arg(256);

void
BM_EndToEndProfile(benchmark::State &state)
{
    for (auto _ : state) {
        auto graph = gpt2Graph(4);
        sim::Simulator simulator(hw::platforms::gh200());
        auto result = simulator.run(graph);
        auto dep = skip::DependencyGraph::build(std::move(result.trace));
        auto metrics = skip::computeMetrics(dep);
        benchmark::DoNotOptimize(metrics.ilNs);
    }
}
BENCHMARK(BM_EndToEndProfile);

void
BM_ValidateTrace(benchmark::State &state)
{
    // Cost of the full semantic invariant sweep (causality, stream
    // FIFO, correlation bijection, queue depth) over a real prefill
    // trace — the price every golden test and fuzz case now pays.
    auto graph = gpt2Graph(static_cast<int>(state.range(0)));
    sim::Simulator simulator(hw::platforms::gh200());
    auto result = simulator.run(graph);
    for (auto _ : state) {
        auto report = check::validateTrace(result.trace);
        benchmark::DoNotOptimize(report.violations.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_ValidateTrace)->Arg(1)->Arg(32);

void
BM_EventQueueThroughput(benchmark::State &state)
{
    // Throughput of the core event queue every simulation path now
    // runs on: push N events with random timestamps and mixed
    // priorities, then drain. Timestamps are pre-generated so the
    // measurement is the heap, not the PRNG.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(42);
    std::vector<double> times(n);
    std::vector<int> prios(n);
    for (std::size_t i = 0; i < n; ++i) {
        times[i] = rng.uniform(0.0, 1e9);
        prios[i] = static_cast<int>(rng.below(4));
    }
    for (auto _ : state) {
        core::EventQueue queue;
        for (std::size_t i = 0; i < n; ++i)
            queue.schedule(times[i], prios[i], nullptr);
        while (!queue.empty()) {
            core::Event ev = queue.pop();
            benchmark::DoNotOptimize(ev.timeNs);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueThroughput)
    ->Arg(1 << 14)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineEventChurn(benchmark::State &state)
{
    // Engine run-loop overhead under self-rescheduling handlers — the
    // access pattern of the ported serving/cluster engines (each
    // iteration-end event schedules the next).
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        core::Engine engine;
        int remaining = n;
        std::function<void(double)> step = [&](double) {
            if (--remaining > 0)
                engine.after(1.0, 0, step);
        };
        engine.at(0.0, 0, step);
        engine.run();
        benchmark::DoNotOptimize(engine.processed());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EngineEventChurn)->Arg(1 << 16);

void
BM_ClusterSpanOverhead(benchmark::State &state)
{
    // Cost of per-request lifecycle span recording (obs::SpanLog) on
    // a full cluster simulation: Arg(0) = spans disabled (the price
    // every plain run pays, which must stay ~free), Arg(1) = spans
    // recorded and sealed. CI compares the two rows to bound the
    // disabled-path overhead.
    cluster::ClusterSpec spec;
    spec.model = workload::modelByName("GPT2");
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::gh200();
    replica.maxActive = 16;
    spec.replicas.assign(2, replica);
    spec.arrivalRatePerSec = 80.0;
    spec.horizonSec = 2.0;
    spec.promptLen = 128;
    spec.genTokens = 8;
    spec.sessions = 16;
    cluster::CostCache costs;
    costs.build(spec);
    const bool with_spans = state.range(0) != 0;
    std::size_t sealed = 0;
    for (auto _ : state) {
        obs::SpanLog spans;
        auto result = cluster::simulateCluster(
            spec, costs, nullptr, with_spans ? &spans : nullptr);
        benchmark::DoNotOptimize(result.completed);
        sealed = spans.spans().size();
        benchmark::DoNotOptimize(sealed);
    }
    state.counters["spans"] = static_cast<double>(sealed);
}
BENCHMARK(BM_ClusterSpanOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

// google-benchmark rejects flags it does not recognize, so a custom
// main translates the repo-wide --quick convention (see the ext_*
// drivers) into a filter + short measurement budget for CI: the
// event-queue, span-overhead and 8K/64K dependency-graph rows, enough
// to catch gross regressions (the 1M-event row is left to full runs).
int
main(int argc, char **argv)
{
    std::vector<char *> args;
    bool quick = false;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            args.push_back(argv[i]);
    }
    static std::string filter =
        "--benchmark_filter=BM_EventQueueThroughput|"
        "BM_ClusterSpanOverhead|"
        "BM_DependencyGraphBuild/(8192|65536)$";
    static std::string min_time = "--benchmark_min_time=0.05";
    if (quick) {
        args.push_back(filter.data());
        args.push_back(min_time.data());
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

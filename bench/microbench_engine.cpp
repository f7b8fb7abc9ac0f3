/**
 * @file
 * google-benchmark microbenchmarks of the library itself: graph
 * building, simulation, dependency-graph construction, metric
 * computation and chain mining — plus ablations of the design choices
 * called out in DESIGN.md (jitter on/off, greedy chain selection cost
 * vs chain length). Global operator new/delete are replaced here so
 * that the Chrome-ingest rows can report the peak heap one ingest
 * holds; outside those windows they only forward to malloc/free.
 */

#include <benchmark/benchmark.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "check/closure_queue.hh"
#include "check/invariants.hh"
#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "core/event_queue.hh"
#include "fusion/proximity.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "obs/span.hh"
#include "serving/continuous.hh"
#include "sim/simulator.hh"
#include "trace/chrome.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

/** Heap bytes held by operator new, and their peak, while counting. */
std::atomic<bool> g_heapCounting{false};
std::atomic<long long> g_heapLive{0};
std::atomic<long long> g_heapPeak{0};

/**
 * Counts the heap while it lives: the bytes operator new hands out
 * and operator delete takes back, from zero at construction. Frees of
 * memory allocated before it started count too, so peak() can fall
 * short of the true figure by what those frees returned.
 */
class HeapWindow
{
  public:
    HeapWindow()
    {
        g_heapLive = 0;
        g_heapPeak = 0;
        g_heapCounting = true;
    }
    ~HeapWindow() { g_heapCounting = false; }
    HeapWindow(const HeapWindow &) = delete;
    HeapWindow &operator=(const HeapWindow &) = delete;

    std::size_t peak() const
    {
        return static_cast<std::size_t>(std::max(0LL, g_heapPeak.load()));
    }
};

} // namespace

void *
operator new(std::size_t size)
{
    void *p = std::malloc(size == 0 ? 1 : size);
    if (!p)
        throw std::bad_alloc();
    if (g_heapCounting.load(std::memory_order_relaxed)) {
        const long long live =
            g_heapLive += static_cast<long long>(malloc_usable_size(p));
        if (live > g_heapPeak.load(std::memory_order_relaxed))
            g_heapPeak = live;
    }
    return p;
}

void
operator delete(void *p) noexcept
{
    if (p && g_heapCounting.load(std::memory_order_relaxed))
        g_heapLive -= static_cast<long long>(malloc_usable_size(p));
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

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
BM_SimulateWallOnly(benchmark::State &state)
{
    // BM_SimulateForward's twin on the trace-free walk: same graph,
    // same draws, no trace recorded.
    auto graph = gpt2Graph(static_cast<int>(state.range(0)));
    sim::Simulator simulator(hw::platforms::gh200());
    for (auto _ : state)
        benchmark::DoNotOptimize(simulator.wallNs(graph));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numKernelLaunches()));
}
BENCHMARK(BM_SimulateWallOnly)->Arg(1)->Arg(32);

void
BM_IterationCostModel(benchmark::State &state,
                      const workload::ModelConfig &model)
{
    // The cluster workloads' cost model on GH200 at a 128-token prompt,
    // 14 grid points priced per construction: GPT2 (12 layers, the
    // cluster workloads' model) and Llama-2-7B (32 layers).
    const hw::Platform platform = hw::platforms::gh200();
    for (auto _ : state) {
        serving::IterationCostModel cost(model, platform, 128);
        benchmark::DoNotOptimize(cost.decodeNs(1));
    }
}
BENCHMARK_CAPTURE(BM_IterationCostModel, gpt2, workload::gpt2())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IterationCostModel, llama2_7b, workload::llama2_7b())
    ->Unit(benchmark::kMicrosecond);

void
BM_PriceGraphFree(benchmark::State &state, bool decode,
                  workload::ExecMode mode)
{
    // One batch-32 point of BM_IterationCostModel's grid, priced
    // graph-free: the builder's pipeline streams straight into the
    // trace-free walk, building no OperatorGraph. The compiled decode
    // step is the pass the speculative-decoding analysis prices.
    const workload::ModelConfig model = workload::gpt2();
    workload::BuildOptions opts;
    opts.batch = 32;
    opts.seqLen = 128;
    opts.mode = mode;
    sim::Simulator simulator(hw::platforms::gh200());
    for (auto _ : state)
        benchmark::DoNotOptimize(decode ? simulator.wallNs(model, opts, 128)
                                        : simulator.wallNs(model, opts));
}
BENCHMARK_CAPTURE(BM_PriceGraphFree, prefill, false,
                  workload::ExecMode::Eager);
BENCHMARK_CAPTURE(BM_PriceGraphFree, decode, true, workload::ExecMode::Eager);
BENCHMARK_CAPTURE(BM_PriceGraphFree, decode_reduce_overhead, true,
                  workload::ExecMode::CompileReduceOverhead);

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

/**
 * Time ingests of a Kineto-ordered export of state.range(0) events
 * by @p ingest, which returns the trace it read. Freeing the trace
 * (and whatever the ingest built) is part of each iteration. Reports
 * ns per event and the peak heap bytes one ingest holds.
 */
template <class Ingest>
void
chromeIngest(benchmark::State &state, Ingest &&ingest)
{
    const std::string text = trace::toChromeText(
        kinetoShapedTrace(static_cast<std::size_t>(state.range(0))));
    std::size_t events = 0;
    double ns = 0.0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        {
            trace::Trace ingested = ingest(text);
            events = ingested.size();
            benchmark::DoNotOptimize(events);
        }
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    }
    // One more ingest, untimed, with the heap counted.
    HeapWindow window;
    {
        trace::Trace ingested = ingest(text);
        benchmark::DoNotOptimize(ingested.size());
    }
    state.counters["peak_heap_mb"] =
        static_cast<double>(window.peak()) / (1024.0 * 1024.0);
    const double ingested = static_cast<double>(state.iterations()) *
        static_cast<double>(events);
    state.SetItemsProcessed(static_cast<std::int64_t>(ingested));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(text.size()));
    state.counters["events"] = static_cast<double>(events);
    state.counters["ns_per_event"] = ns / ingested;
}

void
BM_ChromeIngest(benchmark::State &state)
{
    // trace::fromChromeText of a Kineto-ordered export: the path
    // `skipctl analyze` takes on a profiler file, streamed from the
    // text with no document in between.
    chromeIngest(state, [](const std::string &text) {
        return trace::fromChromeText(text);
    });
}
BENCHMARK(BM_ChromeIngest)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void
BM_ChromeIngestDom(benchmark::State &state)
{
    // The same input through json::parse + trace::fromChromeJson, a
    // whole document first: the comparison row for BM_ChromeIngest.
    chromeIngest(state, [](const std::string &text) {
        return trace::fromChromeJson(json::parse(text));
    });
}
BENCHMARK(BM_ChromeIngestDom)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void
BM_SpanChromeRoundTrip(benchmark::State &state)
{
    // A recorded span log exported as Chrome-trace text and read back
    // (SpanLog::toChromeText, then obs::spansFromChromeText): the
    // `skipctl run --span-out` then `skipctl attribute` path.
    cluster::ClusterSpec spec;
    spec.model = workload::modelByName("GPT2");
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::gh200();
    replica.maxActive = 16;
    spec.replicas.assign(4, replica);
    spec.arrivalRatePerSec = 200.0;
    spec.horizonSec = 2.0;
    spec.promptLen = 128;
    spec.genTokens = 8;
    cluster::CostCache costs;
    costs.build(spec);
    obs::SpanLog spans;
    cluster::simulateCluster(spec, costs, nullptr, &spans);
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::string text = spans.toChromeText();
        obs::SpanFile file = obs::spansFromChromeText(text);
        bytes = text.size();
        benchmark::DoNotOptimize(file.spans.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(spans.spans().size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bytes));
    state.counters["spans"] = static_cast<double>(spans.spans().size());
}
BENCHMARK(BM_SpanChromeRoundTrip)->Unit(benchmark::kMillisecond);

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

/** Pre-generated push times and priorities, so the event-queue rows
 *  measure the heap, not the PRNG. */
struct QueueLoad
{
    std::vector<double> times;
    std::vector<int> prios;

    explicit QueueLoad(std::size_t n) : times(n), prios(n)
    {
        Rng rng(42);
        for (std::size_t i = 0; i < n; ++i) {
            times[i] = rng.uniform(0.0, 1e9);
            prios[i] = static_cast<int>(rng.below(4));
        }
    }
};

void
BM_EventQueueThroughput(benchmark::State &state)
{
    // Throughput of the core event queue every simulation path now
    // runs on: push N typed events with random timestamps and mixed
    // priorities, then drain.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const QueueLoad load(n);
    for (auto _ : state) {
        core::EventQueue queue;
        for (std::size_t i = 0; i < n; ++i)
            queue.schedule(load.times[i], load.prios[i], 0, 0, i);
        while (!queue.empty()) {
            core::Event ev = queue.pop();
            benchmark::DoNotOptimize(ev.payload);
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
BM_ClosureQueueThroughput(benchmark::State &state)
{
    // The same load on check::ClosureEventQueue, the std::function
    // heap the key heap replaced (kept as its differential oracle):
    // the comparison row for BM_EventQueueThroughput.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const QueueLoad load(n);
    for (auto _ : state) {
        check::ClosureEventQueue queue;
        for (std::size_t i = 0; i < n; ++i)
            queue.schedule(load.times[i], load.prios[i], nullptr);
        while (!queue.empty()) {
            check::ClosureEvent ev = queue.pop();
            benchmark::DoNotOptimize(ev.timeNs);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ClosureQueueThroughput)
    ->Arg(1 << 14)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineEventChurn(benchmark::State &state)
{
    // Engine run-loop overhead under self-rescheduling handlers — the
    // access pattern of the cluster's iteration ends (each one
    // schedules the replica's next).
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        core::Engine engine;
        int remaining = n;
        engine.at(0.0, 0, 0);
        engine.run([&](const core::Event &) {
            if (--remaining > 0)
                engine.at(engine.nowNs() + 1.0, 0, 0);
        });
        benchmark::DoNotOptimize(engine.processed());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EngineEventChurn)->Arg(1 << 16);

void
BM_EngineReplicaChurn(benchmark::State &state, bool slots)
{
    // The cluster's pending set at fleet size N: every replica keeps
    // one iteration end pending and schedules its next when it pops,
    // and one chained arrival stream runs beside them at half the
    // fleet's iteration rate (fleet_lor's mix). Iteration ends go
    // through Engine::at (the heap; the comparison row) or atSlot
    // (one keyed slot per replica). Durations come from a fixed Rng,
    // drawn before the timing.
    const auto n = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kEvents = 1 << 16;
    constexpr std::size_t kDraws = 4096;
    constexpr double kIterNs = 16e6;
    constexpr int kIterPriority = 3 << 20;
    constexpr int kArrivalPriority = 4 << 20;
    std::vector<double> iterNs(kDraws), gapNs(kDraws);
    Rng rng(36);
    for (std::size_t i = 0; i < kDraws; ++i) {
        iterNs[i] = rng.uniform(0.5 * kIterNs, 1.5 * kIterNs);
        gapNs[i] = rng.uniform(0.0, 4.0 * kIterNs / static_cast<double>(n));
    }
    std::uint64_t processed = 0;
    for (auto _ : state) {
        core::Engine engine(slots ? n : 0);
        std::size_t draw = 0;
        auto endIteration = [&](std::size_t r, double now) {
            const double t = now + iterNs[draw++ % kDraws];
            const int priority = kIterPriority + static_cast<int>(r);
            if (slots)
                engine.atSlot(r, t, priority, 0,
                              static_cast<std::uint32_t>(r));
            else
                engine.at(t, priority, 0, static_cast<std::uint32_t>(r));
        };
        for (std::size_t r = 0; r < n; ++r)
            endIteration(r, 0.0);
        engine.at(gapNs[0], kArrivalPriority, 1);
        std::size_t left = kEvents;
        engine.run([&](const core::Event &ev) {
            if (left == 0)
                return;
            --left;
            if (ev.kind == 0)
                endIteration(ev.target, ev.timeNs);
            else
                engine.at(ev.timeNs + gapNs[draw++ % kDraws],
                          kArrivalPriority, 1);
        });
        processed += engine.processed();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}
BENCHMARK_CAPTURE(BM_EngineReplicaChurn, heap, false)->Arg(16)->Arg(1024);
BENCHMARK_CAPTURE(BM_EngineReplicaChurn, slots, true)->Arg(16)->Arg(1024);

void
BM_RouterPick(benchmark::State &state)
{
    // One least-outstanding dispatch per iteration at fleet size N:
    // pick, onDispatch, and the onSettled of the request dispatched N
    // iterations earlier, so each replica holds about one request and
    // loads tie the way they do in a balanced fleet.
    const auto n = static_cast<std::size_t>(state.range(0));
    cluster::Router router(cluster::RouterPolicy::LeastOutstanding,
                           std::vector<double>(n, 1.0));
    std::vector<std::size_t> lagged(n, cluster::Router::npos());
    const std::vector<std::size_t> none;
    std::size_t slot = 0;
    for (auto _ : state) {
        if (lagged[slot] != cluster::Router::npos())
            router.onSettled(lagged[slot]);
        std::size_t replica = router.pick(0, none);
        router.onDispatch(replica);
        lagged[slot] = replica;
        slot = slot + 1 == n ? 0 : slot + 1;
        benchmark::DoNotOptimize(replica);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RouterPick)->Arg(16)->Arg(1024)->Arg(16384);

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
// event-queue, span-overhead, 1024-replica router-pick, 8K/64K
// dependency-graph, 64K Chrome-ingest (codec and document), span
// round-trip, traced and trace-free batch-32 simulation, serving
// cost-model and graph-free pricing rows, enough to catch gross
// regressions (the 1M-event and 16K-replica rows are left to full
// runs).
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
        "BM_ClosureQueueThroughput|"
        "BM_ClusterSpanOverhead|"
        "BM_RouterPick/1024$|"
        "BM_EngineReplicaChurn/(heap|slots)/1024$|"
        "BM_DependencyGraphBuild/(8192|65536)$|"
        "BM_ChromeIngest(Dom)?/65536$|"
        "BM_SpanChromeRoundTrip|"
        "BM_Simulate(Forward|WallOnly)/32$|"
        "BM_IterationCostModel|"
        "BM_PriceGraphFree";
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

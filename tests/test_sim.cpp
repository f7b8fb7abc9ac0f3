/**
 * @file
 * Unit tests for the discrete-event simulator: launch/queue timing
 * semantics (paper Fig. 4), determinism, memcpy handling on LC vs CC
 * platforms, trace well-formedness, the trace-free walk
 * (Simulator::wallNs) held to the traced run bit for bit, and the
 * graph-free walk (wallNs(model, opts[, ctx])) held to the walk of the
 * built tree bit for bit, with its layer stack folded in closed form
 * (1-200 layers, and hand-made layers), and the time-ordered recorder
 * of run() held to the append-then-sort recorder it replaced
 * (check::appendSortRun) field by field.
 */

#include <gtest/gtest.h>

#include <limits>

#include "check/append_recorder.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/op_graph.hh"

namespace skipsim::sim
{
namespace
{

using workload::KernelLaunch;
using workload::OpNode;
using workload::OperatorGraph;

/** A platform with round numbers for hand-checkable timing. */
hw::Platform
toyPlatform()
{
    hw::Platform p;
    p.name = "toy";
    p.coupling = hw::Coupling::LooselyCoupled;
    p.unifiedMemory = false;
    p.cpu.singleThreadScore = 1.0;
    p.cpu.launchOverheadNs = 2000.0;
    p.cpu.launchCpuNs = 1000.0;
    p.cpu.syncCallNs = 500.0;
    p.gpu.fp16Tflops = 1000.0;
    p.gpu.memBwGBs = 1000.0;
    p.gpu.minKernelNs = 1500.0;
    p.gpu.maxGemmEff = 0.5;
    p.gpu.gemmHalfWorkFlops = 1e9;
    p.gpu.gemmHalfRows = 1000.0;
    p.gpu.memEff = 1.0;
    p.gpu.interKernelGapNs = 100.0;
    p.link.bwGBs = 10.0;
    p.link.latencyNs = 1000.0;
    return p;
}

SimOptions
noJitter()
{
    SimOptions opts;
    opts.jitter = false;
    return opts;
}

OperatorGraph
singleKernelGraph(double cpu_ns = 10000.0)
{
    OperatorGraph graph;
    hw::KernelWork w;
    w.cls = hw::KernelClass::Null;
    graph.roots.push_back(
        workload::makeKernelOp("aten::op", cpu_ns, "k0", w));
    return graph;
}

TEST(Simulator, SingleKernelTiming)
{
    Simulator simulator(toyPlatform(), noJitter());
    SimResult result = simulator.run(singleKernelGraph());

    auto kernels = result.trace.ofKind(trace::EventKind::Kernel);
    auto runtimes = result.trace.ofKind(trace::EventKind::Runtime);
    ASSERT_EQ(kernels.size(), 1u);
    // cudaLaunchKernel + cudaDeviceSynchronize.
    ASSERT_EQ(runtimes.size(), 2u);

    // The launch begins after the op's pre-dispatch phase (60% of 10us).
    const auto &launch = runtimes[0];
    EXPECT_EQ(launch.tsBeginNs, 6000);
    EXPECT_EQ(launch.durNs, 1000);

    // Kernel starts launchOverheadNs after the launch call begins.
    EXPECT_EQ(kernels[0].tsBeginNs, launch.tsBeginNs + 2000);
    EXPECT_EQ(kernels[0].durNs, 1500); // null kernel: minKernelNs
}

TEST(Simulator, OperatorEventSpansChildren)
{
    Simulator simulator(toyPlatform(), noJitter());
    SimResult result = simulator.run(singleKernelGraph());
    auto ops = result.trace.ofKind(trace::EventKind::Operator);
    ASSERT_EQ(ops.size(), 1u);
    // 10us of CPU + 1us launch call.
    EXPECT_EQ(ops[0].durNs, 11000);
}

TEST(Simulator, QueuedKernelsRunBackToBack)
{
    // Two heavy kernels launched quickly: the second must wait.
    OperatorGraph graph;
    hw::KernelWork w;
    w.cls = hw::KernelClass::Elementwise;
    w.bytes = 1e7; // 10 us on the toy GPU
    graph.roots.push_back(workload::makeKernelOp("op1", 1000.0, "k", w));
    graph.roots.push_back(workload::makeKernelOp("op2", 1000.0, "k", w));

    Simulator simulator(toyPlatform(), noJitter());
    SimResult result = simulator.run(graph);
    auto kernels = result.trace.ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(kernels.size(), 2u);
    // Second kernel starts at first end + inter-kernel gap, not at its
    // own launch + overhead.
    EXPECT_EQ(kernels[1].tsBeginNs, kernels[0].tsEndNs() + 100);
}

TEST(Simulator, IdleStreamKernelsDoNotQueue)
{
    // Slow CPU (big ops) with tiny kernels: no queuing, so every
    // kernel starts exactly launch + overhead.
    OperatorGraph graph;
    for (int i = 0; i < 5; ++i) {
        hw::KernelWork w;
        w.cls = hw::KernelClass::Null;
        graph.roots.push_back(
            workload::makeKernelOp("op", 50000.0, "k", w));
    }
    Simulator simulator(toyPlatform(), noJitter());
    SimResult result = simulator.run(graph);

    auto kernels = result.trace.ofKind(trace::EventKind::Kernel);
    auto runtimes = result.trace.ofKind(trace::EventKind::Runtime);
    ASSERT_EQ(kernels.size(), 5u);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        EXPECT_EQ(kernels[i].tsBeginNs,
                  runtimes[i].tsBeginNs + 2000)
            << "kernel " << i;
    }
}

TEST(Simulator, CorrelationIdsLinkLaunchesToKernels)
{
    Simulator simulator(toyPlatform(), noJitter());
    SimResult result =
        simulator.run(workload::buildNullKernelGraph(10));
    EXPECT_TRUE(result.trace.validate().empty());
    EXPECT_EQ(result.trace.countOf(trace::EventKind::Kernel), 10u);
}

TEST(Simulator, DeterministicWithSameSeed)
{
    SimOptions opts;
    opts.jitter = true;
    opts.seed = 99;
    workload::BuildOptions build;
    build.batch = 2;
    workload::OperatorGraph graph =
        workload::buildPrefillGraph(workload::gpt2(), build);

    Simulator a(hw::platforms::intelH100(), opts);
    Simulator b(hw::platforms::intelH100(), opts);
    SimResult ra = a.run(graph);
    SimResult rb = b.run(graph);
    ASSERT_EQ(ra.trace.size(), rb.trace.size());
    EXPECT_DOUBLE_EQ(ra.wallNs, rb.wallNs);
    for (std::size_t i = 0; i < ra.trace.size(); ++i) {
        EXPECT_EQ(ra.trace.events()[i].tsBeginNs,
                  rb.trace.events()[i].tsBeginNs);
    }
}

TEST(Simulator, DifferentSeedsJitterTimings)
{
    SimOptions opts_a;
    opts_a.jitter = true;
    opts_a.seed = 1;
    SimOptions opts_b;
    opts_b.jitter = true;
    opts_b.seed = 2;
    workload::OperatorGraph graph = workload::buildNullKernelGraph(100);
    SimResult ra = Simulator(toyPlatform(), opts_a).run(graph);
    SimResult rb = Simulator(toyPlatform(), opts_b).run(graph);
    EXPECT_NE(ra.wallNs, rb.wallNs);
}

TEST(Simulator, MemcpyEmittedOnLooselyCoupled)
{
    workload::BuildOptions build;
    workload::OperatorGraph graph =
        workload::buildPrefillGraph(workload::bertBaseUncased(), build);

    SimResult lc = Simulator(hw::platforms::intelH100(), noJitter())
        .run(graph);
    EXPECT_EQ(lc.trace.countOf(trace::EventKind::Memcpy), 1u);
}

TEST(Simulator, MemcpySkippedOnUnifiedMemory)
{
    workload::BuildOptions build;
    workload::OperatorGraph graph =
        workload::buildPrefillGraph(workload::bertBaseUncased(), build);

    SimResult cc = Simulator(hw::platforms::gh200(), noJitter())
        .run(graph);
    EXPECT_EQ(cc.trace.countOf(trace::EventKind::Memcpy), 0u);
}

TEST(Simulator, SyncWaitsForLastKernel)
{
    OperatorGraph graph;
    hw::KernelWork w;
    w.cls = hw::KernelClass::Elementwise;
    w.bytes = 1e8; // 100 us kernel, far outlasting CPU work
    graph.roots.push_back(workload::makeKernelOp("op", 1000.0, "k", w));

    Simulator simulator(toyPlatform(), noJitter());
    SimResult result = simulator.run(graph);
    auto kernels = result.trace.ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_GE(result.wallNs,
              static_cast<double>(kernels[0].tsEndNs()));

    auto runtimes = result.trace.ofKind(trace::EventKind::Runtime);
    const auto &sync = runtimes.back();
    EXPECT_EQ(sync.name, "cudaDeviceSynchronize");
    EXPECT_GE(sync.tsEndNs(), kernels[0].tsEndNs());
}

TEST(Simulator, WallCoversCpuAndGpu)
{
    Simulator simulator(toyPlatform(), noJitter());
    SimResult result = simulator.run(singleKernelGraph());
    EXPECT_GE(result.wallNs, static_cast<double>(result.trace.endNs()));
    auto kernels = result.trace.ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_GT(kernels[0].durNs, 0);
}

TEST(Simulator, SlowerCpuStretchesOperators)
{
    hw::Platform fast = toyPlatform();
    hw::Platform slow = toyPlatform();
    slow.cpu.singleThreadScore = 0.5;

    OperatorGraph graph = singleKernelGraph(20000.0);
    SimResult rf = Simulator(fast, noJitter()).run(graph);
    SimResult rs = Simulator(slow, noJitter()).run(graph);

    auto fast_op = rf.trace.ofKind(trace::EventKind::Operator)[0];
    auto slow_op = rs.trace.ofKind(trace::EventKind::Operator)[0];
    // 20us of framework time doubles; the 1us launch call does not.
    EXPECT_EQ(fast_op.durNs, 21000);
    EXPECT_EQ(slow_op.durNs, 41000);
}

TEST(Simulator, InvalidJitterFractionThrows)
{
    SimOptions opts;
    opts.jitterFrac = 0.5;
    EXPECT_THROW(Simulator(toyPlatform(), opts), FatalError);
}

TEST(Simulator, NonFiniteJitterFractionThrows)
{
    for (double frac : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
        for (bool on : {false, true}) {
            SimOptions opts;
            opts.jitter = on;
            opts.jitterFrac = frac;
            try {
                Simulator(toyPlatform(), opts)
                    .wallNs(workload::gpt2(), {1, 8});
                ADD_FAILURE() << "accepted jitterFrac " << frac;
            } catch (const FatalError &err) {
                EXPECT_STREQ(err.what(), "Simulator: jitterFrac must be "
                                         "within [0, 0.25]");
            }
        }
    }
}

TEST(Simulator, JitterStaysBounded)
{
    SimOptions opts;
    opts.jitter = true;
    opts.jitterFrac = 0.02;
    Simulator simulator(toyPlatform(), opts);
    SimResult result = simulator.run(workload::buildNullKernelGraph(500));
    for (const auto &ev : result.trace.events()) {
        if (ev.kind == trace::EventKind::Kernel) {
            EXPECT_GT(ev.durNs, 1500 * 0.9);
            EXPECT_LT(ev.durNs, 1500 * 1.1);
        }
    }
}

TEST(Simulator, TraceTimestampsMonotoneOnCpu)
{
    Simulator simulator(hw::platforms::amdA100(), {});
    workload::BuildOptions build;
    SimResult result = simulator.run(
        workload::buildPrefillGraph(workload::gpt2(), build));
    std::int64_t prev = -1;
    for (const auto &ev : result.trace.events()) {
        if (ev.kind == trace::EventKind::Runtime) {
            EXPECT_GE(ev.tsBeginNs, prev);
            prev = ev.tsBeginNs;
        }
    }
}

TEST(Simulator, StreamKernelsNeverOverlap)
{
    Simulator simulator(hw::platforms::gh200(), {});
    workload::BuildOptions build;
    build.batch = 8;
    SimResult result = simulator.run(
        workload::buildPrefillGraph(workload::bertBaseUncased(), build));
    std::int64_t prev_end = -1;
    for (const auto &ev : result.trace.events()) {
        if (ev.onGpu()) {
            EXPECT_GE(ev.tsBeginNs, prev_end);
            prev_end = ev.tsEndNs();
        }
    }
}

TEST(Simulator, TracesSatisfyEveryCheckedInvariant)
{
    // Beyond trace.validate()'s structural checks, the semantic
    // invariant suite (causality, per-stream FIFO + no-overlap,
    // launch-queue depth) must hold on real model workloads across
    // coupled and discrete platforms, with and without jitter.
    workload::BuildOptions build;
    build.batch = 4;
    workload::OperatorGraph graph =
        workload::buildPrefillGraph(workload::gpt2(), build);
    SimOptions jittered;
    jittered.jitter = true;
    jittered.seed = 11;
    for (const auto &platform :
         {hw::platforms::gh200(), hw::platforms::intelH100()}) {
        for (const auto &opts : {noJitter(), jittered}) {
            SimResult result = Simulator(platform, opts).run(graph);
            check::TraceCheckReport report =
                check::validateTrace(result.trace);
            EXPECT_TRUE(report.ok())
                << platform.name << ": " << report.render();
            // Every graph kernel forms a correlated pair; discrete
            // platforms add staging memcpy pairs on top.
            EXPECT_GE(report.pairsChecked,
                      result.trace.countOf(trace::EventKind::Kernel));
        }
    }
}

/** wallNs() against run().wallNs with exact double equality. */
void
expectTraceFreeMatches(const hw::Platform &platform, const SimOptions &opts,
                       const OperatorGraph &graph, const std::string &what)
{
    EXPECT_EQ(Simulator(platform, opts).wallNs(graph),
              Simulator(platform, opts).run(graph).wallNs)
        << what << " on " << platform.name;
}

TEST(Simulator, TraceFreeWallMatchesTheTracedRunOnTheCatalogGrid)
{
    // The serving cost model's grid, on every catalog model and
    // platform: prefill and one decode step at each batch.
    const std::vector<hw::Platform> platforms = hw::platforms::all();
    for (const workload::ModelConfig &model : workload::allModels()) {
        for (int batch : {1, 2, 4, 8, 16, 32, 64}) {
            workload::BuildOptions build;
            build.batch = batch;
            build.seqLen = 128;
            const std::string at =
                model.name + " batch " + std::to_string(batch);
            const OperatorGraph prefill =
                workload::buildPrefillGraph(model, build);
            const OperatorGraph decode =
                workload::buildDecodeStepGraph(model, build, build.seqLen);
            for (const hw::Platform &platform : platforms) {
                expectTraceFreeMatches(platform, noJitter(), prefill,
                                       at + " prefill");
                expectTraceFreeMatches(platform, noJitter(), decode,
                                       at + " decode");
            }
        }
    }
}

TEST(Simulator, TraceFreeWallMatchesUnderCompileParallelismAndJitter)
{
    workload::BuildOptions compiled;
    compiled.batch = 4;
    compiled.seqLen = 128;
    compiled.mode = workload::ExecMode::CompileReduceOverhead;
    workload::BuildOptions sharded;
    sharded.batch = 4;
    sharded.seqLen = 128;
    sharded.tensorParallel = 2;
    const std::pair<std::string, OperatorGraph> graphs[] = {
        {"compile",
         workload::buildPrefillGraph(workload::llama2_7b(), compiled)},
        {"tensor-parallel 2",
         workload::buildPrefillGraph(workload::llama2_7b(), sharded)},
        {"tensor-parallel 2 decode",
         workload::buildDecodeStepGraph(workload::llama2_7b(), sharded,
                                        256)},
    };
    for (const hw::Platform &platform : hw::platforms::all()) {
        for (const auto &[what, graph] : graphs) {
            expectTraceFreeMatches(platform, noJitter(), graph, what);
            for (std::uint64_t seed : {3u, 1009u}) {
                SimOptions jittered;
                jittered.jitter = true;
                jittered.seed = seed;
                expectTraceFreeMatches(platform, jittered, graph,
                                       what + " jittered seed " +
                                           std::to_string(seed));
            }
        }
    }
}

/**
 * The graph-free walk (wallNs(model, opts[, ctx])) against the walk of
 * the built tree, with exact double equality: every catalog model and
 * platform, prefill and decode, batch 1-64, tensor-parallel 1 and 2
 * where the model shards and the platform has a peer link, jitter off
 * and at two seeds.
 */
void
expectGraphFreeMatches(workload::ExecMode mode)
{
    const std::vector<hw::Platform> platforms = hw::platforms::all();
    SimOptions seed3;
    seed3.jitter = true;
    seed3.seed = 3;
    SimOptions seed1009 = seed3;
    seed1009.seed = 1009;
    for (const workload::ModelConfig &model : workload::allModels()) {
        for (int tp : {1, 2}) {
            if (model.heads % tp != 0 || model.intermediate % tp != 0 ||
                model.vocab % tp != 0)
                continue;
            for (int batch : {1, 2, 4, 8, 16, 32, 64}) {
                workload::BuildOptions build;
                build.batch = batch;
                build.seqLen = 128;
                build.mode = mode;
                build.tensorParallel = tp;
                const int context = 96 + batch;
                const OperatorGraph prefill =
                    workload::buildPrefillGraph(model, build);
                const OperatorGraph decode =
                    workload::buildDecodeStepGraph(model, build, context);
                for (const hw::Platform &platform : platforms) {
                    if (tp > 1 && platform.gpu.nvlinkGBs <= 0.0)
                        continue;
                    for (const SimOptions &opts :
                         {noJitter(), seed3, seed1009}) {
                        const Simulator simulator(platform, opts);
                        const std::string at = model.name + " " +
                            workload::execModeName(mode) + " tp " +
                            std::to_string(tp) + " batch " +
                            std::to_string(batch) + " on " +
                            platform.name + " seed " +
                            std::to_string(opts.jitter ? opts.seed : 0);
                        EXPECT_EQ(simulator.wallNs(model, build),
                                  simulator.wallNs(prefill))
                            << at << " prefill";
                        EXPECT_EQ(simulator.wallNs(model, build, context),
                                  simulator.wallNs(decode))
                            << at << " decode";
                    }
                }
            }
        }
    }
}

TEST(Simulator, GraphFreeWallMatchesTheTreeWalkEager)
{
    expectGraphFreeMatches(workload::ExecMode::Eager);
}

TEST(Simulator, GraphFreeWallMatchesTheTreeWalkFlashAttention)
{
    expectGraphFreeMatches(workload::ExecMode::FlashAttention2);
}

TEST(Simulator, GraphFreeWallMatchesTheTreeWalkCompileDefault)
{
    expectGraphFreeMatches(workload::ExecMode::CompileDefault);
}

TEST(Simulator, GraphFreeWallMatchesTheTreeWalkReduceOverhead)
{
    expectGraphFreeMatches(workload::ExecMode::CompileReduceOverhead);
}

TEST(Simulator, GraphFreeWallMatchesTheTreeWalkMaxAutotune)
{
    expectGraphFreeMatches(workload::ExecMode::CompileMaxAutotune);
}

/**
 * The folded graph-free walk against the tree walk, which walks every
 * layer, with exact double equality: every catalog model and platform,
 * batch 1-64, tensor-parallel 1 and 2 where the model shards and the
 * platform has a peer link, layer counts from 1 to 200; jitter off,
 * and at seeds 3 and 1009 (which never fold) on the shorter stacks.
 */
void
expectFoldMatches(workload::ExecMode mode, bool decode)
{
    const std::vector<hw::Platform> platforms = hw::platforms::all();
    SimOptions seed3;
    seed3.jitter = true;
    seed3.seed = 3;
    SimOptions seed1009 = seed3;
    seed1009.seed = 1009;
    for (workload::ModelConfig model : workload::allModels()) {
        for (int tp : {1, 2}) {
            if (model.heads % tp != 0 || model.intermediate % tp != 0 ||
                model.vocab % tp != 0)
                continue;
            for (int batch : {1, 4, 16, 64}) {
                for (int layers : {1, 2, 3, 5, 12, 40, 200}) {
                    model.layers = layers;
                    workload::BuildOptions build;
                    build.batch = batch;
                    build.seqLen = 128;
                    build.mode = mode;
                    build.tensorParallel = tp;
                    const int context = 96 + batch;
                    const OperatorGraph graph = decode
                        ? workload::buildDecodeStepGraph(model, build,
                                                         context)
                        : workload::buildPrefillGraph(model, build);
                    for (const hw::Platform &platform : platforms) {
                        if (tp > 1 && platform.gpu.nvlinkGBs <= 0.0)
                            continue;
                        for (const SimOptions &opts :
                             {noJitter(), seed3, seed1009}) {
                            if (opts.jitter && layers > 12)
                                continue;
                            const Simulator simulator(platform, opts);
                            EXPECT_EQ(decode
                                          ? simulator.wallNs(model, build,
                                                             context)
                                          : simulator.wallNs(model, build),
                                      simulator.wallNs(graph))
                                << model.name << " "
                                << workload::execModeName(mode)
                                << (decode ? " decode" : " prefill")
                                << " layers " << layers << " tp " << tp
                                << " batch " << batch << " on "
                                << platform.name << " seed "
                                << (opts.jitter ? opts.seed : 0);
                        }
                    }
                }
            }
        }
    }
}

TEST(Simulator, FoldedLayersMatchTheTreeWalkEagerPrefill)
{
    expectFoldMatches(workload::ExecMode::Eager, false);
}

TEST(Simulator, FoldedLayersMatchTheTreeWalkEagerDecode)
{
    expectFoldMatches(workload::ExecMode::Eager, true);
}

TEST(Simulator, FoldedLayersMatchTheTreeWalkFlashAttentionPrefill)
{
    expectFoldMatches(workload::ExecMode::FlashAttention2, false);
}

TEST(Simulator, FoldedLayersMatchTheTreeWalkFlashAttentionDecode)
{
    expectFoldMatches(workload::ExecMode::FlashAttention2, true);
}

/** One hand-made layer: an operator and its launches. */
struct ToyLayer
{
    double cpuNs;
    std::vector<double> kernelBytes; ///< one elementwise kernel each
    bool memcpy = false;             ///< also stage a host copy

    void
    emit(workload::OpSink &sink) const
    {
        sink.begin("layer", cpuNs, 0.3);
        for (double bytes : kernelBytes) {
            hw::KernelWork w;
            w.cls = hw::KernelClass::Elementwise;
            w.bytes = bytes;
            sink.launch("k", {&w, 1}, false);
        }
        if (memcpy) {
            hw::KernelWork w;
            w.cls = hw::KernelClass::Memcpy;
            w.bytes = 4096.0;
            sink.launch("memcpy_h2d", {&w, 1}, true);
        }
        sink.end();
    }
};

/**
 * Trace-free wall time of a prologue kernel, @p layers layers (marked
 * as a block when @p fold) and a sync.
 */
double
toyWall(const SimOptions &opts, const ToyLayer &layer, int layers,
        bool fold)
{
    // A Runner keeps references to its platform and options.
    const hw::Platform platform = toyPlatform();
    Runner<NoTrace> runner(platform, opts);
    ToyLayer{2000.0, {1e6}}.emit(runner);
    int streamed = fold ? runner.repeat(layers) : layers;
    for (int i = 0; i < streamed; ++i)
        layer.emit(runner);
    if (fold)
        runner.endRepeat();
    runner.deviceSynchronize();
    return runner.wallNs();
}

TEST(Simulator, FoldedLayersMatchTheWalkOnHandMadeLayers)
{
    // CPU-bound (A > B) and GPU-bound (B > A) layers, a layer that
    // launches nothing (C is -inf), one whose stream items queue
    // behind each other, and one that stages a copy.
    const ToyLayer shapes[] = {
        {40000.0, {1e6}},
        {2000.0, {5e7, 1e6}},
        {5000.0, {}},
        {9000.0, {1e6, 1e6, 3e7}},
        {7000.0, {2e6}, true},
    };
    for (const ToyLayer &layer : shapes) {
        for (int layers : {1, 2, 3, 7, 64}) {
            EXPECT_EQ(toyWall(noJitter(), layer, layers, true),
                      toyWall(noJitter(), layer, layers, false))
                << layer.cpuNs << " ns CPU, " << layer.kernelBytes.size()
                << " kernels, " << layers << " layers";
        }
    }
}

TEST(Simulator, TraceFreeWalkFoldsOnlyWhenItMay)
{
    const ToyLayer layer{4000.0, {1e6}};
    const hw::Platform platform = toyPlatform();
    auto streamed = [&](const SimOptions &opts, int layers,
                        bool prologue) {
        Runner<NoTrace> runner(platform, opts);
        if (prologue)
            layer.emit(runner);
        return runner.repeat(layers);
    };
    EXPECT_EQ(streamed(noJitter(), 12, true), 1);
    EXPECT_EQ(streamed(noJitter(), 2, true), 1);
    // One layer, an unused stream or a jittered walk: every layer.
    EXPECT_EQ(streamed(noJitter(), 1, true), 1);
    EXPECT_EQ(streamed(noJitter(), 12, false), 12);
    EXPECT_EQ(streamed(SimOptions{7, true, 0.02}, 12, true), 12);
    // A recording walk never folds.
    const SimOptions options = noJitter();
    Runner<check::AppendRecorder> recording(platform, options);
    layer.emit(recording);
    EXPECT_EQ(recording.repeat(12), 12);
}

TEST(Simulator, GraphFreeWallRejectsWhatTheBuilderRejects)
{
    workload::BuildOptions bad;
    bad.batch = 0;
    const Simulator simulator(hw::platforms::gh200());
    EXPECT_THROW(simulator.wallNs(workload::gpt2(), bad), FatalError);
    EXPECT_THROW(simulator.wallNs(workload::gpt2(), {}, 0), FatalError);
    // A decode step's errors name the decode entry point.
    for (bool graph_free : {false, true}) {
        try {
            if (graph_free)
                simulator.wallNs(workload::gpt2(), bad, 16);
            else
                workload::buildDecodeStepGraph(workload::gpt2(), bad, 16);
            ADD_FAILURE() << "accepted batch 0";
        } catch (const FatalError &err) {
            EXPECT_STREQ(err.what(),
                         "buildDecodeStepGraph: batch must be positive");
        }
    }
}

/**
 * run() against the append-then-sort recorder, every field of every
 * event: every catalog model and platform, prefill and decode, batch
 * 1-64, jitter off and at two seeds, in one exec mode.
 */
void
expectRecordersMatch(workload::ExecMode mode)
{
    const std::vector<hw::Platform> platforms = hw::platforms::all();
    SimOptions seed3;
    seed3.jitter = true;
    seed3.seed = 3;
    SimOptions seed1009 = seed3;
    seed1009.seed = 1009;
    for (const workload::ModelConfig &model : workload::allModels()) {
        for (int batch : {1, 4, 16, 64}) {
            workload::BuildOptions build;
            build.batch = batch;
            build.seqLen = 128;
            build.mode = mode;
            const std::pair<const char *, OperatorGraph> graphs[] = {
                {"prefill", workload::buildPrefillGraph(model, build)},
                {"decode",
                 workload::buildDecodeStepGraph(model, build, 128)},
            };
            for (const hw::Platform &platform : platforms) {
                for (const SimOptions &opts :
                     {noJitter(), seed3, seed1009}) {
                    for (const auto &[pass, graph] : graphs) {
                        EXPECT_EQ(check::diffSimResults(
                                      Simulator(platform, opts).run(graph),
                                      check::appendSortRun(platform, opts,
                                                           graph)),
                                  "")
                            << model.name << " "
                            << workload::execModeName(mode) << " " << pass
                            << " batch " << batch << " on "
                            << platform.name << " seed "
                            << (opts.jitter ? opts.seed : 0);
                    }
                }
            }
        }
    }
}

TEST(Simulator, TimeOrderedRecorderMatchesTheOracleEager)
{
    expectRecordersMatch(workload::ExecMode::Eager);
}

TEST(Simulator, TimeOrderedRecorderMatchesTheOracleFlashAttention)
{
    expectRecordersMatch(workload::ExecMode::FlashAttention2);
}

TEST(Simulator, TimeOrderedRecorderMatchesTheOracleCompileDefault)
{
    expectRecordersMatch(workload::ExecMode::CompileDefault);
}

TEST(Simulator, TimeOrderedRecorderMatchesTheOracleReduceOverhead)
{
    expectRecordersMatch(workload::ExecMode::CompileReduceOverhead);
}

TEST(Simulator, TimeOrderedRecorderMatchesTheOracleMaxAutotune)
{
    expectRecordersMatch(workload::ExecMode::CompileMaxAutotune);
}

TEST(Simulator, ParentBeginningWithItsChildFallsBackToTheSort)
{
    // The outer operator spends nothing before its child, so both
    // begin on the same ns; the outer one is issued first but takes
    // its id last, so the merged recording breaks (begin, id) order and
    // the trace is sorted as the append-then-sort recorder sorted it.
    OperatorGraph graph;
    hw::KernelWork w;
    w.cls = hw::KernelClass::Null;
    OpNode outer = workload::makeParentOp(
        "aten::outer", 8000.0,
        {workload::makeKernelOp("aten::inner", 4000.0, "k_inner", w)});
    outer.preFraction = 0.0;
    outer.launches.push_back({"k_outer", {w}, false});
    graph.roots.push_back(singleKernelGraph().roots.front());
    graph.roots.push_back(outer);
    for (const SimOptions &opts : {noJitter(), SimOptions{7, true, 0.02}}) {
        SimResult result = Simulator(toyPlatform(), opts).run(graph);
        EXPECT_EQ(check::diffSimResults(
                      result, check::appendSortRun(toyPlatform(), opts,
                                                   graph)),
                  "");
        // The tie the sort had to break: inner (smaller id) first.
        const auto &events = result.trace.events();
        auto at = [&](const std::string &name) {
            for (std::size_t i = 0; i < events.size(); ++i) {
                if (events[i].name == name)
                    return i;
            }
            ADD_FAILURE() << "no event " << name;
            return std::size_t{0};
        };
        const trace::TraceEvent &inner = events[at("aten::inner")];
        const trace::TraceEvent &outer_ev = events[at("aten::outer")];
        EXPECT_EQ(inner.tsBeginNs, outer_ev.tsBeginNs);
        EXPECT_LT(inner.id, outer_ev.id);
        EXPECT_EQ(at("aten::inner") + 1, at("aten::outer"));
    }
}

TEST(Simulator, PlatformMetaRecorded)
{
    Simulator simulator(hw::platforms::gh200(), noJitter());
    SimResult result = simulator.run(workload::buildNullKernelGraph(1));
    EXPECT_EQ(result.trace.meta("platform"), "GH200");
}

} // namespace
} // namespace skipsim::sim

/**
 * @file
 * Unit tests for the SKIP core: dependency-graph construction (time
 * containment + correlation linkage, paper Sec. IV-A) and the metric
 * definitions TKLQT/AKD/IL/idle times (Eqs. 1-5) on hand-built traces
 * with known answers. The flat dependency-graph builder is also held
 * to the map-based builder it replaced (check::diffDependencyGraphs).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/map_dep_graph.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "json/writer.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "skip/profile.hh"

namespace skipsim::skip
{
namespace
{

using trace::EventKind;
using trace::Trace;
using trace::TraceEvent;

TraceEvent
ev(EventKind kind, const std::string &name, std::int64_t begin,
   std::int64_t dur, std::uint64_t corr = 0)
{
    TraceEvent event;
    event.kind = kind;
    event.name = name;
    event.tsBeginNs = begin;
    event.durNs = dur;
    event.tid = 1;
    event.correlationId = corr;
    event.streamId =
        (kind == EventKind::Kernel || kind == EventKind::Memcpy) ? 7 : -1;
    return event;
}

/**
 * A hand-crafted trace mirroring the paper's Fig. 4:
 *
 *   parent op [0, 100)
 *     child op [10, 60)
 *       launch l1 [20, 25) -> kernel k1 [30, 50)   (t_l = 10)
 *     launch l2 [70, 75)   -> kernel k2 [90, 120)  (t_l = 20)
 *   parent op2 [120, 140)
 *     launch l3 [125, 130) -> kernel k3 [150, 160) (t_l = 25)
 */
Trace
fig4Trace()
{
    Trace trace;
    trace.add(ev(EventKind::Operator, "aten::parent", 0, 100));
    trace.add(ev(EventKind::Operator, "aten::child", 10, 50));
    trace.add(ev(EventKind::Runtime, "cudaLaunchKernel", 20, 5, 1));
    trace.add(ev(EventKind::Kernel, "k1", 30, 20, 1));
    trace.add(ev(EventKind::Runtime, "cudaLaunchKernel", 70, 5, 2));
    trace.add(ev(EventKind::Kernel, "k2", 90, 30, 2));
    trace.add(ev(EventKind::Operator, "aten::parent2", 120, 20));
    trace.add(ev(EventKind::Runtime, "cudaLaunchKernel", 125, 5, 3));
    trace.add(ev(EventKind::Kernel, "k3", 150, 10, 3));
    return trace;
}

// ------------------------------------------------------- dependency graph

TEST(DepGraph, ParentChildByContainment)
{
    DependencyGraph graph = DependencyGraph::build(fig4Trace());
    // Root ops: parent (id 0) and parent2 (id 6).
    ASSERT_EQ(graph.rootOps().size(), 2u);
    EXPECT_EQ(graph.rootOps()[0], 0u);
    EXPECT_EQ(graph.rootOps()[1], 6u);

    // child (id 1) is inside parent (id 0).
    ASSERT_TRUE(graph.parentOf(1).has_value());
    EXPECT_EQ(*graph.parentOf(1), 0u);
    EXPECT_FALSE(graph.parentOf(0).has_value());
}

TEST(DepGraph, LaunchBelongsToDeepestContainingOp)
{
    DependencyGraph graph = DependencyGraph::build(fig4Trace());
    // l1 (id 2) is inside child (id 1), not directly inside parent.
    ASSERT_TRUE(graph.parentOf(2).has_value());
    EXPECT_EQ(*graph.parentOf(2), 1u);
    // l2 (id 4) is inside parent only.
    ASSERT_TRUE(graph.parentOf(4).has_value());
    EXPECT_EQ(*graph.parentOf(4), 0u);
}

TEST(DepGraph, RootAncestorWalksUp)
{
    DependencyGraph graph = DependencyGraph::build(fig4Trace());
    EXPECT_EQ(graph.rootAncestorOf(2), 0u);
    EXPECT_EQ(graph.rootAncestorOf(8), 8u); // kernels have no CPU parent
}

TEST(DepGraph, KernelsLinkedByCorrelation)
{
    DependencyGraph graph = DependencyGraph::build(fig4Trace());
    auto kernels = graph.kernels();
    ASSERT_EQ(kernels.size(), 3u);
    EXPECT_EQ(kernels[0].launchToStartNs, 10);
    EXPECT_EQ(kernels[1].launchToStartNs, 20);
    EXPECT_EQ(kernels[2].launchToStartNs, 25);
    ASSERT_TRUE(kernels[0].rootOpId.has_value());
    EXPECT_EQ(*kernels[0].rootOpId, 0u);
    EXPECT_EQ(*kernels[2].rootOpId, 6u);
}

TEST(DepGraph, KernelsInStreamOrder)
{
    Trace trace = fig4Trace();
    // Shuffle insertion: add a later kernel before an earlier one.
    DependencyGraph graph = DependencyGraph::build(std::move(trace));
    std::int64_t prev = -1;
    for (const auto &link : graph.kernels()) {
        std::int64_t begin = graph.trace().byId(link.kernelId).tsBeginNs;
        EXPECT_GE(begin, prev);
        prev = begin;
    }
}

TEST(DepGraph, OrphanKernelThrows)
{
    Trace trace;
    trace.add(ev(EventKind::Kernel, "k", 0, 10, 42));
    EXPECT_THROW(DependencyGraph::build(std::move(trace)), FatalError);
}

TEST(DepGraph, ChildrenListsPopulated)
{
    DependencyGraph graph = DependencyGraph::build(fig4Trace());
    const auto &kids = graph.childrenOf(0);
    // parent (id 0) contains child (1) and l2 (4).
    ASSERT_EQ(kids.size(), 2u);
    EXPECT_EQ(kids[0], 1u);
    EXPECT_EQ(kids[1], 4u);
}

TEST(DepGraph, SharedBeginParentPrecedesChild)
{
    // The child is recorded first and starts with its parent: the
    // longer event must still become the parent.
    Trace trace;
    trace.add(ev(EventKind::Operator, "aten::child", 10, 20));
    trace.add(ev(EventKind::Runtime, "cudaLaunchKernel", 10, 5, 1));
    trace.add(ev(EventKind::Operator, "aten::parent", 10, 50));
    trace.add(ev(EventKind::Kernel, "k", 40, 5, 1));
    DependencyGraph graph = DependencyGraph::build(std::move(trace));
    EXPECT_EQ(graph.parentOf(0), std::optional<std::uint64_t>(2));
    EXPECT_EQ(graph.parentOf(1), std::optional<std::uint64_t>(0));
    EXPECT_EQ(graph.rootOps(), std::vector<std::uint64_t>{2});
    ASSERT_EQ(graph.kernels().size(), 1u);
    EXPECT_EQ(graph.kernels()[0].leafOpId, std::optional<std::uint64_t>(0));
    EXPECT_EQ(graph.kernels()[0].rootOpId, std::optional<std::uint64_t>(2));
}

TEST(DepGraph, SeparateThreadsDoNotNest)
{
    Trace trace;
    TraceEvent a = ev(EventKind::Operator, "t1-op", 0, 100);
    a.tid = 1;
    TraceEvent b = ev(EventKind::Operator, "t2-op", 10, 20);
    b.tid = 2;
    trace.add(a);
    trace.add(b);
    DependencyGraph graph = DependencyGraph::build(std::move(trace));
    EXPECT_FALSE(graph.parentOf(1).has_value());
    EXPECT_EQ(graph.rootOps().size(), 2u);
}

TEST(DepGraph, MemcpyExcludedFromKernelsOnly)
{
    Trace trace = fig4Trace();
    trace.add(ev(EventKind::Runtime, "cudaMemcpyAsync", 130, 5, 9));
    trace.add(ev(EventKind::Memcpy, "Memcpy HtoD", 140, 5, 9));
    DependencyGraph graph = DependencyGraph::build(std::move(trace));
    EXPECT_EQ(graph.kernels().size(), 4u);
    EXPECT_EQ(graph.computeKernelsOnly().size(), 3u);
}

/** The children of @p id as a vector, in order. */
std::vector<std::uint64_t>
kidsOf(const DependencyGraph &graph, std::uint64_t id)
{
    std::span<const std::uint64_t> kids = graph.childrenOf(id);
    return {kids.begin(), kids.end()};
}

TEST(DepGraph, ReusedCorrelationIdResolvesToTheLatestLaunch)
{
    Trace trace;
    trace.add(ev(EventKind::Operator, "aten::a", 0, 20));           // 0
    trace.add(ev(EventKind::Runtime, "cudaLaunchKernel", 5, 5, 9)); // 1
    trace.add(ev(EventKind::Kernel, "k_first", 12, 4, 9));          // 2
    trace.add(ev(EventKind::Operator, "aten::b", 30, 20));          // 3
    trace.add(ev(EventKind::Runtime, "cudaLaunchKernel", 35, 5, 9)); // 4
    trace.add(ev(EventKind::Kernel, "k_second", 42, 4, 9));         // 5
    EXPECT_EQ(check::diffDependencyGraphs(trace), "");
    DependencyGraph graph = DependencyGraph::build(std::move(trace));
    ASSERT_EQ(graph.kernels().size(), 2u);
    // Both kernels link to the launch registered last, as before.
    for (const KernelLink &link : graph.kernels()) {
        EXPECT_EQ(link.runtimeId, 4u);
        EXPECT_EQ(link.leafOpId, std::optional<std::uint64_t>(3));
    }
    EXPECT_EQ(graph.kernels()[0].launchToStartNs, 12 - 35);
}

TEST(DepGraph, ThreeThreadsNestIndependently)
{
    Trace trace;
    auto on = [](int tid, TraceEvent event) {
        event.tid = tid;
        return event;
    };
    trace.add(on(1, ev(EventKind::Operator, "t1-outer", 0, 100)));  // 0
    trace.add(on(2, ev(EventKind::Operator, "t2-outer", 5, 50)));   // 1
    trace.add(on(3, ev(EventKind::Operator, "t3-outer", 6, 10)));   // 2
    trace.add(on(1, ev(EventKind::Operator, "t1-inner", 10, 20)));  // 3
    trace.add(on(2, ev(EventKind::Operator, "t2-inner", 12, 5)));   // 4
    trace.add(on(3, ev(EventKind::Operator, "t3-later", 20, 5)));   // 5
    trace.add(on(2, ev(EventKind::Runtime, "cudaLaunchKernel", 13, 2,
                       4)));                                        // 6
    trace.add(ev(EventKind::Kernel, "k", 30, 5, 4));                // 7
    EXPECT_EQ(check::diffDependencyGraphs(trace), "");
    DependencyGraph graph = DependencyGraph::build(std::move(trace));
    EXPECT_EQ(graph.parentOf(3), std::optional<std::uint64_t>(0));
    EXPECT_EQ(graph.parentOf(4), std::optional<std::uint64_t>(1));
    EXPECT_EQ(graph.parentOf(6), std::optional<std::uint64_t>(4));
    EXPECT_FALSE(graph.parentOf(2).has_value());
    EXPECT_FALSE(graph.parentOf(5).has_value());
    EXPECT_EQ(graph.rootOps(), (std::vector<std::uint64_t>{0, 1, 2, 5}));
    EXPECT_EQ(kidsOf(graph, 0), std::vector<std::uint64_t>{3});
    EXPECT_EQ(kidsOf(graph, 1), std::vector<std::uint64_t>{4});
    EXPECT_TRUE(kidsOf(graph, 2).empty());
    ASSERT_EQ(graph.kernels().size(), 1u);
    EXPECT_EQ(graph.kernels()[0].rootOpId, std::optional<std::uint64_t>(1));
}

TEST(DepGraph, EqualBeginRunsVisitByEndDescending)
{
    // Four CPU events begin on one ns, recorded shortest first: the
    // longest is visited first, and the two with equal ends keep their
    // id order, so each nests in the one visited before it.
    Trace trace;
    trace.add(ev(EventKind::Operator, "a", 10, 10)); // 0: ends 20
    trace.add(ev(EventKind::Operator, "b", 10, 30)); // 1: ends 40
    trace.add(ev(EventKind::Operator, "c", 10, 20)); // 2: ends 30
    trace.add(ev(EventKind::Operator, "d", 10, 20)); // 3: ends 30
    trace.add(ev(EventKind::Operator, "e", 25, 2));  // 4: after a, in d
    EXPECT_EQ(check::diffDependencyGraphs(trace), "");
    DependencyGraph graph = DependencyGraph::build(std::move(trace));
    EXPECT_EQ(graph.rootOps(), std::vector<std::uint64_t>{1});
    EXPECT_EQ(kidsOf(graph, 1), std::vector<std::uint64_t>{2});
    EXPECT_EQ(kidsOf(graph, 2), std::vector<std::uint64_t>{3});
    EXPECT_EQ(kidsOf(graph, 3), (std::vector<std::uint64_t>{0, 4}));
    EXPECT_TRUE(kidsOf(graph, 0).empty());
    EXPECT_EQ(graph.rootAncestorOf(0), 1u);
}

TEST(DepGraph, CorrelationIdZeroLinksNothing)
{
    // A runtime call with correlation id 0 is no launch, so a kernel
    // carrying id 0 has none, and the error matches the reference's.
    Trace trace;
    trace.add(ev(EventKind::Operator, "aten::op", 0, 50));
    trace.add(ev(EventKind::Runtime, "cudaLaunchKernel", 10, 5, 0));
    trace.add(ev(EventKind::Kernel, "k0", 20, 5, 0));
    EXPECT_EQ(check::diffDependencyGraphs(trace), "");
    try {
        DependencyGraph::build(std::move(trace));
        ADD_FAILURE() << "a kernel with correlation id 0 was linked";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(),
                     "dependency graph: kernel 'k0' (id 2) has no runtime "
                     "launch with correlation id 0");
    }
}

TEST(DepGraph, MatchesTheMapBasedReferenceOnSimulatedTraces)
{
    for (const auto &model : {workload::gpt2(), workload::llama32_1b()}) {
        for (const hw::Platform &platform : hw::platforms::paperTrio()) {
            for (int batch : {1, 16}) {
                ProfileResult run =
                    profilePrefill(model, platform, batch, 128);
                EXPECT_EQ(check::diffDependencyGraphs(run.trace), "")
                    << model.name << " on " << platform.name
                    << " batch " << batch;
            }
        }
    }
}

/**
 * Re-add a trace's events in the given order, so ids follow that order.
 * @param[out] old_id old_id[new id] = the event's id in `events`.
 */
Trace
renumbered(const std::vector<TraceEvent> &events,
           std::vector<std::uint64_t> &old_id)
{
    Trace out;
    old_id.clear();
    for (const TraceEvent &event : events) {
        old_id.push_back(event.id);
        out.add(event);
    }
    return out;
}

std::optional<std::uint64_t>
remapped(std::optional<std::uint64_t> id,
         const std::vector<std::uint64_t> &old_id)
{
    if (!id)
        return std::nullopt;
    return old_id[*id];
}

TEST(DepGraph, KinetoTrackOrderMatchesTimeOrderAfterRemap)
{
    for (int batch : {1, 16}) {
        ProfileResult run = profilePrefill(
            workload::gpt2(), hw::platforms::amdA100(), batch, 128);
        Trace sorted = run.trace;
        sorted.sortByTime();

        // Ids in time order: id == position after the sort.
        std::vector<std::uint64_t> time_src;
        Trace by_time = renumbered(sorted.events(), time_src);

        // Ids track by track as Kineto writes them: CPU operators, then
        // runtime calls, then each GPU stream.
        std::vector<TraceEvent> tracks = by_time.events();
        auto track = [](const TraceEvent &e) {
            return std::make_pair(
                e.onGpu() ? 2 : e.kind == EventKind::Runtime,
                e.onGpu() ? e.streamId : e.tid);
        };
        std::stable_sort(tracks.begin(), tracks.end(),
                         [&](const TraceEvent &a, const TraceEvent &b) {
                             return track(a) < track(b);
                         });
        std::vector<std::uint64_t> to_time; // kineto id -> time id
        Trace kineto = renumbered(tracks, to_time);
        bool out_of_order = false;
        for (std::uint64_t id = 0; id < to_time.size(); ++id)
            out_of_order |= to_time[id] != id;
        ASSERT_TRUE(out_of_order);

        EXPECT_EQ(check::diffDependencyGraphs(kineto), "");
        DependencyGraph a = DependencyGraph::build(by_time);
        DependencyGraph b = DependencyGraph::build(kineto);
        ASSERT_EQ(a.trace().size(), b.trace().size());

        std::vector<std::uint64_t> to_kineto(to_time.size());
        for (std::uint64_t id = 0; id < to_time.size(); ++id)
            to_kineto[to_time[id]] = id;
        for (std::uint64_t id = 0; id < to_time.size(); ++id) {
            std::uint64_t k = to_kineto[id];
            EXPECT_EQ(a.parentOf(id), remapped(b.parentOf(k), to_time));
            std::vector<std::uint64_t> kids;
            for (std::uint64_t child : b.childrenOf(k))
                kids.push_back(to_time[child]);
            std::span<const std::uint64_t> a_kids = a.childrenOf(id);
            EXPECT_EQ(std::vector<std::uint64_t>(a_kids.begin(),
                                                 a_kids.end()),
                      kids);
        }

        std::vector<std::uint64_t> roots;
        for (std::uint64_t root : b.rootOps())
            roots.push_back(to_time[root]);
        EXPECT_EQ(a.rootOps(), roots);

        ASSERT_EQ(a.kernels().size(), b.kernels().size());
        for (std::size_t i = 0; i < a.kernels().size(); ++i) {
            const KernelLink &x = a.kernels()[i];
            const KernelLink &y = b.kernels()[i];
            EXPECT_EQ(x.kernelId, to_time[y.kernelId]);
            EXPECT_EQ(x.runtimeId, to_time[y.runtimeId]);
            EXPECT_EQ(x.leafOpId, remapped(y.leafOpId, to_time));
            EXPECT_EQ(x.rootOpId, remapped(y.rootOpId, to_time));
            EXPECT_EQ(x.launchToStartNs, y.launchToStartNs);
        }

        EXPECT_EQ(json::write(computeMetrics(a).toJson()),
                  json::write(computeMetrics(b).toJson()));
    }
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, TklqtSumsLaunchToStart)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(fig4Trace()));
    // Eq. 2: 10 + 20 + 25.
    EXPECT_DOUBLE_EQ(report.tklqtNs, 55.0);
}

TEST(Metrics, AkdIsMeanKernelDuration)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(fig4Trace()));
    // Eq. 3: (20 + 30 + 10) / 3.
    EXPECT_DOUBLE_EQ(report.akdNs, 20.0);
}

TEST(Metrics, InferenceLatencySpansFirstOpToLastKernel)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(fig4Trace()));
    // Eq. 4: ts_e(k3)=160 - ts_b(parent)=0.
    EXPECT_DOUBLE_EQ(report.ilNs, 160.0);
}

TEST(Metrics, GpuIdleIsIlMinusKernelTime)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(fig4Trace()));
    // Eq. 5: 160 - 60.
    EXPECT_DOUBLE_EQ(report.gpuIdleNs, 100.0);
    EXPECT_DOUBLE_EQ(report.gpuBusyNs, 60.0);
}

TEST(Metrics, CpuBusyAndIdle)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(fig4Trace()));
    // Root ops cover [0,100) and [120,140): busy 120, idle 40.
    EXPECT_DOUBLE_EQ(report.cpuBusyNs, 120.0);
    EXPECT_DOUBLE_EQ(report.cpuIdleNs, 40.0);
}

TEST(Metrics, CountsAndAverages)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(fig4Trace()));
    EXPECT_EQ(report.numKernels, 3u);
    EXPECT_EQ(report.numOps, 3u);
    EXPECT_NEAR(report.avgLaunchNs, 55.0 / 3.0, 1e-9);
}

TEST(Metrics, EmptyTraceAllZero)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(Trace{}));
    EXPECT_DOUBLE_EQ(report.tklqtNs, 0.0);
    EXPECT_DOUBLE_EQ(report.ilNs, 0.0);
    EXPECT_EQ(report.numKernels, 0u);
}

TEST(Metrics, ByKernelAggregation)
{
    Trace trace;
    trace.add(ev(EventKind::Operator, "op", 0, 100));
    trace.add(ev(EventKind::Runtime, "l", 10, 2, 1));
    trace.add(ev(EventKind::Kernel, "gemm", 20, 30, 1));
    trace.add(ev(EventKind::Runtime, "l", 40, 2, 2));
    trace.add(ev(EventKind::Kernel, "gemm", 60, 40, 2));
    trace.add(ev(EventKind::Runtime, "l", 50, 2, 3));
    trace.add(ev(EventKind::Kernel, "softmax", 110, 5, 3));
    MetricsReport report =
        computeMetrics(DependencyGraph::build(std::move(trace)));
    ASSERT_EQ(report.byKernel.size(), 2u);
    EXPECT_EQ(report.byKernel[0].name, "gemm"); // sorted by count
    EXPECT_EQ(report.byKernel[0].count, 2u);
    EXPECT_DOUBLE_EQ(report.byKernel[0].totalDurNs, 70.0);
    EXPECT_DOUBLE_EQ(report.byKernel[0].meanDurNs(), 35.0);
}

TEST(Metrics, ByKernelTiesBreakByName)
{
    // Count descending, then name ascending, whatever order the
    // kernels ran in.
    Trace trace;
    trace.add(ev(EventKind::Operator, "op", 0, 1000));
    std::uint64_t corr = 1;
    std::int64_t at = 10;
    for (const char *name : {"zeta", "beta", "alpha", "mid", "beta"}) {
        trace.add(ev(EventKind::Runtime, "l", at, 2, corr));
        trace.add(ev(EventKind::Kernel, name, at + 5, 3, corr));
        ++corr;
        at += 20;
    }
    MetricsReport report =
        computeMetrics(DependencyGraph::build(std::move(trace)));
    std::vector<std::string> names;
    for (const KernelStat &stat : report.byKernel)
        names.push_back(stat.name);
    EXPECT_EQ(names, (std::vector<std::string>{"beta", "alpha", "mid",
                                               "zeta"}));
    EXPECT_EQ(report.byKernel[0].count, 2u);
}

TEST(Metrics, TopKByCriteria)
{
    Trace trace;
    trace.add(ev(EventKind::Operator, "op", 0, 1000));
    // "frequent": 3 launches, short; "heavy": 1 launch, long + big wait.
    for (int i = 0; i < 3; ++i) {
        auto corr = static_cast<std::uint64_t>(i + 1);
        trace.add(ev(EventKind::Runtime, "l", 10 + i * 20, 2, corr));
        trace.add(ev(EventKind::Kernel, "frequent", 15 + i * 20, 4,
                     corr));
    }
    trace.add(ev(EventKind::Runtime, "l", 100, 2, 9));
    trace.add(ev(EventKind::Kernel, "heavy", 400, 500, 9));
    MetricsReport report =
        computeMetrics(DependencyGraph::build(std::move(trace)));

    auto by_count = report.topK(1, TopKBy::Count);
    ASSERT_EQ(by_count.size(), 1u);
    EXPECT_EQ(by_count[0].name, "frequent");

    auto by_dur = report.topK(1, TopKBy::Duration);
    EXPECT_EQ(by_dur[0].name, "heavy");

    auto by_launch = report.topK(1, TopKBy::LaunchOverhead);
    EXPECT_EQ(by_launch[0].name, "heavy");

    EXPECT_EQ(report.topK(10, TopKBy::Count).size(), 2u);
}

TEST(Metrics, RenderAndJsonContainHeadlineNumbers)
{
    MetricsReport report =
        computeMetrics(DependencyGraph::build(fig4Trace()));
    std::string text = report.render();
    EXPECT_NE(text.find("TKLQT"), std::string::npos);

    json::Value doc = report.toJson();
    EXPECT_DOUBLE_EQ(doc.asObject().at("tklqt_ns").asDouble(), 55.0);
    EXPECT_EQ(doc.asObject().at("num_kernels").asInt(), 3);
    EXPECT_EQ(doc.asObject().at("kernels").asArray().size(), 3u);
}

// --------------------------------------------------------- profile session

TEST(Profile, EndToEndBertRun)
{
    ProfileResult result = profilePrefill(
        workload::bertBaseUncased(), hw::platforms::intelH100(), 1);
    EXPECT_EQ(result.modelName, "Bert-Base-Uncased");
    EXPECT_EQ(result.platformName, "Intel+H100");
    EXPECT_EQ(result.metrics.numKernels, 299u);
    EXPECT_GT(result.ttftNs(), 0.0);
    EXPECT_GE(result.wallNs, result.ttftNs());
}

TEST(Profile, TraceCarriesRunMetadata)
{
    ProfileResult result = profilePrefill(
        workload::gpt2(), hw::platforms::gh200(), 4, 256);
    EXPECT_EQ(result.trace.meta("model"), "GPT2");
    EXPECT_EQ(result.trace.meta("platform"), "GH200");
    EXPECT_EQ(result.trace.meta("batch"), "4");
    EXPECT_EQ(result.trace.meta("seq_len"), "256");
    EXPECT_EQ(result.trace.meta("mode"), "eager");
}

TEST(Profile, MetricsConsistentWithinRun)
{
    ProfileResult result = profilePrefill(
        workload::gpt2(), hw::platforms::amdA100(), 2);
    const auto &m = result.metrics;
    EXPECT_NEAR(m.gpuBusyNs + m.gpuIdleNs, m.ilNs, 1.0);
    EXPECT_GE(m.ilNs, m.gpuBusyNs);
    EXPECT_GE(m.tklqtNs,
              static_cast<double>(m.numKernels) * 2000.0);
}

TEST(Profile, FlashModeReducesKernelCount)
{
    ProfileResult eager = profilePrefill(
        workload::llama32_1b(), hw::platforms::intelH100(), 1, 256);
    ProfileResult fa2 = profilePrefill(
        workload::llama32_1b(), hw::platforms::intelH100(), 1, 256,
        workload::ExecMode::FlashAttention2);
    EXPECT_LT(fa2.metrics.numKernels, eager.metrics.numKernels);
}

} // namespace
} // namespace skipsim::skip

/**
 * @file
 * Lifecycle span tests: the SpanLog recording hooks (stage partition,
 * KV-fetch carve and clamp, restart collapse, disaggregated handoff),
 * the Chrome-trace export round trip and its malformed-document
 * errors, the checkSpans structural validator, latency attribution
 * over hand-built span sets, and the cluster-integration determinism
 * contract (byte-identical span export across repeated runs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "check/span_check.hh"
#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "obs/attribution.hh"
#include "obs/span.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

/** Top-level stage spans of @p request, in begin order. */
std::vector<obs::Span>
stagesOf(const std::vector<obs::Span> &spans, std::int64_t request)
{
    std::int64_t root = -1;
    for (const obs::Span &s : spans) {
        if (s.request == request && s.parent < 0)
            root = s.id;
    }
    std::vector<obs::Span> stages;
    for (const obs::Span &s : spans) {
        if (s.request == request && s.parent == root)
            stages.push_back(s);
    }
    std::sort(stages.begin(), stages.end(),
              [](const obs::Span &a, const obs::Span &b) {
                  if (a.beginNs != b.beginNs)
                      return a.beginNs < b.beginNs;
                  return a.id < b.id;
              });
    return stages;
}

/** The request root span of @p request (asserts it exists). */
obs::Span
rootOf(const std::vector<obs::Span> &spans, std::int64_t request)
{
    for (const obs::Span &s : spans) {
        if (s.request == request && s.parent < 0)
            return s;
    }
    ADD_FAILURE() << "no root span for request " << request;
    return obs::Span{};
}

/** A small, fast-to-simulate cluster scenario. */
cluster::ClusterSpec
smallClusterSpec(int replicas = 2)
{
    cluster::ClusterSpec spec;
    spec.model = workload::modelByName("GPT2");
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::byName("GH200");
    replica.maxActive = 16;
    spec.replicas.assign(static_cast<std::size_t>(replicas), replica);
    spec.arrivalRatePerSec = 60.0;
    spec.horizonSec = 3.0;
    spec.promptLen = 128;
    spec.genTokens = 8;
    spec.sessions = 16;
    return spec;
}

// ---------------------------------------------------------- SpanLog

TEST(SpanLog, BasicLifecyclePartitionsTheRequestInterval)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 1000.0, 0, "round-robin");
    log.onAdmit(0, 3000.0, 0.0, false);
    log.onFirstToken(0, 5000.0);
    log.onDecodeIter(0, 5000.0, 5500.0, 4);
    log.onDecodeIter(0, 5500.0, 6100.0, 3);
    log.onComplete(0, 6100.0);

    ASSERT_EQ(log.requestCount(), 1u);
    const std::vector<obs::Span> &spans = log.spans();
    // root + 4 stages + route + 2 decode iters
    ASSERT_EQ(spans.size(), 8u);

    obs::Span root = rootOf(spans, 0);
    EXPECT_EQ(root.stage, obs::kStageRequest);
    EXPECT_EQ(root.beginNs, 0);
    EXPECT_EQ(root.durNs, 6100);

    std::vector<obs::Span> stages = stagesOf(spans, 0);
    ASSERT_EQ(stages.size(), 4u);
    EXPECT_EQ(stages[0].stage, obs::kStageQueue);
    EXPECT_EQ(stages[0].beginNs, 0);
    EXPECT_EQ(stages[0].durNs, 1000);
    EXPECT_EQ(stages[1].stage, obs::kStagePrefillWait);
    EXPECT_EQ(stages[1].beginNs, 1000);
    EXPECT_EQ(stages[1].durNs, 2000);
    EXPECT_EQ(stages[1].replica, 0);
    EXPECT_EQ(stages[2].stage, obs::kStagePrefill);
    EXPECT_EQ(stages[2].beginNs, 3000);
    EXPECT_EQ(stages[2].durNs, 2000);
    EXPECT_EQ(stages[3].stage, obs::kStageDecode);
    EXPECT_EQ(stages[3].beginNs, 5000);
    EXPECT_EQ(stages[3].durNs, 1100);

    // The route annotation is a zero-duration child of the queue
    // stage; the decode iterations are children of the decode stage.
    int routes = 0;
    int iters = 0;
    for (const obs::Span &s : spans) {
        if (s.stage == obs::kSpanRoute) {
            ++routes;
            EXPECT_EQ(s.parent, stages[0].id);
            EXPECT_EQ(s.durNs, 0);
            EXPECT_EQ(s.detail, "round-robin");
            EXPECT_EQ(s.replica, 0);
        }
        if (s.stage == obs::kSpanDecodeIter) {
            ++iters;
            EXPECT_EQ(s.parent, stages[3].id);
        }
    }
    EXPECT_EQ(routes, 1);
    EXPECT_EQ(iters, 2);

    // Ids seal in order starting at 0 for the first request.
    EXPECT_EQ(root.id, 0);
    check::SpanCheckReport report = check::checkSpans(spans);
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_EQ(report.requestsChecked, 1u);
}

TEST(SpanLog, KvFetchStallIsCarvedAndClamped)
{
    obs::SpanLog log;
    // Request 0: a 300 ns stall fits inside the 800 ns prefill stage.
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 1, "kv-aware");
    log.onAdmit(0, 200.0, 300.0, false);
    log.onFirstToken(0, 1000.0);
    log.onComplete(0, 1400.0);
    // Request 1: the raw stall (5000 ns) outlasts the stage, so the
    // carve clamps at the stage close and prefill collapses to zero.
    log.onArrival(1, 0.0);
    log.onRoute(1, 100.0, 0, "kv-aware");
    log.onAdmit(1, 200.0, 5000.0, false);
    log.onFirstToken(1, 1000.0);
    log.onComplete(1, 1400.0);

    std::vector<obs::Span> s0 = stagesOf(log.spans(), 0);
    ASSERT_EQ(s0.size(), 5u);
    EXPECT_EQ(s0[2].stage, obs::kStageKvFetch);
    EXPECT_EQ(s0[2].beginNs, 200);
    EXPECT_EQ(s0[2].durNs, 300);
    EXPECT_EQ(s0[3].stage, obs::kStagePrefill);
    EXPECT_EQ(s0[3].beginNs, 500);
    EXPECT_EQ(s0[3].durNs, 500);

    std::vector<obs::Span> s1 = stagesOf(log.spans(), 1);
    ASSERT_EQ(s1.size(), 5u);
    EXPECT_EQ(s1[2].stage, obs::kStageKvFetch);
    EXPECT_EQ(s1[2].beginNs, 200);
    EXPECT_EQ(s1[2].durNs, 800); // clamped to the stage close
    EXPECT_EQ(s1[3].stage, obs::kStagePrefill);
    EXPECT_EQ(s1[3].beginNs, 1000);
    EXPECT_EQ(s1[3].durNs, 0);

    check::SpanCheckReport report = check::checkSpans(log.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

TEST(SpanLog, RestartCollapsesTheAttemptIntoOneDisruptedStage)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onRestart(0, 700.0);
    log.onRoute(0, 800.0, 1, "rr after crash");
    log.onAdmit(0, 900.0, 0.0, false);
    log.onFirstToken(0, 1200.0);
    log.onComplete(0, 1500.0);

    std::vector<obs::Span> stages = stagesOf(log.spans(), 0);
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].stage, obs::kStageDisrupted);
    EXPECT_EQ(stages[0].beginNs, 0);
    EXPECT_EQ(stages[0].durNs, 700);
    EXPECT_EQ(stages[0].replica, 0); // died on the first replica
    EXPECT_EQ(stages[1].stage, obs::kStageQueue);
    EXPECT_EQ(stages[1].beginNs, 700);
    EXPECT_EQ(stages[2].stage, obs::kStagePrefillWait);
    EXPECT_EQ(stages[3].stage, obs::kStagePrefill);
    EXPECT_EQ(stages[4].stage, obs::kStageDecode);
    EXPECT_EQ(stages[4].beginNs + stages[4].durNs, 1500);

    check::SpanCheckReport report = check::checkSpans(log.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

TEST(SpanLog, DisaggregatedHandoffBecomesItsOwnStage)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "prefill-pool");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onFirstToken(0, 600.0);
    log.onHandoffStart(0, 600.0);
    // Decode-pool re-dispatch: the handoff stage stays open and gains
    // the route annotation instead of re-opening a queue stage.
    log.onRoute(0, 700.0, 1, "decode-pool");
    log.onAdmit(0, 800.0, 0.0, true);
    log.onDecodeIter(0, 800.0, 900.0, 2);
    log.onComplete(0, 1000.0);

    std::vector<obs::Span> stages = stagesOf(log.spans(), 0);
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].stage, obs::kStageQueue);
    EXPECT_EQ(stages[1].stage, obs::kStagePrefillWait);
    EXPECT_EQ(stages[2].stage, obs::kStagePrefill);
    EXPECT_EQ(stages[3].stage, obs::kStageHandoff);
    EXPECT_EQ(stages[3].beginNs, 600);
    EXPECT_EQ(stages[3].durNs, 200);
    EXPECT_EQ(stages[4].stage, obs::kStageDecode);
    EXPECT_EQ(stages[4].beginNs, 800);
    EXPECT_EQ(stages[4].durNs, 200);

    // The decode-pool route child hangs off the handoff stage.
    bool found = false;
    for (const obs::Span &s : log.spans()) {
        if (s.stage == obs::kSpanRoute && s.detail == "decode-pool") {
            found = true;
            EXPECT_EQ(s.parent, stages[3].id);
            EXPECT_EQ(s.replica, 1);
        }
    }
    EXPECT_TRUE(found);

    check::SpanCheckReport report = check::checkSpans(log.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

TEST(SpanLog, IncompleteRequestsAreNeverSealed)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    // Never completes: nothing sealed, nothing exported.
    EXPECT_EQ(log.requestCount(), 0u);
    EXPECT_TRUE(log.spans().empty());
    // Hooks on unknown/never-arrived ids are ignored.
    log.onFirstToken(7, 500.0);
    log.onComplete(7, 900.0);
    EXPECT_TRUE(log.spans().empty());
}

// ------------------------------------------------- Chrome round trip

TEST(SpanFile, ChromeExportRoundTripsEverySealedSpan)
{
    obs::SpanLog log;
    log.setMeta("ttft_slo_ms", "250");
    log.onArrival(0, 0.0);
    log.onRoute(0, 1000.0, 0, "rr");
    log.onAdmit(0, 3000.0, 450.0, false);
    log.onFirstToken(0, 5000.0);
    log.onDecodeIter(0, 5000.0, 5500.0, 4);
    log.onComplete(0, 6100.0);

    obs::SpanFile file =
        obs::spansFromChromeJson(log.toChromeJson());
    EXPECT_EQ(file.meta.at("kind"), "spans");
    EXPECT_EQ(file.meta.at("ttft_slo_ms"), "250");
    ASSERT_EQ(file.spans.size(), log.spans().size());
    for (std::size_t i = 0; i < file.spans.size(); ++i) {
        const obs::Span &got = file.spans[i];
        const obs::Span &want = log.spans()[i];
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.parent, want.parent);
        EXPECT_EQ(got.request, want.request);
        EXPECT_EQ(got.stage, want.stage);
        EXPECT_EQ(got.beginNs, want.beginNs);
        EXPECT_EQ(got.durNs, want.durNs);
        EXPECT_EQ(got.replica, want.replica);
        EXPECT_EQ(got.detail, want.detail);
    }
}

TEST(SpanFile, MalformedDocumentsAreFatal)
{
    EXPECT_THROW(obs::spansFromChromeJson(json::Value(3.0)),
                 FatalError);
    EXPECT_THROW(obs::spansFromChromeJson(
                     json::parse("{\"skipsimMeta\": {}}")),
                 FatalError);
    // An "X" event carrying span_id but missing the other span args
    // names the offending event index.
    try {
        obs::spansFromChromeJson(json::parse(
            "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"queue\","
            " \"args\": {\"span_id\": 1}}]}"));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("event 0"),
                  std::string::npos);
    }
    // Foreign "X" events without span args are skipped, not fatal.
    obs::SpanFile file = obs::spansFromChromeJson(json::parse(
        "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"gemm\","
        " \"args\": {\"thread\": 0}}, {\"ph\": \"b\", \"id\": 0}]}"));
    EXPECT_TRUE(file.spans.empty());
}

TEST(SpanFile, RejectsNegativeDurationAndOverflowingEnd)
{
    auto error_for = [](const std::string &ts_ns, const std::string &dur_ns) {
        try {
            obs::spansFromChromeJson(json::parse(
                R"({"traceEvents": [{"ph": "b"}, {"ph": "X",)"
                R"( "name": "queue", "args": {"span_id": 1, "parent": -1,)"
                R"( "request": 0, "ts_ns": )" + ts_ns +
                R"(, "dur_ns": )" + dur_ns + "}}]}"));
        } catch (const FatalError &err) {
            return std::string(err.what());
        }
        return std::string();
    };
    EXPECT_EQ(error_for("10", "5"), "");
    const std::string negative = error_for("10", "-5");
    EXPECT_NE(negative.find("span trace: event 1: negative duration"),
              std::string::npos)
        << negative;
    const std::string overflow = error_for("9e18", "3e17");
    EXPECT_NE(overflow.find("span trace: event 1: event end overflows"),
              std::string::npos)
        << overflow;
    const std::string range = error_for("1e19", "1");
    EXPECT_NE(range.find("span trace: event 1: json: integer"),
              std::string::npos)
        << range;
}

// -------------------------------------------------------- checkSpans

TEST(SpanCheck, DetectsPartitionGapsOverlapsAndOrphans)
{
    obs::SpanLog log;
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onFirstToken(0, 600.0);
    log.onComplete(0, 1000.0);
    std::vector<obs::Span> spans = log.spans();

    // Open a gap: shrink the prefill stage's duration.
    std::vector<obs::Span> gapped = spans;
    for (obs::Span &s : gapped) {
        if (s.stage == obs::kStagePrefill)
            s.durNs -= 50;
    }
    check::SpanCheckReport gap = check::checkSpans(gapped);
    EXPECT_FALSE(gap.ok());
    EXPECT_TRUE(gap.has("span-stage-gap")) << gap.render();

    // Overlap: grow it instead.
    std::vector<obs::Span> overlapped = spans;
    for (obs::Span &s : overlapped) {
        if (s.stage == obs::kStagePrefill)
            s.durNs += 50;
    }
    check::SpanCheckReport overlap = check::checkSpans(overlapped);
    EXPECT_FALSE(overlap.ok());
    EXPECT_TRUE(overlap.has("span-stage-overlap")) << overlap.render();

    // Orphan: a span pointing at a parent id that was never sealed.
    std::vector<obs::Span> orphaned = spans;
    orphaned.back().parent = 9999;
    EXPECT_TRUE(
        check::checkSpans(orphaned).has("span-orphan"));

    // Drop the root: stages with no request root.
    std::vector<obs::Span> rootless;
    for (const obs::Span &s : spans) {
        if (s.parent >= 0)
            rootless.push_back(s);
    }
    check::SpanCheckReport missing = check::checkSpans(rootless);
    EXPECT_FALSE(missing.ok());
    EXPECT_TRUE(missing.has("span-orphan") ||
                missing.has("span-missing-root"))
        << missing.render();
}

// ------------------------------------------------------- attribution

TEST(Attribution, HandBuiltBreakdownAndSloDominance)
{
    obs::SpanLog log;
    // Request 0: ttft 600 ns, e2e 1000 ns.
    log.onArrival(0, 0.0);
    log.onRoute(0, 100.0, 0, "rr");
    log.onAdmit(0, 200.0, 0.0, false);
    log.onFirstToken(0, 600.0);
    log.onComplete(0, 1000.0);
    // Request 1: ttft 800 ns, e2e 1600 ns.
    log.onArrival(1, 0.0);
    log.onRoute(1, 300.0, 1, "rr");
    log.onAdmit(1, 400.0, 0.0, false);
    log.onFirstToken(1, 800.0);
    log.onComplete(1, 1600.0);

    // SLOs in ms; 0.0005 ms = 500 ns, so both requests violate ttft
    // and only request 1 violates e2e (1600 > 1200).
    obs::AttributionReport report =
        obs::attributeSpans(log.spans(), 0.0005, 0.0012);
    EXPECT_EQ(report.requests, 2u);
    EXPECT_DOUBLE_EQ(report.meanTtftNs, 700.0);
    EXPECT_DOUBLE_EQ(report.meanE2eNs, 1300.0);

    // E2E totals: queue 400, prefill_wait 200, prefill 800, decode
    // 1200 -> shares over 2600 summed interval time.
    std::map<std::string, obs::StageStat> e2e;
    double share_sum = 0.0;
    for (const obs::StageStat &s : report.e2eStages) {
        e2e[s.stage] = s;
        share_sum += s.share;
    }
    ASSERT_EQ(e2e.size(), 4u);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageQueue].totalNs, 400.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStagePrefillWait].totalNs, 200.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStagePrefill].totalNs, 800.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageDecode].totalNs, 1200.0);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageDecode].share, 1200.0 / 2600.0);
    EXPECT_NEAR(share_sum, 1.0, 1e-12);
    EXPECT_EQ(e2e[obs::kStageQueue].count, 2u);
    EXPECT_DOUBLE_EQ(e2e[obs::kStageQueue].meanNs, 200.0);

    // Stage rows come out in lifecycle order.
    ASSERT_EQ(report.e2eStages.size(), 4u);
    EXPECT_EQ(report.e2eStages[0].stage, obs::kStageQueue);
    EXPECT_EQ(report.e2eStages[3].stage, obs::kStageDecode);

    // The TTFT window excludes decode entirely.
    for (const obs::StageStat &s : report.ttftStages)
        EXPECT_NE(s.stage, obs::kStageDecode);

    // SLO table: ttft violators (both) dominated by prefill (800 of
    // 1400 ttft-window ns); e2e violators (request 1) by decode.
    ASSERT_EQ(report.sloRows.size(), 2u);
    EXPECT_EQ(report.sloRows[0].klass, "ttft");
    EXPECT_EQ(report.sloRows[0].violations, 2u);
    EXPECT_EQ(report.sloRows[0].dominantStage, obs::kStagePrefill);
    EXPECT_DOUBLE_EQ(report.sloRows[0].dominantTotalNs, 800.0);
    EXPECT_EQ(report.sloRows[1].klass, "e2e");
    EXPECT_EQ(report.sloRows[1].violations, 1u);
    EXPECT_EQ(report.sloRows[1].dominantStage, obs::kStageDecode);

    // Relaxed SLOs -> no violation rows.
    obs::AttributionReport relaxed =
        obs::attributeSpans(log.spans(), 1000.0, 1000.0);
    EXPECT_TRUE(relaxed.sloRows.empty());
    // The JSON document always carries the fixed top-level keys.
    json::Value doc = relaxed.toJson();
    EXPECT_TRUE(doc.asObject().has("ttft_stages"));
    EXPECT_TRUE(doc.asObject().has("e2e_stages"));
    EXPECT_TRUE(doc.asObject().has("slo_violations"));
}

// ------------------------------------------------ cluster integration

TEST(ClusterSpans, SimulationSpansAreValidAndByteIdentical)
{
    cluster::ClusterSpec spec = smallClusterSpec(2);

    obs::SpanLog first;
    cluster::ClusterResult result =
        cluster::simulateCluster(spec, nullptr, &first);
    ASSERT_GT(first.requestCount(), 0u);
    EXPECT_EQ(first.requestCount(),
              static_cast<std::size_t>(result.completed));

    check::SpanCheckReport report = check::checkSpans(first.spans());
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_EQ(report.requestsChecked, first.requestCount());

    // A fresh run (fresh cost cache and all) must export the same
    // bytes: span ids are sealed in deterministic event order.
    obs::SpanLog second;
    cluster::simulateCluster(spec, nullptr, &second);
    EXPECT_EQ(first.toChromeText(), second.toChromeText());

    // And attribution over those spans is equally deterministic.
    EXPECT_EQ(json::write(obs::attributeSpans(first.spans(),
                                              spec.ttftSloMs,
                                              spec.e2eSloMs)
                              .toJson()),
              json::write(obs::attributeSpans(second.spans(),
                                              spec.ttftSloMs,
                                              spec.e2eSloMs)
                              .toJson()));
}

TEST(ClusterSpans, FaultRestartsShowUpAsDisruptedStages)
{
    cluster::ClusterSpec spec = smallClusterSpec(2);
    cluster::FaultSpec crash;
    crash.atSec = 1.0;
    crash.replica = 0;
    crash.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(crash);

    obs::SpanLog spans;
    cluster::simulateCluster(spec, nullptr, &spans);
    ASSERT_GT(spans.requestCount(), 0u);

    std::size_t disrupted = 0;
    for (const obs::Span &s : spans.spans()) {
        if (s.stage == obs::kStageDisrupted)
            ++disrupted;
    }
    EXPECT_GT(disrupted, 0u);

    // The partition invariant survives the restarts.
    check::SpanCheckReport report = check::checkSpans(spans.spans());
    EXPECT_TRUE(report.ok()) << report.render();
}

} // namespace

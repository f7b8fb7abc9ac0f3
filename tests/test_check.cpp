/**
 * @file
 * Tests of the correctness subsystem itself (skipsim::check): the
 * trace invariant checker against hand-built violations and mutated
 * golden traces, the metamorphic property catalog, and the fuzz
 * harness (deterministic generation, JSON round trips, and the
 * fail -> shrink -> repro-on-disk path driven by a trace mutator that
 * stands in for a broken engine build), and the Chrome codec's parity
 * with the DOM reader and writer it replaced (check::diffChromeCodec)
 * on fixed inputs that pin each of the decoder's rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "check/chrome_oracle.hh"
#include "check/fuzzer.hh"
#include "check/invariants.hh"
#include "check/mdc.hh"
#include "check/properties.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "obs/span.hh"
#include "sim/simulator.hh"
#include "trace/chrome.hh"
#include "trace/event.hh"
#include "trace/trace.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

#ifndef SKIPSIM_TESTS_DATA_DIR
#define SKIPSIM_TESTS_DATA_DIR "tests/data"
#endif

namespace skipsim::check
{
namespace
{

trace::TraceEvent
makeEvent(trace::EventKind kind, const std::string &name,
          std::int64_t begin, std::int64_t dur, std::uint64_t corr = 0,
          int stream = -1)
{
    trace::TraceEvent ev;
    ev.kind = kind;
    ev.name = name;
    ev.tsBeginNs = begin;
    ev.durNs = dur;
    ev.tid = 1;
    ev.correlationId = corr;
    ev.streamId = ev.onGpu() ? (stream < 0 ? 7 : stream) : -1;
    return ev;
}

using trace::EventKind;

// ------------------------------------------------------------ invariants

TEST(ValidateTrace, CleanPairPasses)
{
    trace::Trace t;
    t.add(makeEvent(EventKind::Runtime, "cudaLaunchKernel", 0, 2, 1));
    t.add(makeEvent(EventKind::Kernel, "k", 3, 5, 1));
    TraceCheckReport report = validateTrace(t);
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_EQ(report.pairsChecked, 1u);
    EXPECT_EQ(report.gpuChecked, 1u);
}

TEST(ValidateTrace, NegativeDuration)
{
    trace::Trace t;
    t.add(makeEvent(EventKind::Operator, "op", 0, -4));
    TraceCheckReport report = validateTrace(t);
    ASSERT_TRUE(report.has("negative-duration")) << report.render();
    EXPECT_NE(report.violations[0].message.find("-4"),
              std::string::npos);
}

TEST(ValidateTrace, MissingStream)
{
    trace::Trace t;
    trace::TraceEvent k = makeEvent(EventKind::Kernel, "k", 0, 1, 1);
    k.streamId = -1;
    t.add(k);
    t.add(makeEvent(EventKind::Runtime, "l", 0, 1, 1));
    EXPECT_TRUE(validateTrace(t).has("missing-stream"));
}

TEST(ValidateTrace, CorrelationBijectionCodes)
{
    // Two launches sharing one correlation id.
    trace::Trace dup_launch;
    dup_launch.add(makeEvent(EventKind::Runtime, "l1", 0, 1, 5));
    dup_launch.add(makeEvent(EventKind::Runtime, "l2", 2, 1, 5));
    dup_launch.add(makeEvent(EventKind::Kernel, "k", 4, 1, 5));
    EXPECT_TRUE(validateTrace(dup_launch)
                    .has("duplicate-launch-correlation"));

    // Two kernels sharing one correlation id.
    trace::Trace dup_kernel;
    dup_kernel.add(makeEvent(EventKind::Runtime, "l", 0, 1, 5));
    dup_kernel.add(makeEvent(EventKind::Kernel, "k1", 2, 1, 5));
    dup_kernel.add(makeEvent(EventKind::Kernel, "k2", 4, 1, 5));
    EXPECT_TRUE(validateTrace(dup_kernel)
                    .has("duplicate-kernel-correlation"));

    // A kernel whose correlation id matches no launch.
    trace::Trace orphan;
    orphan.add(makeEvent(EventKind::Kernel, "k", 0, 1, 9));
    EXPECT_TRUE(validateTrace(orphan).has("orphan-kernel"));

    // A launch whose correlation id matches no GPU event.
    trace::Trace childless;
    childless.add(makeEvent(EventKind::Runtime, "l", 0, 1, 3));
    EXPECT_TRUE(validateTrace(childless).has("launch-without-kernel"));

    // A kernel with no correlation id at all.
    trace::Trace uncorrelated;
    uncorrelated.add(makeEvent(EventKind::Kernel, "k", 0, 1, 0));
    EXPECT_TRUE(
        validateTrace(uncorrelated).has("kernel-without-correlation"));
}

TEST(ValidateTrace, KernelBeforeLaunchBreaksCausality)
{
    trace::Trace t;
    t.add(makeEvent(EventKind::Runtime, "l", 10, 2, 1));
    t.add(makeEvent(EventKind::Kernel, "k", 5, 3, 1));
    TraceCheckReport report = validateTrace(t);
    EXPECT_TRUE(report.has("kernel-before-launch")) << report.render();
    // The derived launch-queue depth dips to -1 at the kernel begin.
    EXPECT_TRUE(report.has("negative-queue-depth")) << report.render();
}

TEST(ValidateTrace, StreamOverlapDetected)
{
    trace::Trace t;
    t.add(makeEvent(EventKind::Runtime, "l1", 0, 1, 1));
    t.add(makeEvent(EventKind::Runtime, "l2", 1, 1, 2));
    t.add(makeEvent(EventKind::Kernel, "k1", 2, 10, 1));
    t.add(makeEvent(EventKind::Kernel, "k2", 5, 10, 2)); // overlaps k1
    TraceCheckReport report = validateTrace(t);
    EXPECT_TRUE(report.has("stream-overlap")) << report.render();
    // Distinct streams are independent: moving k2 off-stream clears it.
    trace::Trace two_streams;
    two_streams.add(makeEvent(EventKind::Runtime, "l1", 0, 1, 1));
    two_streams.add(makeEvent(EventKind::Runtime, "l2", 1, 1, 2));
    two_streams.add(makeEvent(EventKind::Kernel, "k1", 2, 10, 1, 7));
    two_streams.add(makeEvent(EventKind::Kernel, "k2", 5, 10, 2, 8));
    EXPECT_TRUE(validateTrace(two_streams).ok());
}

TEST(ValidateTrace, FifoOrderViolationDetected)
{
    // Kernels run without overlap, but in the opposite order of their
    // launches: an in-order stream cannot do that.
    trace::Trace t;
    t.add(makeEvent(EventKind::Runtime, "l1", 10, 1, 1));
    t.add(makeEvent(EventKind::Runtime, "l2", 5, 1, 2));
    t.add(makeEvent(EventKind::Kernel, "k1", 20, 2, 1));
    t.add(makeEvent(EventKind::Kernel, "k2", 25, 2, 2));
    TraceCheckReport report = validateTrace(t);
    EXPECT_TRUE(report.has("fifo-order")) << report.render();
    EXPECT_FALSE(report.has("stream-overlap"));
}

TEST(ValidateTrace, LaunchOutsideOperatorOnlyWithOperators)
{
    // With no Operator events the enclosure check is skipped entirely.
    trace::Trace bare;
    bare.add(makeEvent(EventKind::Runtime, "l", 50, 1, 1));
    bare.add(makeEvent(EventKind::Kernel, "k", 55, 1, 1));
    EXPECT_TRUE(validateTrace(bare).ok());

    // With operators present, a launch outside all of them is flagged.
    trace::Trace t;
    t.add(makeEvent(EventKind::Operator, "op", 0, 10));
    t.add(makeEvent(EventKind::Runtime, "l", 50, 1, 1));
    t.add(makeEvent(EventKind::Kernel, "k", 55, 1, 1));
    EXPECT_TRUE(validateTrace(t).has("launch-outside-operator"));

    // The same launch inside the operator passes.
    trace::Trace enclosed;
    enclosed.add(makeEvent(EventKind::Operator, "op", 0, 60));
    enclosed.add(makeEvent(EventKind::Runtime, "l", 50, 1, 1));
    enclosed.add(makeEvent(EventKind::Kernel, "k", 55, 1, 1));
    EXPECT_TRUE(validateTrace(enclosed).ok());
}

TEST(ValidateTrace, ReportRenderAndJson)
{
    trace::Trace t;
    t.add(makeEvent(EventKind::Operator, "op", 0, -1));
    TraceCheckReport report = validateTrace(t);
    EXPECT_NE(report.render().find("FAIL"), std::string::npos);
    EXPECT_NE(report.render().find("negative-duration"),
              std::string::npos);
    json::Value doc = report.toJson();
    EXPECT_FALSE(doc.asObject().at("ok").asBool());
    EXPECT_EQ(doc.asObject().at("violations").asArray().size(), 1u);
}

// ----------------------------------------------------- golden mutations

std::string
goldenPath(const std::string &name)
{
    return std::string(SKIPSIM_TESTS_DATA_DIR) + "/" + name;
}

trace::Trace
loadGolden()
{
    return trace::readChromeFile(goldenPath("golden_sim_trace.json"));
}

/** Rebuild @p src with its event list passed through @p mutate. */
trace::Trace
mutated(const trace::Trace &src,
        const std::function<void(std::vector<trace::TraceEvent> &)>
            &mutate)
{
    std::vector<trace::TraceEvent> events = src.events();
    mutate(events);
    trace::Trace out;
    for (trace::TraceEvent &ev : events)
        out.add(std::move(ev));
    return out;
}

TEST(GoldenMutations, PristineGoldenValidates)
{
    TraceCheckReport report = validateTrace(loadGolden());
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_GT(report.pairsChecked, 100u);
}

TEST(GoldenMutations, SeededCorruptionsAreEachRejected)
{
    trace::Trace golden = loadGolden();

    // Indices of the first two kernels in event order.
    std::vector<std::size_t> kernels;
    for (std::size_t i = 0;
         i < golden.events().size() && kernels.size() < 2; ++i) {
        if (golden.events()[i].kind == EventKind::Kernel)
            kernels.push_back(i);
    }
    ASSERT_EQ(kernels.size(), 2u);

    // Mutation 1: swap the begin timestamps of two adjacent kernels.
    TraceCheckReport swapped = validateTrace(
        mutated(golden, [&](std::vector<trace::TraceEvent> &evs) {
            std::swap(evs[kernels[0]].tsBeginNs,
                      evs[kernels[1]].tsBeginNs);
        }));
    EXPECT_FALSE(swapped.ok());
    EXPECT_TRUE(swapped.has("stream-overlap") ||
                swapped.has("fifo-order"))
        << swapped.render();

    // Mutation 2: duplicate a correlation id across two kernels.
    TraceCheckReport duped = validateTrace(
        mutated(golden, [&](std::vector<trace::TraceEvent> &evs) {
            evs[kernels[1]].correlationId =
                evs[kernels[0]].correlationId;
        }));
    EXPECT_FALSE(duped.ok());
    EXPECT_TRUE(duped.has("duplicate-kernel-correlation"))
        << duped.render();

    // Mutation 3: negate one kernel duration.
    TraceCheckReport negated = validateTrace(
        mutated(golden, [&](std::vector<trace::TraceEvent> &evs) {
            evs[kernels[0]].durNs = -evs[kernels[0]].durNs;
        }));
    EXPECT_FALSE(negated.ok());
    EXPECT_TRUE(negated.has("negative-duration")) << negated.render();

    // Each corruption yields its own distinct leading diagnostic.
    std::set<std::string> messages{swapped.violations[0].message,
                                   duped.violations[0].message,
                                   negated.violations[0].message};
    EXPECT_EQ(messages.size(), 3u);
}

// ------------------------------------------------------------ mdc oracle

TEST(MdcSolver, ErlangFormulasMatchKnownValues)
{
    // B(1, a) = a / (1 + a); C(1, a) = a (the M/M/1 delay
    // probability is the utilization).
    EXPECT_NEAR(erlangB(1, 0.5), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(erlangC(1, 0.5), 0.5, 1e-12);
    // Textbook values: B(2, 1) = 1/5, C(2, 1) = 1/3, B(3, 2) = 4/19.
    EXPECT_NEAR(erlangB(2, 1.0), 0.2, 1e-12);
    EXPECT_NEAR(erlangC(2, 1.0), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(erlangB(3, 2.0), 4.0 / 19.0, 1e-12);
    // Zero offered load never blocks and never queues.
    EXPECT_NEAR(erlangB(4, 0.0), 0.0, 1e-12);
    EXPECT_NEAR(erlangC(4, 0.0), 0.0, 1e-12);
}

TEST(MdcSolver, SingleServerIsExactPollaczekKhinchine)
{
    // rho = 0.6 with S = 3e6 ns: Wq = rho S / (2 (1 - rho)).
    double service_ns = 3e6;
    double rate = 200.0;
    MdcSolution mdc = solveMdc(rate, service_ns, 1);
    double rho = rate / 1e9 * service_ns;
    EXPECT_NEAR(mdc.utilization, rho, 1e-12);
    double wq = rho * service_ns / (2.0 * (1.0 - rho));
    EXPECT_NEAR(mdc.meanWaitNs, wq, 1e-6);
    EXPECT_NEAR(mdc.meanResponseNs, wq + service_ns, 1e-6);
    EXPECT_NEAR(mdc.delayProbability, rho, 1e-12);
    EXPECT_NEAR(mdc.meanQueueLength, rate / 1e9 * wq, 1e-12);
}

TEST(MdcSolver, PoolingServersShrinksTheWait)
{
    // Same per-server utilization (rho = 0.8): a pooled M/D/c always
    // waits less than c separate M/D/1 queues, and more pooling keeps
    // helping.
    double service_ns = 5e6;
    double w1 = solveMdc(160.0, service_ns, 1).meanWaitNs;
    double w2 = solveMdc(320.0, service_ns, 2).meanWaitNs;
    double w4 = solveMdc(640.0, service_ns, 4).meanWaitNs;
    EXPECT_LT(w2, w1);
    EXPECT_LT(w4, w2);
    EXPECT_GT(w4, 0.0);
}

TEST(MdcSolver, SaturationBlowsUpAndOverloadPanics)
{
    double service_ns = 1e6;
    double w_low = solveMdc(500.0, service_ns, 1).meanWaitNs;
    double w_high = solveMdc(950.0, service_ns, 1).meanWaitNs;
    EXPECT_GT(w_high, 10.0 * w_low);
    EXPECT_THROW(solveMdc(1000.0, service_ns, 1), PanicError);
    EXPECT_THROW(solveMdc(-1.0, service_ns, 1), PanicError);
    EXPECT_THROW(solveMdc(500.0, 0.0, 1), PanicError);
    EXPECT_THROW(solveMdc(500.0, service_ns, 0), PanicError);
    EXPECT_THROW(erlangC(2, 2.0), PanicError);
}

TEST(MdcSolver, MedianTracksTheDelayProbability)
{
    // Below half delay probability the median arrival never waits.
    double service_ns = 1e6;
    MdcSolution light = solveMdc(100.0, service_ns, 4);
    EXPECT_LE(light.delayProbability, 0.5);
    EXPECT_EQ(light.medianWaitNs, 0.0);
    EXPECT_NEAR(light.medianResponseNs, service_ns, 1e-9);
    // Deep in saturation most arrivals wait and the median is
    // positive but below the mean (the wait tail is right-skewed).
    MdcSolution heavy = solveMdc(920.0, service_ns, 1);
    EXPECT_GT(heavy.delayProbability, 0.5);
    EXPECT_GT(heavy.medianWaitNs, 0.0);
    EXPECT_LT(heavy.medianWaitNs, heavy.meanWaitNs);
}

// ------------------------------------------------------------ properties

TEST(Properties, CatalogCoversAllEnginesWithUniqueNames)
{
    const std::vector<Property> &catalog = properties();
    EXPECT_GE(catalog.size(), 8u);
    std::set<std::string> names;
    std::set<std::string> engines;
    for (const Property &p : catalog) {
        names.insert(p.name);
        engines.insert(p.engine);
        EXPECT_FALSE(p.law.empty()) << p.name;
        // Dotted "<engine>.<law>" naming, stable across releases.
        EXPECT_EQ(p.name.rfind(p.engine + ".", 0), 0u) << p.name;
    }
    EXPECT_EQ(names.size(), catalog.size());
    EXPECT_EQ(engines,
              (std::set<std::string>{"sim", "serving", "cluster"}));
}

TEST(Properties, AllPass)
{
    std::vector<PropertyResult> results = runProperties();
    ASSERT_GE(results.size(), 8u);
    for (const PropertyResult &r : results)
        EXPECT_TRUE(r.passed)
            << r.name << ": " << r.detail << " (base " << r.baseValue
            << ", perturbed " << r.perturbedValue << ")";
    std::string table = renderProperties(results);
    EXPECT_NE(table.find("passed"), std::string::npos);
    json::Value doc = propertiesToJson(results);
    EXPECT_EQ(doc.asObject().at("properties").asArray().size(),
              results.size());
    EXPECT_EQ(doc.asObject().at("passed").asInt(),
              static_cast<std::int64_t>(results.size()));
}

TEST(Properties, FilterSelectsSubset)
{
    std::vector<PropertyResult> sim_only = runProperties("sim.");
    ASSERT_FALSE(sim_only.empty());
    for (const PropertyResult &r : sim_only)
        EXPECT_EQ(r.engine, "sim") << r.name;
    EXPECT_LT(sim_only.size(), properties().size());
    EXPECT_TRUE(runProperties("no-such-property").empty());
}

// ---------------------------------------------------------------- fuzzer

TEST(Fuzzer, GenerationIsDeterministicAndKindDiverse)
{
    FuzzOptions opts;
    opts.seed = 42;
    opts.quick = true;
    Fuzzer a(opts);
    Fuzzer b(opts);
    std::set<FuzzKind> kinds;
    for (std::uint64_t i = 0; i < 40; ++i) {
        FuzzCase ca = a.generate(i);
        FuzzCase cb = b.generate(i);
        EXPECT_EQ(json::write(ca.toJson()), json::write(cb.toJson()))
            << "case " << i;
        kinds.insert(ca.kind);
    }
    EXPECT_EQ(kinds.size(), 4u) << "generator never hit some engine";
}

TEST(Fuzzer, ClusterCasesDrawEveryRouterPolicy)
{
    FuzzOptions opts;
    opts.seed = 11;
    opts.quick = true;
    Fuzzer fuzzer(opts);
    std::set<cluster::RouterPolicy> policies;
    std::size_t largest = 0;
    for (std::uint64_t i = 0; i < 400; ++i) {
        FuzzCase c = fuzzer.generate(i);
        if (c.kind != FuzzKind::Cluster)
            continue;
        policies.insert(c.cluster.router);
        const std::vector<cluster::ReplicaSpec> &reps = c.cluster.replicas;
        largest = std::max(largest, reps.size());
        EXPECT_LE(reps.size(), 5u);
        // Distinct clocks give the weighted router distinct weights.
        for (std::size_t a = 0; a < reps.size(); ++a) {
            for (std::size_t b = a + 1; b < reps.size(); ++b)
                EXPECT_NE(reps[a].clock, reps[b].clock) << "case " << i;
        }
    }
    EXPECT_EQ(policies.size(), 4u);
    EXPECT_EQ(largest, 5u);
}

TEST(Fuzzer, CaseJsonRoundTripsForEveryKind)
{
    FuzzOptions opts;
    opts.seed = 7;
    opts.quick = true;
    Fuzzer fuzzer(opts);
    std::set<FuzzKind> seen;
    for (std::uint64_t i = 0; i < 40 && seen.size() < 4; ++i) {
        FuzzCase c = fuzzer.generate(i);
        if (!seen.insert(c.kind).second)
            continue;
        FuzzCase reparsed = FuzzCase::fromJson(c.toJson());
        EXPECT_EQ(json::write(reparsed.toJson()),
                  json::write(c.toJson()))
            << fuzzKindName(c.kind);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Fuzzer, GraphJsonRejectsMalformedDocuments)
{
    EXPECT_THROW(graphFromJson(json::parse("{}")), FatalError);
    EXPECT_THROW(
        FuzzCase::fromJson(json::parse(R"({"kind":"warp"})")),
        FatalError);
    // A repro seed no uint64_t holds fails cleanly instead of casting.
    EXPECT_THROW(
        FuzzCase::fromJson(json::parse(R"({"kind":"sim","seed":-1})")),
        FatalError);
}

TEST(Fuzzer, HealthyEnginesSurviveAQuickCampaign)
{
    FuzzOptions opts;
    opts.seed = 3;
    opts.cases = 20;
    opts.quick = true;
    opts.reproDir = testing::TempDir();
    FuzzReport report = Fuzzer(opts).run();
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_EQ(report.casesRun, 20u);
    EXPECT_EQ(report.reproPath, "");
}

TEST(Fuzzer, TraceOracleAcceptsDocumentLevelErrors)
{
    // The reader's own document-level diagnostics blame no record.
    for (const char *doc : {"{}", "{\"traceEvents\": 3}", "7"}) {
        try {
            trace::fromChromeText(doc);
            ADD_FAILURE() << "accepted " << doc;
        } catch (const FatalError &err) {
            EXPECT_FALSE(blamesEventWithoutIndex(err.what())) << err.what();
        }
    }
    EXPECT_FALSE(blamesEventWithoutIndex(
        "chrome trace: missing 'traceEvents' member (and the document "
        "is not a bare event array)"));
    EXPECT_FALSE(blamesEventWithoutIndex(
        "chrome trace: event 12: json: missing key 'ts'"));
    // An indexed message may say "event" again in its detail.
    EXPECT_FALSE(blamesEventWithoutIndex(
        "chrome trace: event 0: event is not a JSON object"));

    // Seed 2, case 1681 of the quick campaign hit that message.
    FuzzOptions opts;
    opts.seed = 2;
    opts.quick = true;
    Fuzzer fuzzer(opts);
    FuzzCase c = fuzzer.generate(1681);
    ASSERT_EQ(c.kind, FuzzKind::Trace);
    std::vector<std::string> problems = fuzzer.runCase(c);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(Fuzzer, TraceOracleAcceptsANonObjectEvent)
{
    // A valid document whose event is not an object: the reader's
    // indexed diagnostic must pass the ingestion oracle.
    const char *doc = "{\"skipsimMeta\":{},\"traceEvents\":[17]}";
    try {
        trace::fromChromeText(doc);
        ADD_FAILURE() << "accepted " << doc;
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("event 0:"),
                  std::string::npos)
            << err.what();
        EXPECT_FALSE(blamesEventWithoutIndex(err.what())) << err.what();
    }
    FuzzCase c;
    c.kind = FuzzKind::Trace;
    c.chromeText = doc;
    std::vector<std::string> problems = Fuzzer(FuzzOptions{}).runCase(c);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(Fuzzer, TraceCasesReachTheNestingCapAndStayClean)
{
    // Some generated trace cases nest an args member in balanced
    // brackets: those past the cap are rejected with the parser's
    // nesting diagnostic, those below it can still ingest, and every
    // case passes the ingestion oracle. Byte mutations break most
    // documents, so enough cases are drawn to see both outcomes.
    FuzzOptions opts;
    opts.seed = 1;
    opts.quick = true;
    Fuzzer fuzzer(opts);
    std::size_t capped = 0;
    std::size_t nested_ingested = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        FuzzCase c = fuzzer.generate(i);
        if (c.kind != FuzzKind::Trace)
            continue;
        std::vector<std::string> problems = fuzzer.runCase(c);
        EXPECT_TRUE(problems.empty()) << i << ": " << problems.front();
        const bool nested =
            c.chromeText.find("\"nest\":") != std::string::npos;
        try {
            trace::Trace t = trace::fromChromeText(c.chromeText);
            if (nested && t.size() > 0)
                ++nested_ingested;
        } catch (const FatalError &err) {
            if (std::string(err.what()).find("nesting deeper than 512") !=
                std::string::npos)
                ++capped;
        }
    }
    EXPECT_GT(capped, 0u);
    EXPECT_GT(nested_ingested, 0u);
}

TEST(Fuzzer, TraceOracleFlagsUnindexedEventBlame)
{
    EXPECT_TRUE(blamesEventWithoutIndex("event is not a JSON object"));
    EXPECT_TRUE(blamesEventWithoutIndex("chrome trace: event: bad 'ts'"));
    EXPECT_TRUE(blamesEventWithoutIndex("chrome trace: bad event"));
    EXPECT_TRUE(blamesEventWithoutIndex(
        "chrome trace: event array ok, but event lacks 'ph'"));
    // Only the "event N:" form names the record a message is about.
    EXPECT_TRUE(blamesEventWithoutIndex(
        "chrome trace: event 3 is fine, but event lacks 'ph'"));
}

/** Corrupt a trace the way a broken engine would: append a kernel
 *  with a negative duration and a bogus correlation id. */
void
breakTrace(trace::Trace &t)
{
    trace::TraceEvent bad =
        makeEvent(EventKind::Kernel, "corrupted_kernel", 10, -100,
                  987654321);
    t.add(bad);
}

TEST(Fuzzer, BrokenBuildShrinksToMinimalReproOnDisk)
{
    FuzzOptions opts;
    opts.seed = 1;
    opts.cases = 10;
    opts.quick = true;
    opts.jobs = 2;
    opts.reproDir = testing::TempDir();
    opts.traceMutator = breakTrace;
    Fuzzer fuzzer(opts);

    FuzzReport report = fuzzer.run();
    ASSERT_FALSE(report.ok());
    ASSERT_TRUE(report.shrunk);
    EXPECT_EQ(report.minimal.kind, FuzzKind::Sim);

    // Greedy shrinking must reach a near-minimal sim case: the
    // corruption fires on every graph, so almost everything can go.
    EXPECT_LE(report.minimal.sizeScore(), 5u) << report.render();

    // The minimal case still fails under the broken build...
    EXPECT_FALSE(fuzzer.runCase(report.minimal).empty());
    // ...and passes on the healthy engines, pinning the blame.
    FuzzOptions healthy_opts = opts;
    healthy_opts.traceMutator = nullptr;
    EXPECT_TRUE(Fuzzer(healthy_opts).runCase(report.minimal).empty());

    // The repro on disk replays to the same case.
    ASSERT_FALSE(report.reproPath.empty());
    FuzzCase replayed =
        FuzzCase::fromJson(json::parseFile(report.reproPath));
    EXPECT_EQ(json::write(replayed.toJson()),
              json::write(report.minimal.toJson()));
    std::remove(report.reproPath.c_str());
}

TEST(Fuzzer, ContinuousOnlyFailureShrinksItsContinuousConfig)
{
    // A broken continuous walk: every result it reports is off by one
    // token per second. Only serving cases run diffContinuous, and
    // every edit of their continuous config still fails, so shrinking
    // must cut that config down, not only the serving fields.
    FuzzOptions opts;
    opts.seed = 1;
    opts.cases = 20;
    opts.quick = true;
    opts.jobs = 2;
    opts.reproDir = testing::TempDir();
    opts.continuousMutator = [](serving::ContinuousResult &r) {
        r.tokensPerSec += 1.0;
    };
    Fuzzer fuzzer(opts);

    FuzzReport report = fuzzer.run();
    ASSERT_FALSE(report.ok());
    ASSERT_TRUE(report.shrunk);
    ASSERT_EQ(report.minimal.kind, FuzzKind::Serving) << report.render();
    const serving::ContinuousConfig drawn =
        fuzzer.generate(report.firstFailureIndex).continuous;
    const serving::ContinuousConfig &shrunk = report.minimal.continuous;
    EXPECT_LT(shrunk.horizonSec, drawn.horizonSec);
    EXPECT_LE(shrunk.horizonSec, 0.01);
    EXPECT_EQ(shrunk.maxActive, 1);
    EXPECT_EQ(shrunk.genTokens, 1);
    EXPECT_EQ(shrunk.chunkTokens, 0);
    EXPECT_EQ(shrunk.seed, drawn.seed);
    EXPECT_LT(report.minimal.sizeScore(),
              fuzzer.generate(report.firstFailureIndex).sizeScore());

    // The repro on disk replays to the same case, which still fails
    // under the broken walk and passes on the healthy one.
    ASSERT_FALSE(report.reproPath.empty());
    FuzzCase replayed =
        FuzzCase::fromJson(json::parseFile(report.reproPath));
    EXPECT_EQ(json::write(replayed.toJson()),
              json::write(report.minimal.toJson()));
    std::vector<std::string> problems = fuzzer.runCase(replayed);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("oracle: continuous tokensPerSec"),
              std::string::npos)
        << problems[0];
    FuzzOptions healthy_opts = opts;
    healthy_opts.continuousMutator = nullptr;
    EXPECT_TRUE(Fuzzer(healthy_opts).runCase(replayed).empty());
    std::remove(report.reproPath.c_str());
}

TEST(Fuzzer, ReproDirectoryIsCreatedAndWriteFailuresKeepTheReport)
{
    // A missing nested directory is created for the repro.
    const std::filesystem::path base =
        std::filesystem::path(testing::TempDir()) / "skipsim_repro_dirs";
    std::filesystem::remove_all(base);
    FuzzOptions opts;
    opts.seed = 1;
    opts.cases = 4;
    opts.quick = true;
    opts.traceMutator = breakTrace;
    opts.reproDir = (base / "a" / "b").string();
    FuzzReport report = Fuzzer(opts).run();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.reproError.empty()) << report.reproError;
    EXPECT_TRUE(std::filesystem::exists(report.reproPath))
        << report.reproPath;
    EXPECT_NE(report.render().find("written to " + report.reproPath),
              std::string::npos)
        << report.render();

    // Under a regular file no directory can be made: the campaign still
    // reports its failures, its first failing case and the write error.
    const std::filesystem::path file = base / "plain_file";
    std::FILE *out = std::fopen(file.string().c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fclose(out);
    opts.reproDir = (file / "nested").string();
    report = Fuzzer(opts).run();
    EXPECT_GT(report.failures, 0u);
    EXPECT_FALSE(report.firstProblems.empty());
    EXPECT_NE(report.reproError.find("cannot open file"), std::string::npos)
        << report.reproError;
    const std::string rendered = report.render();
    EXPECT_NE(rendered.find("first failure: case"), std::string::npos)
        << rendered;
    EXPECT_NE(rendered.find(report.reproError), std::string::npos)
        << rendered;
    std::filesystem::remove_all(base);
}

TEST(Fuzzer, ShrinkIsIdempotentOnAlreadyMinimalCases)
{
    FuzzOptions opts;
    opts.quick = true;
    opts.traceMutator = breakTrace;
    Fuzzer fuzzer(opts);
    FuzzCase tiny;
    tiny.kind = FuzzKind::Sim;
    tiny.seed = 5;
    workload::OpNode node;
    node.name = "op";
    node.cpuNs = 1000.0;
    tiny.graph.roots.push_back(node);
    ASSERT_FALSE(fuzzer.runCase(tiny).empty());
    FuzzCase shrunk = fuzzer.shrink(tiny);
    EXPECT_EQ(shrunk.sizeScore(), tiny.sizeScore());
}

// ---------------------------------------------------------- codec parity

/** The error text of reading @p text as a trace, "" when accepted. */
std::string
traceError(const std::string &text)
{
    try {
        trace::fromChromeText(text);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/** An "X" kernel event at @p ts_us lasting @p dur_us, as text. */
std::string
kernelEvent(const std::string &ts_us, const std::string &dur_us)
{
    return R"({"ph":"X","name":"k","cat":"kernel","ts":)" + ts_us +
        R"(,"dur":)" + dur_us + "}";
}

TEST(ChromeCodec, KinetoOrderFixturesMatchTheDomReader)
{
    // Kineto-shaped inputs: microsecond-only fields, flush order rather
    // than time order, foreign categories and phases, counters with
    // arbitrary series names, the bare-array form, escapes.
    const std::vector<std::string> fixtures = {
        R"({"traceEvents":[
            {"ph":"X","name":"gemm","cat":"kernel","ts":30.0,"dur":5.0,
             "pid":0,"tid":1007,"args":{"correlation":9,"stream":7,
             "External id":12,"grid":[1,2,1]}},
            {"ph":"X","name":"aten::linear","cat":"cpu_op","ts":1.0,
             "dur":40.0,"tid":3},
            {"ph":"X","name":"Memcpy HtoD","cat":"gpu_memcpy","ts":50.0,
             "dur":2.0,"pid":0,"tid":1000,"args":{"correlation":11}},
            {"ph":"X","name":"cudaLaunchKernel","cat":"cuda_runtime",
             "ts":20.0,"dur":2.0,"tid":3,"args":{"correlation":9}},
            {"ph":"X","name":"py","cat":"python_function","ts":0,"dur":1},
            {"ph":"M","name":"process_name","args":{"name":"python"}},
            {"ph":"C","name":"GPU mem","ts":2.5,"pid":0,"tid":0,
             "args":{"label":"x","bytes":4096,"total":1}},
            {"ph":"I","name":"marker","ts":1.0,"tid":3},
            {"ph":"f","id":4,"ts":1}],
           "displayTimeUnit":"ms","deviceProperties":[{"id":0}]})",
        R"([{"ph":"X","name":"op\u00e9\n","cat":"cpu_op","ts":0,"dur":1},
            {"ph":"X","name":"k","cat":"kernel","ts":2.0,"dur":1.0,
             "tid":1007,"args":{"correlation":1,"stream":7}}])",
        R"({"skipsimMeta":{"model":"GPT2","model":"Llama"},
            "traceEvents":[{"ph":"i","name":"m","ts_ns":5,"s":"t"}]})",
        R"({"skipsimMeta":{"kind":"spans","e2e_slo_ms":"900"},
            "traceEvents":[
            {"ph":"b","cat":"request","id":0,"name":"request","ts":0},
            {"ph":"X","name":"request","cat":"cpu_op","ts":0,"dur":2,
             "tid":0,"args":{"ts_ns":0,"dur_ns":2000,"span_id":0,
             "parent":-1,"request":0,"replica":-1}},
            {"ph":"X","name":"route","cat":"cpu_op","ts":1,"dur":0,
             "args":{"ts_ns":1000,"dur_ns":0,"span_id":1,"parent":0,
             "request":0,"replica":2,"detail":"lor \"tie\""}}]})",
    };
    for (const std::string &text : fixtures)
        EXPECT_EQ(diffChromeCodec(text), "") << text;
}

TEST(ChromeCodec, KinetoShapedTraceRoundTrips)
{
    // A simulated step written track by track, as Kineto lists events:
    // ids end out of time order once the reader sorts.
    workload::BuildOptions opts;
    trace::Trace step =
        sim::Simulator(hw::platforms::intelH100())
            .run(workload::buildPrefillGraph(workload::gpt2(), opts))
            .trace;
    std::vector<trace::TraceEvent> events = step.events();
    std::stable_sort(events.begin(), events.end(),
                     [](const trace::TraceEvent &a,
                        const trace::TraceEvent &b) {
                         return a.onGpu() < b.onGpu();
                     });
    trace::Trace kineto;
    kineto.setMeta("model", "GPT2");
    for (trace::TraceEvent &event : events)
        kineto.add(std::move(event));
    trace::CounterEvent counter;
    counter.name = "queue";
    counter.value = 2.5;
    kineto.addCounter(counter);
    trace::InstantEvent instant;
    instant.name = "fault";
    instant.tsNs = (std::int64_t{1} << 53) + 1; // prints as a double
    kineto.addInstant(instant);
    EXPECT_EQ(diffChromeCodec(kineto), "");
    EXPECT_EQ(trace::fromChromeText(trace::toChromeText(kineto)).size(),
              kineto.size());
}

TEST(ChromeCodec, SpanLogsMatchTheDomWriter)
{
    obs::SpanLog log;
    log.setMeta("ttft_slo_ms", "250");
    for (std::size_t id = 0; id < 3; ++id) {
        const double t = 1000.0 * static_cast<double>(id);
        log.onArrival(id, t);
        log.onRoute(id, t + 100.0, static_cast<int>(id), "lor \"pick\"");
        log.onAdmit(id, t + 300.0, 50.0, false);
        log.onFirstToken(id, t + 500.0);
        log.onDecodeIter(id, t + 500.0, t + 550.0, 3);
        log.onComplete(id, t + 610.0);
    }
    EXPECT_EQ(diffChromeCodec(log), "");
    obs::SpanFile file = obs::spansFromChromeText(log.toChromeText());
    EXPECT_EQ(obs::toChromeText(file), log.toChromeText());
}

TEST(ChromeCodec, SyntaxErrorAfterABadEventWins)
{
    // Event 0 fails (negative duration), but the text breaks later:
    // parsing first would report the syntax error, so the codec does.
    const std::string text =
        R"({"traceEvents":[)" + kernelEvent("5", "-3") + ",{";
    const std::string error = traceError(text);
    EXPECT_EQ(error.rfind("json parse error at 1:", 0), 0u) << error;
    EXPECT_EQ(diffChromeCodec(text), "");
    // Complete, the same document blames the event.
    const std::string whole =
        R"({"traceEvents":[)" + kernelEvent("5", "-3") + "]}";
    EXPECT_NE(traceError(whole).find("chrome trace: event 0: negative"),
              std::string::npos);
    EXPECT_EQ(diffChromeCodec(whole), "");
}

TEST(ChromeCodec, MetaAfterTraceEventsIsCheckedBeforeTheEvents)
{
    const std::string text = R"({"traceEvents":[)" + kernelEvent("5", "-3") +
        R"(],"skipsimMeta":{"model":1}})";
    EXPECT_EQ(traceError(text), "json: value is not a string");
    EXPECT_EQ(diffChromeCodec(text), "");
    const std::string not_object =
        R"({"traceEvents":[],"skipsimMeta":[]})";
    EXPECT_EQ(traceError(not_object), "json: value is not an object");
    EXPECT_EQ(diffChromeCodec(not_object), "");
    // A missing or non-array traceEvents comes next, before any event.
    const std::string events_late = R"({"traceEvents":[)" +
        kernelEvent("5", "-3") + R"(],"traceEvents":{}})";
    EXPECT_EQ(traceError(events_late),
              "chrome trace: 'traceEvents' must be an array");
    EXPECT_EQ(diffChromeCodec(events_late), "");
}

TEST(ChromeCodec, RepeatedRootTraceEventsKeepsOnlyTheLastArray)
{
    const std::string text = R"({"traceEvents":[)" + kernelEvent("5", "-3") +
        R"(,7],"skipsimMeta":{},"traceEvents":[)" + kernelEvent("1", "2") +
        "]}";
    trace::Trace t = trace::fromChromeText(text);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.events()[0].tsBeginNs, 1000);
    EXPECT_EQ(diffChromeCodec(text), "");
    // The last array's first failing event is the one reported.
    const std::string bad_last = R"({"traceEvents":[)" +
        kernelEvent("1", "2") + R"(],"traceEvents":[)" +
        kernelEvent("1", "2") + "," + kernelEvent("5", "-3") + "]}";
    EXPECT_NE(traceError(bad_last).find("chrome trace: event 1: "),
              std::string::npos)
        << traceError(bad_last);
    EXPECT_EQ(diffChromeCodec(bad_last), "");
}

TEST(ChromeCodec, RepeatedMemberTakesItsLastValueAtItsFirstPosition)
{
    const std::string text =
        R"({"traceEvents":[{"ph":"X","name":"k","cat":"kernel","ts":1,)"
        R"("dur":2,"ts":7,"args":{"stream":3},"args":{"stream":4}},)"
        R"({"ph":"C","name":"c","ts":1,)"
        R"("args":{"a":"x","b":2,"a":5,"b":"y"}}]})";
    trace::Trace t = trace::fromChromeText(text);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.events()[0].tsBeginNs, 7000);
    EXPECT_EQ(t.events()[0].streamId, 4);
    // "a" sits first and ends numeric; "b" ends a string.
    ASSERT_EQ(t.counters().size(), 1u);
    EXPECT_EQ(t.counters()[0].value, 5.0);
    EXPECT_EQ(diffChromeCodec(text), "");
}

TEST(ChromeCodec, NestingCapHoldsInsideArgs)
{
    // Root object, traceEvents array, event and args make four levels.
    auto with_depth = [](int total) {
        std::string nest;
        for (int i = 4; i < total; ++i)
            nest += "[";
        nest += "0";
        nest.append(static_cast<std::size_t>(total - 4), ']');
        return R"({"traceEvents":[{"ph":"X","name":"k","cat":"kernel",)"
               R"("ts":1,"dur":2,"args":{"n":)" +
            nest + "}}]}";
    };
    EXPECT_EQ(traceError(with_depth(512)), "");
    EXPECT_EQ(diffChromeCodec(with_depth(512)), "");
    const std::string error = traceError(with_depth(513));
    EXPECT_NE(error.find("nesting deeper than 512 levels"),
              std::string::npos)
        << error;
    EXPECT_EQ(diffChromeCodec(with_depth(513)), "");
}

TEST(ChromeCodec, CrlfLineAndColumnPositions)
{
    // A CR before each LF ends the line with it; a lone CR is a column.
    const std::string text =
        "{\r\n  \"traceEvents\": [\r\n  \r  ?\r\n]}";
    EXPECT_EQ(traceError(text), "json parse error at 3:6: invalid number");
    EXPECT_EQ(diffChromeCodec(text), "");
}

} // namespace
} // namespace skipsim::check

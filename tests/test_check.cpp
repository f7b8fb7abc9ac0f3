/**
 * @file
 * Tests of the correctness subsystem itself (skipsim::check): the
 * trace invariant checker against hand-built violations and mutated
 * golden traces, the metamorphic property catalog, and the fuzz
 * harness (deterministic generation, JSON round trips, and the
 * fail -> shrink -> repro-on-disk path driven by a trace mutator that
 * stands in for a broken engine build).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "check/fuzzer.hh"
#include "check/invariants.hh"
#include "check/mdc.hh"
#include "check/properties.hh"
#include "common/logging.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "trace/chrome.hh"
#include "trace/event.hh"
#include "trace/trace.hh"

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

TEST(Fuzzer, TraceOracleFlagsUnindexedEventBlame)
{
    EXPECT_TRUE(blamesEventWithoutIndex("event is not a JSON object"));
    EXPECT_TRUE(blamesEventWithoutIndex("chrome trace: event: bad 'ts'"));
    EXPECT_TRUE(blamesEventWithoutIndex("chrome trace: bad event"));
    EXPECT_TRUE(blamesEventWithoutIndex(
        "chrome trace: event array ok, but event lacks 'ph'"));
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

} // namespace
} // namespace skipsim::check

/**
 * @file
 * Cluster simulator tests: router policy behavior, spec validation and
 * JSON round trips, the determinism contract (byte-identical reports
 * at any worker count), KV-cache admission control, the
 * fault-injection envelope (a crashed replica degrades the tail but
 * the router re-routes and most of the work still completes), the
 * staged-dispatch bandwidth contention coupling, and the shared cost
 * model's read-only contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "check/scan_router.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/sharded_engine.hh"
#include "exec/pool.hh"
#include "exec/registry.hh"
#include "exec/run_spec.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "kv/tier.hh"
#include "obs/collector.hh"
#include "obs/span.hh"
#include "scenario/registry.hh"
#include "serving/arrival.hh"
#include "serving/continuous.hh"
#include "workload/memory.hh"
#include "workload/model_config.hh"

#include "start_line.hh"

using namespace skipsim;

namespace
{

/** A small, fast-to-simulate baseline scenario. */
cluster::ClusterSpec
smallSpec(int replicas = 2)
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

std::string
reportText(const cluster::ClusterResult &result)
{
    return json::write(result.toJson());
}

/** @p run must throw a FatalError whose message names @p field. */
void
expectFatalNaming(const std::function<void()> &run,
                  const std::string &field)
{
    try {
        run();
        ADD_FAILURE() << "accepted a non-finite " << field;
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
            << err.what();
    }
}

/** Loading smallSpec() with member @p key set to @p value must fail
 *  naming @p field. */
void
expectMemberRejected(const std::string &key, const std::string &value,
                     const std::string &field)
{
    json::Object obj = smallSpec().toJson().asObject();
    obj.set(key, json::parse(value));
    expectFatalNaming(
        [&] { cluster::ClusterSpec::fromJson(json::Value(obj)); }, field);
}

} // namespace

// ---------------------------------------------------------------------
// Router policies
// ---------------------------------------------------------------------

TEST(Router, RoundRobinCyclesAndSkipsDownReplicas)
{
    cluster::Router router(cluster::RouterPolicy::RoundRobin,
                           {1.0, 1.0, 1.0});
    EXPECT_EQ(router.pick(0, {}), 0u);
    EXPECT_EQ(router.pick(0, {}), 1u);
    EXPECT_EQ(router.pick(0, {}), 2u);
    EXPECT_EQ(router.pick(0, {}), 0u);
    router.markDown(1);
    EXPECT_EQ(router.pick(0, {}), 2u);
    EXPECT_EQ(router.pick(0, {}), 0u);
    EXPECT_EQ(router.pick(0, {}), 2u);
}

TEST(Router, LeastOutstandingPicksArgminWithLowIndexTies)
{
    cluster::Router router(cluster::RouterPolicy::LeastOutstanding,
                           {1.0, 1.0, 1.0});
    EXPECT_EQ(router.pick(0, {}), 0u); // all zero: lowest index
    router.onDispatch(0);
    router.onDispatch(0);
    router.onDispatch(1);
    EXPECT_EQ(router.pick(0, {}), 2u);
    router.onDispatch(2);
    EXPECT_EQ(router.pick(0, {}), 1u);
    router.onSettled(0);
    router.onSettled(0);
    EXPECT_EQ(router.pick(0, {}), 0u);
}

TEST(Router, WeightedThroughputNormalizesByCapacity)
{
    // Replica 1 has 4x the capacity: with 2 vs 1 outstanding the
    // weighted load is 2/1 vs 1/4, so the big replica still wins.
    cluster::Router router(cluster::RouterPolicy::WeightedThroughput,
                           {1.0, 4.0});
    router.onDispatch(0);
    router.onDispatch(0);
    router.onDispatch(1);
    EXPECT_EQ(router.pick(0, {}), 1u);
}

TEST(Router, AffinityPinsSessionsAndFallsBackWhenHomeIsDown)
{
    cluster::Router router(cluster::RouterPolicy::SessionAffinity,
                           {1.0, 1.0, 1.0});
    EXPECT_EQ(router.pick(4, {}), 1u); // 4 % 3
    EXPECT_EQ(router.pick(4, {}), 1u); // sticky
    router.markDown(1);
    std::size_t fallback = router.pick(4, {});
    EXPECT_NE(fallback, 1u);
    EXPECT_NE(fallback, cluster::Router::npos());
    router.markUp(1);
    EXPECT_EQ(router.pick(4, {}), 1u);
}

TEST(Router, NoEligibleReplicaReturnsNpos)
{
    cluster::Router router(cluster::RouterPolicy::LeastOutstanding,
                           {1.0, 1.0});
    router.markDown(0);
    EXPECT_EQ(router.pick(0, {1}), cluster::Router::npos());
    EXPECT_THROW(cluster::Router(cluster::RouterPolicy::RoundRobin, {}),
                 FatalError);
    EXPECT_THROW(cluster::Router(cluster::RouterPolicy::RoundRobin,
                                 {1.0, 0.0}),
                 FatalError);
}

TEST(Router, RejectsNonFiniteWeights)
{
    // +inf marks an ineligible replica inside the router, so a weight
    // that could produce one (or NaN) is refused up front.
    for (double bad : {std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(
            cluster::Router(cluster::RouterPolicy::WeightedThroughput,
                            {1.0, bad}),
            FatalError)
            << bad;
    }
}

TEST(Router, AffinityFallsBackWhenHomeIsExcludedOrMissesTheClass)
{
    cluster::Router router(cluster::RouterPolicy::SessionAffinity,
                           {1.0, 1.0, 1.0});
    router.setClasses({cluster::kPrefillClass, cluster::kDecodeClass,
                       cluster::kPrefillClass | cluster::kDecodeClass});
    router.onDispatch(2);
    // Session 1's home is replica 1: excluded, the least-loaded of the
    // rest (replica 0) takes it.
    EXPECT_EQ(router.pick(1, {1}), 0u);
    // Home 0 serves only prefill; decode work falls back to the
    // least-loaded decode-capable replica.
    EXPECT_EQ(router.pick(0, {}, cluster::kDecodeClass), 1u);
    router.onDispatch(1);
    router.onDispatch(1);
    EXPECT_EQ(router.pick(0, {}, cluster::kDecodeClass), 2u);
    EXPECT_EQ(router.pick(0, {}, cluster::kPrefillClass), 0u);
}

TEST(Router, EveryPolicyReturnsNposWhenNothingIsEligible)
{
    for (const std::string &name : cluster::routerPolicyNames()) {
        cluster::Router router(cluster::routerPolicyByName(name),
                               {1.0, 2.0, 3.0});
        router.setClasses({cluster::kPrefillClass, cluster::kPrefillClass,
                           cluster::kDecodeClass});
        router.markDown(2);
        EXPECT_EQ(router.pick(5, {}, cluster::kDecodeClass),
                  cluster::Router::npos())
            << name;
        EXPECT_EQ(router.pick(5, {0, 1}, cluster::kPrefillClass),
                  cluster::Router::npos())
            << name;
        router.markDown(0);
        router.markDown(1);
        EXPECT_EQ(router.pick(5, {}), cluster::Router::npos()) << name;
        router.markUp(1);
        EXPECT_EQ(router.pick(5, {}), 1u) << name;
    }
}

TEST(RouterDifferential, IndexedRouterMatchesTheScanOracle)
{
    // The min-tree router against the linear scan it replaced, at
    // fleet sizes that are and are not powers of two.
    for (std::size_t replicas : {1, 2, 3, 5, 7, 64, 1000, 1024, 1025}) {
        for (const std::string &name : cluster::routerPolicyNames()) {
            for (std::uint64_t seed : {1, 2, 3}) {
                std::string problem = check::diffRouters(
                    mixSeed(seed, replicas),
                    cluster::routerPolicyByName(name), replicas, 1500);
                EXPECT_EQ(problem, "");
            }
        }
    }
}

TEST(Router, PolicyNamesRoundTrip)
{
    for (const std::string &name : cluster::routerPolicyNames())
        EXPECT_STREQ(cluster::routerPolicyName(
                         cluster::routerPolicyByName(name)),
                     name.c_str());
    EXPECT_THROW(cluster::routerPolicyByName("bogus"), FatalError);
}

// ---------------------------------------------------------------------
// Spec validation and serialization
// ---------------------------------------------------------------------

TEST(ClusterSpec, ValidateRejectsInconsistentSpecs)
{
    EXPECT_NO_THROW(smallSpec().validate());

    cluster::ClusterSpec no_replicas = smallSpec();
    no_replicas.replicas.clear();
    EXPECT_THROW(no_replicas.validate(), FatalError);

    cluster::ClusterSpec bad_rate = smallSpec();
    bad_rate.arrivalRatePerSec = 0.0;
    EXPECT_THROW(bad_rate.validate(), FatalError);

    cluster::ClusterSpec bad_fault = smallSpec();
    cluster::FaultSpec fault;
    fault.replica = 99;
    bad_fault.faults.push_back(fault);
    EXPECT_THROW(bad_fault.validate(), FatalError);

    cluster::ClusterSpec bad_dispatch = smallSpec();
    bad_dispatch.dispatchUs = -1.0;
    EXPECT_THROW(bad_dispatch.validate(), FatalError);

    // A negative fault target is rejected by name, not wrapped to a
    // huge index.
    expectMemberRejected(
        "faults", R"([{"at-sec": 1, "replica": -1, "kind": "crash"}])",
        "'replica'");
}

TEST(ClusterSpecFinite, RejectsNonFiniteReplicaClock)
{
    expectMemberRejected("replicas",
                         R"([{"platform": "GH200"},
                             {"platform": "GH200", "clock": 1e999}])",
                         "replica 1 clock");
    cluster::ClusterSpec nan_clock = smallSpec();
    nan_clock.replicas[0].clock = std::nan("");
    expectFatalNaming([&] { nan_clock.validate(); }, "replica 0 clock");
}

TEST(ClusterSpecFinite, RejectsNonFiniteRate)
{
    expectMemberRejected("rate", "1e999", "rate");
    expectMemberRejected("rate", "-1e999", "rate");
}

TEST(ClusterSpecFinite, RejectsNonFiniteSweepRates)
{
    expectMemberRejected("rates", "[10, 1e999]", "sweep rate 1");
}

TEST(ClusterSpecFinite, RejectsNonFiniteHorizon)
{
    expectMemberRejected("horizon-sec", "1e999", "horizon-sec");
}

TEST(ClusterSpecFinite, RejectsNonFiniteDispatchUs)
{
    expectMemberRejected("dispatch-us", "1e999", "dispatch-us");
}

TEST(ClusterSpecFinite, RejectsNonFiniteDetectMs)
{
    expectMemberRejected("detect-ms", "1e999", "detect-ms");
}

TEST(ClusterSpecFinite, RejectsNonFiniteJitterFrac)
{
    // NaN slips past the [0, 1) range check on its own.
    cluster::ClusterSpec spec = smallSpec();
    spec.jitterFrac = std::nan("");
    expectFatalNaming([&] { spec.validate(); }, "jitter-frac");
}

TEST(ClusterSpecFinite, RejectsNonFiniteFaultTimes)
{
    expectMemberRejected(
        "faults",
        R"([{"at-sec": 1e999, "replica": 0, "kind": "crash"}])",
        "fault 0 at-sec");
    expectMemberRejected(
        "faults",
        R"([{"at-sec": 1, "replica": 0, "kind": "crash"},
            {"at-sec": 1, "replica": 1, "kind": "partition",
             "heal-sec": 1e999}])",
        "fault 1 heal-sec");
}

TEST(ClusterSpecFinite, RejectsNonFiniteFaultFactor)
{
    expectMemberRejected(
        "faults",
        R"([{"at-sec": 1, "replica": 0, "kind": "slowdown",
             "factor": 1e999}])",
        "fault 0 factor");
}

TEST(ClusterSpecFinite, RejectsNonFiniteTenantSlos)
{
    expectMemberRejected(
        "tenants", R"([{"name": "a"}, {"name": "b", "ttft-slo-ms": 1e999}])",
        "tenant 1 ttft-slo-ms");
    expectMemberRejected("tenants",
                         R"([{"name": "a", "e2e-slo-ms": 1e999}])",
                         "tenant 0 e2e-slo-ms");
}

TEST(ClusterSpecFinite, RejectsNonFiniteSpecSlos)
{
    expectMemberRejected("ttft-slo-ms", "1e999", "ttft-slo-ms");
    expectMemberRejected("e2e-slo-ms", "1e999", "e2e-slo-ms");
}

namespace
{

/** @p run must fail with a work-budget FatalError naming @p rateField
 *  and horizon-sec. */
void
expectOverBudget(const std::function<void()> &run,
                 const std::string &rateField)
{
    try {
        run();
        ADD_FAILURE() << "accepted a run over the work budget";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("work budget"), std::string::npos) << what;
        EXPECT_NE(what.find(rateField + " * horizon-sec"),
                  std::string::npos)
            << what;
    }
}

} // namespace

TEST(ClusterWorkBudget, RejectsRunawayHorizon)
{
    // cluster_smoke.json with "horizon-sec": 1e12 used to run until
    // killed, generating arrivals the whole time.
    json::Object obj = smallSpec().toJson().asObject();
    obj.set("horizon-sec", json::parse("1e12"));
    expectOverBudget(
        [&] { cluster::ClusterSpec::fromJson(json::Value(obj)); }, "rate");
}

TEST(ClusterWorkBudget, RejectsRunawaySweepRate)
{
    json::Object obj = smallSpec().toJson().asObject();
    obj.set("rates", json::parse("[40, 1e15]"));
    expectOverBudget(
        [&] { cluster::ClusterSpec::fromJson(json::Value(obj)); },
        "sweep rate 1");
}

TEST(ClusterWorkBudget, RejectsRunawayTrafficModel)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.traffic = std::make_shared<serving::PoissonProcess>(1e12, 4);
    expectOverBudget([&] { spec.validate(); }, "traffic mean rate");
}

TEST(ClusterWorkBudget, BudgetIsTwoToTheThirtyTwoExpectedArrivals)
{
    // Validation only: neither spec is simulated.
    cluster::ClusterSpec spec = smallSpec();
    spec.horizonSec = 1.0;
    spec.arrivalRatePerSec = serving::kMaxExpectedArrivals;
    EXPECT_NO_THROW(spec.validate());
    spec.horizonSec = 2.0;
    expectOverBudget([&] { spec.validate(); }, "rate");
}

TEST(ClusterWorkBudget, AdmitsTheFortySecondDatacenterRun)
{
    // ext_datacenter's full run: 1024 replicas x 30 req/s x 40 s,
    // about 1.23M arrivals, far below the budget.
    json::Object params;
    params.set("replicas", 1024.0);
    params.set("horizon-sec", 40.0);
    params.set("rate-per-replica", 30.0);
    cluster::ClusterSpec spec =
        scenario::buildScenario("datacenter", params);
    EXPECT_NO_THROW(spec.validate());
    EXPECT_DOUBLE_EQ(spec.arrivalRatePerSec * spec.horizonSec,
                     1024.0 * 30.0 * 40.0);
}

/**
 * Pending-depth law: with arrivals chained (each arrival schedules the
 * next), the 1024-replica datacenter run at a 1 s horizon keeps about
 * one iteration end per replica pending, not its ~30.6K arrivals, and
 * never more than one arrival.
 */
TEST(ClusterEngine, DatacenterPendingSetStaysNearFleetSize)
{
    json::Object params;
    params.set("replicas", 1024.0);
    params.set("sessions", static_cast<double>(1 << 20));
    params.set("horizon-sec", 1.0);
    params.set("router", std::string("least-outstanding"));
    cluster::ClusterSpec spec =
        scenario::buildScenario("datacenter", params);
    core::ShardStats stats;
    cluster::ClusterResult result =
        cluster::simulateCluster(spec, nullptr, nullptr, &stats);
    EXPECT_GT(result.offered, 30000u);
    EXPECT_LE(stats.peakPending, spec.replicas.size() + 64);
    EXPECT_EQ(stats.peakPendingArrivals, 1u);
    EXPECT_GT(stats.events, result.offered);
}

TEST(ClusterEngine, PeakPendingIsNeverReported)
{
    // The pending-depth counters are run statistics: the report
    // carries none of them.
    const std::string report =
        json::write(cluster::simulateCluster(smallSpec()).toJson());
    EXPECT_EQ(report.find("pending"), std::string::npos);
}

TEST(ClusterSpec, JsonRoundTripIsByteIdentical)
{
    cluster::ClusterSpec spec = smallSpec(3);
    spec.router = cluster::RouterPolicy::SessionAffinity;
    spec.rates = {20.0, 40.0};
    spec.jitterFrac = 0.1;
    cluster::FaultSpec fault;
    fault.atSec = 1.0;
    fault.replica = 2;
    fault.kind = cluster::FaultKind::Partition;
    fault.healSec = 2.0;
    spec.faults.push_back(fault);

    cluster::ClusterSpec back =
        cluster::ClusterSpec::fromJson(spec.toJson());
    EXPECT_EQ(json::write(spec.toJson()), json::write(back.toJson()));
}

TEST(ShardSerde, ShardsAcceptedOnImportNeverEmitted)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.dispatchUs = 5.0;
    spec.stagedDispatch = true;
    // The modelled dispatch hop is scenario identity and round-trips.
    std::string text = json::write(spec.toJson());
    EXPECT_NE(text.find("dispatch-us"), std::string::npos);
    EXPECT_NE(text.find("staged-dispatch"), std::string::npos);

    // Spec files written when runs could be sharded still load: the
    // old "shards" key is ignored, never echoed, and changes no byte
    // of the report.
    json::Object obj = spec.toJson().asObject();
    obj.set("shards", 4.0);
    cluster::ClusterSpec legacy =
        cluster::ClusterSpec::fromJson(json::Value(std::move(obj)));
    std::string echoed = json::write(legacy.toJson());
    EXPECT_EQ(echoed.find("shards"), std::string::npos);
    EXPECT_EQ(echoed, text);
    EXPECT_DOUBLE_EQ(legacy.dispatchUs, 5.0);
    EXPECT_TRUE(legacy.stagedDispatch);
    EXPECT_EQ(reportText(cluster::simulateCluster(legacy)),
              reportText(cluster::simulateCluster(spec)));

    // Defaults stay silent: a default spec mentions neither knob.
    std::string plain = json::write(smallSpec().toJson());
    EXPECT_EQ(plain.find("dispatch-us"), std::string::npos);
    EXPECT_EQ(plain.find("staged-dispatch"), std::string::npos);
}

TEST(ShardSerde, ShardThreadsAcceptedOnImportNeverEmitted)
{
    cluster::ClusterSpec spec = smallSpec();
    std::string text = json::write(spec.toJson());
    EXPECT_EQ(text.find("shard-threads"), std::string::npos);

    // The old worker-count key still loads, is never echoed, and
    // changes no byte of the report.
    json::Object obj = spec.toJson().asObject();
    obj.set("shard-threads", 2.0);
    cluster::ClusterSpec legacy =
        cluster::ClusterSpec::fromJson(json::Value(std::move(obj)));
    std::string echoed = json::write(legacy.toJson());
    EXPECT_EQ(echoed.find("shard-threads"), std::string::npos);
    EXPECT_EQ(echoed, text);
    EXPECT_EQ(reportText(cluster::simulateCluster(legacy)),
              reportText(cluster::simulateCluster(spec)));
}

TEST(ClusterSpec, RejectsSeedsNoUint64Holds)
{
    for (double bad : {-1.0, 0.5, 1e20}) {
        json::Object obj = smallSpec().toJson().asObject();
        obj.set("seed", bad);
        EXPECT_THROW(
            cluster::ClusterSpec::fromJson(json::Value(std::move(obj))),
            FatalError)
            << bad;
    }
    // 2^32 + 128 would wrap to prompt 128 through an unchecked int cast.
    expectMemberRejected("prompt", "4294967424", "'prompt'");
}

TEST(ClusterSpec, ReplicaCountFieldStampsIdenticalReplicas)
{
    json::Value doc = json::parse(R"({
        "replicas": [{"platform": "GH200", "max-active": 8,
                      "count": 3},
                     {"platform": "MI300A"}]
    })");
    cluster::ClusterSpec spec = cluster::ClusterSpec::fromJson(doc);
    ASSERT_EQ(spec.replicas.size(), 4u);
    EXPECT_EQ(spec.replicas[0].platform.name, "GH200");
    EXPECT_EQ(spec.replicas[2].maxActive, 8);
    EXPECT_EQ(spec.replicas[3].platform.name, "MI300A");
}

TEST(ClusterSpec, FleetCapRejectsHugeCountsBeforeStamping)
{
    // Without the cap, 1e12 stamped replicas exhaust memory before
    // validate() ever runs.
    for (const char *count : {"1e12", "2147483647", "2.5"}) {
        expectFatalNaming(
            [&] {
                cluster::ClusterSpec::fromJson(json::parse(
                    std::string(R"({"replicas": [{"platform": "GH200",
                                                  "count": )") +
                    count + "}]}"));
            },
            "'count'");
    }
    // The cap bounds the fleet, not each entry.
    expectFatalNaming(
        [] {
            cluster::ClusterSpec::fromJson(json::parse(R"({"replicas": [
                {"platform": "GH200"},
                {"platform": "GH200", "count": 1048576}]})"));
        },
        "'count'");
    // validate() applies the same check to programmatic specs.
    EXPECT_NO_THROW(cluster::requireFleetCap(cluster::kMaxReplicas, "n"));
    expectFatalNaming(
        [] {
            cluster::requireFleetCap(cluster::kMaxReplicas + 1,
                                     "'replicas'");
        },
        "'replicas'");
}

TEST(ClusterSpec, ScenarioExpansionFollowsSweepSeedDiscipline)
{
    cluster::ClusterSpec spec = smallSpec();
    EXPECT_EQ(spec.scenarioCount(), 1u);
    spec.rates = {10.0, 20.0, 30.0};
    EXPECT_EQ(spec.scenarioCount(), 3u);

    cluster::ClusterSpec second = spec.scenarioAt(1);
    EXPECT_DOUBLE_EQ(second.arrivalRatePerSec, 20.0);
    EXPECT_TRUE(second.rates.empty());
    EXPECT_EQ(second.seed, mixSeed(spec.seed, 1));
    EXPECT_THROW(spec.scenarioAt(3), FatalError);
}

// ---------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------

TEST(ClusterSim, RepeatedRunsAreByteIdentical)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.jitterFrac = 0.05; // jitter must be seeded, not wall-clock
    std::string first = reportText(cluster::simulateCluster(spec));
    std::string second = reportText(cluster::simulateCluster(spec));
    EXPECT_EQ(first, second);
}

TEST(ClusterSim, RateSweepIsByteIdenticalAtAnyWorkerCount)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.rates = {20.0, 40.0, 60.0, 80.0};

    cluster::CostCache costs;
    costs.build(spec);

    auto sweep = [&](int workers) {
        std::vector<std::string> out(spec.scenarioCount());
        exec::Pool pool(workers);
        testutil::StartLine line(pool, out.size());
        pool.run(out.size(), [&](std::size_t i) {
            line.arrive();
            out[i] = reportText(
                cluster::simulateCluster(spec.scenarioAt(i), costs));
        });
        return out;
    };
    EXPECT_EQ(sweep(1), sweep(4));
}

TEST(ClusterSim, SimulateRejectsUnexpandedSweeps)
{
    cluster::ClusterSpec spec = smallSpec();
    spec.rates = {10.0, 20.0};
    EXPECT_THROW(cluster::simulateCluster(spec), FatalError);
}

// ---------------------------------------------------------------------
// Cluster behavior
// ---------------------------------------------------------------------

TEST(ClusterSim, HealthyClusterCompletesNearlyAllOfferedLoad)
{
    cluster::ClusterResult result =
        cluster::simulateCluster(smallSpec());
    EXPECT_GT(result.offered, 100u);
    // Only the end-of-horizon tail may be unfinished.
    EXPECT_GE(result.completed + result.lost, result.offered);
    EXPECT_GT(static_cast<double>(result.completed),
              0.9 * static_cast<double>(result.offered));
    EXPECT_EQ(result.rerouted, 0u);
    EXPECT_GT(result.p50TtftNs, 0.0);
    EXPECT_LE(result.p50TtftNs, result.p95TtftNs);
    EXPECT_LE(result.p95TtftNs, result.p99TtftNs);
    EXPECT_LE(result.p50E2eNs, result.p99E2eNs);
    EXPECT_GT(result.sloAttainment, 0.8);
    ASSERT_EQ(result.replicas.size(), 2u);
    for (const cluster::ReplicaStats &rep : result.replicas) {
        EXPECT_FALSE(rep.crashed);
        EXPECT_GT(rep.utilization, 0.0);
        EXPECT_LE(rep.utilization, 1.0);
        EXPECT_GT(rep.peakKvBytes, 0.0);
    }
}

TEST(ClusterSim, CrashMidHorizonDegradesTailButReroutesInFlight)
{
    cluster::ClusterSpec healthy = smallSpec(4);
    healthy.arrivalRatePerSec = 120.0;
    healthy.horizonSec = 4.0;

    cluster::ClusterSpec faulted = healthy;
    cluster::FaultSpec crash;
    crash.atSec = 2.0;
    crash.replica = 1;
    crash.kind = cluster::FaultKind::Crash;
    faulted.faults.push_back(crash);

    cluster::CostCache costs;
    costs.build(healthy);
    cluster::ClusterResult base =
        cluster::simulateCluster(healthy, costs);
    cluster::ClusterResult hit =
        cluster::simulateCluster(faulted, costs);

    // Same seed, same arrivals: the fault only changes service.
    EXPECT_EQ(base.offered, hit.offered);
    EXPECT_TRUE(hit.replicas[1].crashed);
    EXPECT_GT(hit.rerouted, 0u);
    EXPECT_GT(hit.replicas[1].rerouted, 0u);
    // The tail pays for the detection delay...
    EXPECT_GT(hit.p99TtftNs, base.p99TtftNs);
    EXPECT_LT(hit.sloAttainment, base.sloAttainment);
    // ...but the router re-routes, so most work still completes.
    EXPECT_GT(static_cast<double>(hit.completed),
              0.75 * static_cast<double>(base.completed));
    // A dead replica stops accruing busy time.
    EXPECT_LT(hit.replicas[1].utilization,
              base.replicas[1].utilization);
}

TEST(ClusterSim, PartitionHealsAndLimboRequestsComplete)
{
    cluster::ClusterSpec spec = smallSpec(2);
    cluster::FaultSpec part;
    part.atSec = 1.0;
    part.replica = 0;
    part.kind = cluster::FaultKind::Partition;
    part.healSec = 2.0;
    spec.faults.push_back(part);

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    EXPECT_FALSE(result.replicas[0].crashed);
    // The partitioned replica comes back and keeps serving.
    EXPECT_GT(result.replicas[0].completed, 0u);
    EXPECT_GT(static_cast<double>(result.completed),
              0.8 * static_cast<double>(result.offered));
}

TEST(ClusterSim, SlowdownFaultShiftsLoadAwayUnderLeastOutstanding)
{
    cluster::ClusterSpec spec = smallSpec(2);
    spec.router = cluster::RouterPolicy::LeastOutstanding;
    cluster::FaultSpec slow;
    slow.atSec = 0.5;
    slow.replica = 0;
    slow.kind = cluster::FaultKind::Slowdown;
    slow.factor = 4.0;
    spec.faults.push_back(slow);

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    // The slow replica's queue backs up, so LOR routes around it.
    EXPECT_LT(result.replicas[0].completed,
              result.replicas[1].completed);
}

TEST(ClusterSim, AffinityConcentratesASingleSession)
{
    cluster::ClusterSpec spec = smallSpec(4);
    spec.router = cluster::RouterPolicy::SessionAffinity;
    spec.sessions = 1; // every request shares one session id
    spec.arrivalRatePerSec = 30.0;

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    std::size_t max_routed = 0;
    for (const cluster::ReplicaStats &rep : result.replicas)
        max_routed = std::max(max_routed, rep.routed);
    // The home replica takes everything the admission loop lets it.
    EXPECT_GT(static_cast<double>(max_routed),
              0.9 * static_cast<double>(result.offered));
}

TEST(ClusterSim, RoundRobinSpreadsLoadEvenly)
{
    cluster::ClusterSpec spec = smallSpec(4);
    spec.router = cluster::RouterPolicy::RoundRobin;
    cluster::ClusterResult result = cluster::simulateCluster(spec);
    std::size_t lo = result.offered, hi = 0;
    for (const cluster::ReplicaStats &rep : result.replicas) {
        lo = std::min(lo, rep.routed);
        hi = std::max(hi, rep.routed);
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(ClusterSim, WeightedRoutingFavorsTheFasterReplica)
{
    cluster::ClusterSpec spec = smallSpec(2);
    spec.router = cluster::RouterPolicy::WeightedThroughput;
    spec.replicas[1].clock = 0.25; // one permanently degraded instance
    spec.arrivalRatePerSec = 80.0;

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    EXPECT_GT(result.replicas[0].routed, result.replicas[1].routed);
}

TEST(ClusterSim, KvCacheCapacityBoundsAdmission)
{
    cluster::ClusterSpec spec = smallSpec(1);
    spec.replicas[0].maxActive = 64;
    // Shrink HBM until only ~4 KV allocations fit beyond the
    // simulator's weights + max-batch-activations reservation.
    workload::MemoryFootprint one = workload::estimateMemory(
        spec.model, 1, spec.promptLen + spec.genTokens);
    workload::MemoryFootprint at_cap = workload::estimateMemory(
        spec.model, spec.replicas[0].maxActive, spec.promptLen);
    spec.replicas[0].platform.gpu.hbmCapacityGiB =
        (at_cap.weightsBytes + at_cap.activationBytes +
         4.5 * one.kvCacheBytes) /
        (1024.0 * 1024.0 * 1024.0);

    cluster::ClusterResult result = cluster::simulateCluster(spec);
    EXPECT_GT(result.replicas[0].peakKvBytes, 0.0);
    // Despite maxActive=64, KV memory admits only ~4 sequences.
    EXPECT_LE(result.replicas[0].peakKvBytes,
              4.5 * one.kvCacheBytes);
    EXPECT_LT(result.replicas[0].meanActive, 5.0);
}

// ---------------------------------------------------------------------
// exec registry integration
// ---------------------------------------------------------------------

TEST(ClusterAnalysis, RegisteredAndReportsClusterMetrics)
{
    ASSERT_TRUE(exec::hasAnalysis("cluster"));
    exec::RunSpec spec = exec::RunSpec::of("GPT2")
                             .on("GH200")
                             .seqLen(128)
                             .opt("replicas", 2)
                             .opt("rate", 40.0)
                             .opt("horizon-sec", 2.0)
                             .opt("max-active", 16)
                             .opt("gen-tokens", 4);
    json::Value doc = exec::analysisByName("cluster")(spec);
    const json::Object &obj = doc.asObject();
    EXPECT_EQ(obj.at("replica_count").asInt(), 2);
    EXPECT_EQ(obj.at("router").asString(), "least-outstanding");
    EXPECT_GT(obj.at("completed").asInt(), 0);
    EXPECT_GT(obj.at("slo_attainment").asDouble(), 0.0);
    EXPECT_TRUE(obj.has("goodput_rps"));
    EXPECT_EQ(obj.at("replicas").asArray().size(), 2u);
}

TEST(ClusterAnalysis, CostCacheRefusesMismatchedSpecs)
{
    cluster::ClusterSpec spec = smallSpec();
    cluster::CostCache costs;
    costs.build(spec);
    EXPECT_NO_THROW(costs.build(spec)); // idempotent
    cluster::ClusterSpec other = spec;
    other.promptLen = 256;
    EXPECT_THROW(costs.build(other), FatalError);
    EXPECT_THROW(costs.get("not-a-platform"), FatalError);
}

TEST(CostCache, SharedModelPricesChunksConcurrently)
{
    // Scenario workers share one model read-only: pricing chunks from
    // several pool workers at once must neither race nor change a bit.
    cluster::ClusterSpec spec = smallSpec(1);
    spec.promptLen = 64;
    cluster::CostCache costs;
    costs.build(spec);
    const serving::IterationCostModel &shared = costs.get("GH200");

    const std::vector<int> chunks = {1, 7, 16, 64, 65};
    constexpr std::size_t kWorkers = 4;
    std::vector<std::vector<double>> priced(kWorkers);
    exec::Pool pool(static_cast<int>(kWorkers));
    testutil::StartLine line(pool, kWorkers);
    pool.run(kWorkers, [&](std::size_t worker) {
        // One task per worker, held at a start line so every worker
        // prices at once, each walking the sizes from its own offset.
        line.arrive();
        for (std::size_t k = 0; k < chunks.size(); ++k)
            priced[worker].push_back(
                shared.chunkNs(chunks[(worker + k) % chunks.size()]));
    });

    serving::IterationCostModel serial(spec.model,
                                       spec.replicas[0].platform,
                                       spec.promptLen);
    for (std::size_t worker = 0; worker < kWorkers; ++worker) {
        ASSERT_EQ(priced[worker].size(), chunks.size());
        for (std::size_t k = 0; k < chunks.size(); ++k) {
            const int chunk = chunks[(worker + k) % chunks.size()];
            EXPECT_EQ(priced[worker][k], serial.chunkNs(chunk))
                << "worker " << worker << " chunk " << chunk;
        }
    }
}

// ---------------------------------------------------------------------
// Jobs identity and staged-dispatch contention
// ---------------------------------------------------------------------

namespace
{

/**
 * The adversarial spec for the jobs identity test: a disaggregated
 * prefill/decode fleet on a PCIe platform (staging lanes live), an
 * explicit dispatch hop, staged dispatch, a mid-run crash, and a
 * two-point rate sweep so --jobs has something to fan across.
 */
cluster::ClusterSpec
matrixSpec()
{
    cluster::ClusterSpec spec;
    spec.model = workload::gpt2();
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::intelH100();
    replica.maxActive = 8;
    replica.role = cluster::ReplicaRole::Prefill;
    spec.replicas.push_back(replica);
    replica.role = cluster::ReplicaRole::Decode;
    spec.replicas.push_back(replica);
    spec.replicas.push_back(replica);
    spec.replicas.push_back(replica);
    spec.rates = {30.0, 60.0};
    spec.arrivalRatePerSec = 30.0;
    spec.horizonSec = 3.0;
    spec.promptLen = 64;
    spec.genTokens = 8;
    spec.sessions = 32;
    spec.dispatchUs = 5.0;
    spec.stagedDispatch = true;
    spec.seed = 7;
    cluster::FaultSpec fault;
    fault.atSec = 1.5;
    fault.replica = 2;
    fault.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(fault);
    return spec;
}

/**
 * KV-pressured disaggregated PCIe pair with a deliberately slow link:
 * every finished prefill pages its sequence's KV out over the prefill
 * replica's lane (the handoff into decode), and the squeezed HBM adds
 * eviction page-outs on top — so a staged dispatch (admission gated on
 * the prompt's staging transfer) queues behind that KV traffic.
 *
 * @p gen_tokens is the traffic dial: at 1 there is no decode phase,
 * hence no handoffs and no KV pressure — the lane carries only the
 * staging transfers themselves, while the prefill-side request flow
 * (arrivals, routing, prefill compute) is byte-for-byte the same as
 * the heavy run.
 */
cluster::ClusterSpec
contentionSpec(int gen_tokens, bool staged)
{
    cluster::ClusterSpec spec;
    spec.model = workload::gpt2();
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::intelH100();
    replica.platform.gpu.hbmCapacityGiB = 0.30;
    replica.platform.link.bwGBs = 0.5; // slow lane: contention bites
    replica.maxActive = 8;
    cluster::ReplicaSpec prefill = replica;
    prefill.role = cluster::ReplicaRole::Prefill;
    cluster::ReplicaSpec decode = replica;
    decode.role = cluster::ReplicaRole::Decode;
    spec.replicas = {prefill, decode};
    spec.arrivalRatePerSec = 25.0;
    spec.horizonSec = 8.0;
    spec.promptLen = 256; // big KV footprint: ~10 MB/seq page-outs
    spec.genTokens = gen_tokens;
    spec.sessions = 64;
    spec.seed = 7;
    spec.stagedDispatch = staged;
    spec.kvTier.policy = kv::OffloadPolicy::LruBySession;
    spec.kvTier.hostCapacityGiB = 1.0;
    spec.kvTier.watermarkFrac = 0.9;
    return spec;
}

} // namespace

TEST(JobsMatrix, ReportObsSpansIdenticalAcrossJobs)
{
    cluster::ClusterSpec spec = matrixSpec();
    cluster::CostCache costs;
    costs.build(spec);

    std::string reference;
    for (int jobs : {1, 8}) {
        std::size_t n = spec.scenarioCount();
        ASSERT_EQ(n, 2u);
        std::vector<cluster::ClusterResult> results(n);
        std::vector<std::unique_ptr<obs::Collector>> collectors(n);
        std::vector<std::unique_ptr<obs::SpanLog>> spans(n);
        for (std::size_t i = 0; i < n; ++i) {
            collectors[i] = std::make_unique<obs::Collector>(50.0);
            spans[i] = std::make_unique<obs::SpanLog>();
        }
        exec::Pool pool(jobs);
        testutil::StartLine line(pool, n);
        pool.run(n, [&](std::size_t i) {
            line.arrive();
            results[i] = cluster::simulateCluster(
                spec.scenarioAt(i), costs, collectors[i].get(),
                spans[i].get());
        });
        std::string doc;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_GT(results[i].completed, 0u);
            doc += json::write(results[i].toJson());
            doc += json::write(collectors[i]->toJson());
            doc += spans[i]->toChromeText();
        }
        if (reference.empty())
            reference = doc;
        EXPECT_EQ(doc, reference) << "output diverged at jobs=" << jobs;
    }
    ASSERT_FALSE(reference.empty());
}

TEST(ShardContention, StagedDispatchQueuesBehindKvOffloadTraffic)
{
    cluster::CostCache costs;
    costs.build(contentionSpec(16, false));

    auto run = [&](int gen_tokens, bool staged) {
        return cluster::simulateCluster(
            contentionSpec(gen_tokens, staged), costs);
    };
    cluster::ClusterResult heavy_off = run(16, false);
    cluster::ClusterResult heavy_on = run(16, true);
    cluster::ClusterResult light_off = run(1, false);
    cluster::ClusterResult light_on = run(1, true);

    ASSERT_GT(heavy_on.kv.offloads, 0u)
        << "spec no longer generates offload traffic";
    // The two unstaged controls must agree at the median: decode-side
    // traffic does not touch prefill compute, so any staged-mode gap
    // between heavy and light is lane contention, not workload drift.
    EXPECT_DOUBLE_EQ(heavy_off.p50TtftNs, light_off.p50TtftNs);

    // Gating admission on the staging transfer costs exactly the
    // uncontended transfer time when the lane is idle (the light
    // delta); under heavy KV traffic the median dispatch must queue
    // behind page-outs and pay several times that.
    double delta_heavy = heavy_on.p50TtftNs - heavy_off.p50TtftNs;
    double delta_light = light_on.p50TtftNs - light_off.p50TtftNs;
    EXPECT_GT(delta_light, 0.0);
    EXPECT_GT(delta_heavy, 2.0 * delta_light);
    // The tail pays too: p99 dispatch latency rises under offload.
    EXPECT_GT(heavy_on.p99TtftNs - heavy_off.p99TtftNs, delta_light);
}

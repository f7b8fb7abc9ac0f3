/**
 * @file
 * Tests for the scenario registry (src/scenario): registration
 * semantics (duplicates rejected, builder failures surface the
 * scenario name, sorted enumeration), the typo-suggesting unknown-name
 * error, builder determinism (same params -> byte-identical reports),
 * and serde round trips for the arrival processes the builtin
 * scenarios are made of.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "kv/tier.hh"
#include "scenario/registry.hh"
#include "serving/arrival.hh"
#include "workload/model_config.hh"

namespace skipsim
{
namespace
{

/** Small shared parameter document: tiny horizon, tiny fleet. */
json::Object
quickParams()
{
    json::Object params;
    params.set("horizon-sec", 1.5);
    params.set("replicas", 2);
    params.set("max-active", 8);
    params.set("prompt", 64);
    params.set("gen-tokens", 4);
    params.set("seed", 11);
    return params;
}

// --------------------------------------------------------------- registry

TEST(ScenarioRegistry, BuiltinsAreRegistered)
{
    for (const char *name : {"cluster", "steady-poisson",
                             "mmpp-diurnal", "chat-sessions",
                             "multi-tenant", "kv_offload", "disagg"})
        EXPECT_TRUE(scenario::hasScenario(name)) << name;
    EXPECT_FALSE(scenario::hasScenario("no-such-scenario"));
}

TEST(ScenarioRegistry, EnumerationIsSorted)
{
    std::vector<std::string> names = scenario::scenarioNames();
    ASSERT_GE(names.size(), 5u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

    std::vector<scenario::Scenario> list = scenario::scenarioList();
    ASSERT_EQ(list.size(), names.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
        EXPECT_EQ(list[i].name, names[i]);
        EXPECT_FALSE(list[i].description.empty()) << list[i].name;
    }
}

TEST(ScenarioRegistry, DuplicateRegistrationIsRejected)
{
    scenario::Scenario first;
    first.name = "test-dup";
    first.description = "first";
    first.build = [](const json::Object &) {
        return cluster::ClusterSpec();
    };
    scenario::registerScenario(first);
    EXPECT_TRUE(scenario::hasScenario("test-dup"));
    EXPECT_THROW(scenario::registerScenario(first), FatalError);

    // Shadowing a builtin is just as much of an error.
    scenario::Scenario builtin = first;
    builtin.name = "steady-poisson";
    EXPECT_THROW(scenario::registerScenario(builtin), FatalError);
}

TEST(ScenarioRegistry, InvalidRegistrationsAreRejected)
{
    scenario::Scenario nameless;
    nameless.build = [](const json::Object &) {
        return cluster::ClusterSpec();
    };
    EXPECT_THROW(scenario::registerScenario(nameless), FatalError);

    scenario::Scenario buildless;
    buildless.name = "test-buildless";
    EXPECT_THROW(scenario::registerScenario(buildless), FatalError);
}

TEST(ScenarioRegistry, BuilderErrorsNameTheScenario)
{
    scenario::Scenario broken;
    broken.name = "test-broken";
    broken.description = "always throws";
    broken.build = [](const json::Object &) -> cluster::ClusterSpec {
        fatal("spec rejected: bad knob");
    };
    scenario::registerScenario(broken);
    try {
        scenario::buildScenario("test-broken", json::Object());
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("test-broken"), std::string::npos) << what;
        EXPECT_NE(what.find("bad knob"), std::string::npos) << what;
    }
}

TEST(ScenarioRegistry, UnknownNameSuggestsNearest)
{
    try {
        scenario::buildScenario("mmpp-diurnel", json::Object());
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("mmpp-diurnel"), std::string::npos) << what;
        EXPECT_NE(what.find("did you mean 'mmpp-diurnal'"),
                  std::string::npos)
            << what;
        // The full list is part of the message.
        EXPECT_NE(what.find("steady-poisson"), std::string::npos)
            << what;
    }
}

// ------------------------------------------------------ builder behaviour

TEST(ScenarioBuilders, TrafficShapesMatchTheScenario)
{
    cluster::ClusterSpec poisson =
        scenario::buildScenario("steady-poisson", quickParams());
    ASSERT_NE(poisson.traffic, nullptr);
    EXPECT_STREQ(poisson.traffic->kind(), "poisson");

    cluster::ClusterSpec mmpp =
        scenario::buildScenario("mmpp-diurnal", quickParams());
    ASSERT_NE(mmpp.traffic, nullptr);
    EXPECT_STREQ(mmpp.traffic->kind(), "mmpp");
    // The scenario's arrival-rate identity is the process mean.
    EXPECT_DOUBLE_EQ(mmpp.arrivalRatePerSec,
                     mmpp.traffic->meanRatePerSec());

    cluster::ClusterSpec chat =
        scenario::buildScenario("chat-sessions", quickParams());
    ASSERT_NE(chat.traffic, nullptr);
    EXPECT_STREQ(chat.traffic->kind(), "sessions");
    EXPECT_EQ(chat.router, cluster::RouterPolicy::SessionAffinity);

    cluster::ClusterSpec tenants =
        scenario::buildScenario("multi-tenant", quickParams());
    ASSERT_NE(tenants.traffic, nullptr);
    EXPECT_STREQ(tenants.traffic->kind(), "tiered");
    EXPECT_EQ(tenants.tenants.size(), 3u);
    EXPECT_EQ(tenants.traffic->tenantCount(), 3);
}

TEST(ScenarioBuilders, RawClusterScenarioReadsClusterSpecs)
{
    json::Object doc;
    doc.set("model", "GPT2");
    json::Object replica;
    replica.set("platform", "GH200");
    json::Value::Array replicas;
    replicas.push_back(json::Value(std::move(replica)));
    doc.set("replicas", json::Value(std::move(replicas)));
    doc.set("rate", 25.0);
    cluster::ClusterSpec spec =
        scenario::buildScenario("cluster", doc);
    EXPECT_EQ(spec.model.name, "GPT2");
    EXPECT_DOUBLE_EQ(spec.arrivalRatePerSec, 25.0);
    EXPECT_EQ(spec.traffic, nullptr); // legacy path preserved
}

TEST(ScenarioBuilders, BadSchemaVersionIsRejected)
{
    json::Object params = quickParams();
    params.set("schema_version", 99);
    EXPECT_THROW(scenario::buildScenario("steady-poisson", params),
                 FatalError);
}

TEST(ScenarioBuilders, SeedsNoUint64HoldsAreRejected)
{
    for (double bad : {-1.0, 0.5, 1e20}) {
        json::Object params = quickParams();
        params.set("seed", bad);
        try {
            scenario::buildScenario("steady-poisson", params);
            FAIL() << "accepted seed " << bad;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("'seed'"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(ScenarioBuilders, ReportsAreDeterministic)
{
    // Same (scenario, params) -> byte-identical report, simulated
    // twice from scratch. The --jobs 1 vs 8 byte-diff lives in
    // scripts/check_scenarios.sh; this is the in-process half.
    for (const char *name : {"steady-poisson", "mmpp-diurnal",
                             "chat-sessions", "multi-tenant",
                             "kv_offload", "disagg"}) {
        cluster::ClusterSpec a =
            scenario::buildScenario(name, quickParams());
        cluster::ClusterSpec b =
            scenario::buildScenario(name, quickParams());
        cluster::CostCache costs;
        costs.build(a);
        std::string ra = json::write(
            cluster::simulateCluster(a.scenarioAt(0), costs).toJson());
        std::string rb = json::write(
            cluster::simulateCluster(b.scenarioAt(0), costs).toJson());
        EXPECT_EQ(ra, rb) << name;
    }
}

TEST(ScenarioBuilders, MultiTenantReportsPerTenantStats)
{
    cluster::ClusterSpec spec =
        scenario::buildScenario("multi-tenant", quickParams());
    cluster::CostCache costs;
    costs.build(spec);
    cluster::ClusterResult result =
        cluster::simulateCluster(spec.scenarioAt(0), costs);
    ASSERT_EQ(result.tenants.size(), 3u);
    std::size_t offered = 0;
    for (const cluster::TenantStats &tier : result.tenants) {
        EXPECT_FALSE(tier.name.empty());
        offered += tier.offered;
    }
    // Tenant accounting partitions the offered requests.
    EXPECT_EQ(offered, result.offered);
}

// ----------------------------------------------- KV-tiering + disagg

TEST(ScenarioBuilders, KvOffloadEnablesTiering)
{
    cluster::ClusterSpec spec =
        scenario::buildScenario("kv_offload", quickParams());
    EXPECT_TRUE(spec.kvTier.enabled());
    EXPECT_EQ(spec.kvTier.policy, kv::OffloadPolicy::LruBySession);
    EXPECT_EQ(spec.router, cluster::RouterPolicy::SessionAffinity);
    ASSERT_NE(spec.traffic, nullptr);
    EXPECT_STREQ(spec.traffic->kind(), "sessions");
    for (const cluster::ReplicaSpec &replica : spec.replicas)
        EXPECT_DOUBLE_EQ(replica.platform.gpu.hbmCapacityGiB, 0.6);

    // Knobs override the defaults: policy by name, link by numbers.
    json::Object params = quickParams();
    params.set("policy", "static-watermark");
    params.set("link-bw-gbs", 32.0);
    cluster::ClusterSpec tuned =
        scenario::buildScenario("kv_offload", params);
    EXPECT_EQ(tuned.kvTier.policy,
              kv::OffloadPolicy::StaticWatermark);
    for (const cluster::ReplicaSpec &replica : tuned.replicas)
        EXPECT_DOUBLE_EQ(replica.platform.link.bwGBs, 32.0);

    json::Object bad = quickParams();
    bad.set("policy", "mru");
    EXPECT_THROW(scenario::buildScenario("kv_offload", bad),
                 FatalError);
}

TEST(ScenarioBuilders, DisaggSplitsPrefillAndDecodePools)
{
    json::Object params = quickParams();
    params.set("prefill-replicas", 1);
    params.set("decode-replicas", 2);
    cluster::ClusterSpec spec =
        scenario::buildScenario("disagg", params);
    ASSERT_EQ(spec.replicas.size(), 3u);
    EXPECT_EQ(spec.replicas[0].role, cluster::ReplicaRole::Prefill);
    EXPECT_EQ(spec.replicas[1].role, cluster::ReplicaRole::Decode);
    EXPECT_EQ(spec.replicas[2].role, cluster::ReplicaRole::Decode);
    EXPECT_TRUE(spec.disaggregated());

    cluster::CostCache costs;
    costs.build(spec);
    cluster::ClusterResult result =
        cluster::simulateCluster(spec.scenarioAt(0), costs);
    EXPECT_TRUE(result.kv.enabled);
    EXPECT_GT(result.kv.handoffs, 0u);
    // The prefill pool hands every request off; only decode replicas
    // retire them.
    EXPECT_EQ(result.replicas[0].completed, 0u);
}

TEST(ScenarioBuilders, DisaggCollapsedMatchesCoLocated)
{
    // Zero prefill replicas collapse disagg to classic co-located
    // serving: the same fleet under steady-poisson, byte for byte.
    json::Object collapsed_params = quickParams();
    collapsed_params.set("prefill-replicas", 0);
    collapsed_params.set("decode-replicas", 2);
    collapsed_params.set("rate", 40.0);
    cluster::ClusterSpec collapsed =
        scenario::buildScenario("disagg", collapsed_params);
    EXPECT_FALSE(collapsed.disaggregated());

    json::Object plain_params = quickParams();
    plain_params.set("rate", 40.0);
    cluster::ClusterSpec plain =
        scenario::buildScenario("steady-poisson", plain_params);

    cluster::CostCache costs;
    costs.build(plain);
    std::string a = json::write(
        cluster::simulateCluster(collapsed.scenarioAt(0), costs)
            .toJson());
    std::string b = json::write(
        cluster::simulateCluster(plain.scenarioAt(0), costs).toJson());
    EXPECT_EQ(a, b);
}

TEST(ScenarioRegistry, JsonListingCarriesParams)
{
    json::Value listing = scenario::scenarioListToJson();
    ASSERT_TRUE(listing.isArray());
    const json::Value::Array &list = listing.asArray();
    ASSERT_GE(list.size(), 7u);
    bool saw_kv_policy = false;
    std::vector<std::string> names;
    for (const json::Value &entry : list) {
        ASSERT_TRUE(entry.isObject());
        const json::Object &doc = entry.asObject();
        ASSERT_TRUE(doc.has("name"));
        ASSERT_TRUE(doc.has("description"));
        ASSERT_TRUE(doc.has("params"));
        ASSERT_TRUE(doc.at("params").isArray());
        names.push_back(doc.at("name").asString());
        if (doc.at("name").asString() != "kv_offload")
            continue;
        for (const json::Value &param : doc.at("params").asArray())
            if (param.asObject().at("name").asString() == "policy")
                saw_kv_policy = true;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_TRUE(saw_kv_policy);
}

// -------------------------------------------------- arrival-process serde

TEST(ArrivalSerde, RoundTripsEveryKind)
{
    std::vector<std::shared_ptr<serving::ArrivalProcess>> processes;
    processes.push_back(
        std::make_shared<serving::PoissonProcess>(42.0, 16));
    processes.push_back(std::make_shared<serving::MmppProcess>(
        std::vector<serving::MmppProcess::State>{{10.0, 2.0},
                                                 {90.0, 0.5}},
        16));
    serving::SessionProcess::Params chat;
    chat.sessionRatePerSec = 8.0;
    chat.meanTurns = 3.0;
    chat.thinkSec = 1.5;
    chat.cachedFrac = 0.6;
    chat.sessions = 16;
    processes.push_back(std::make_shared<serving::SessionProcess>(chat));
    processes.push_back(std::make_shared<serving::TieredProcess>(
        std::vector<serving::TieredProcess::Tier>{{"a", 5.0},
                                                  {"b", 10.0}},
        16));

    for (const auto &original : processes) {
        auto reparsed =
            serving::arrivalProcessFromJson(original->toJson());
        EXPECT_STREQ(reparsed->kind(), original->kind());
        EXPECT_DOUBLE_EQ(reparsed->meanRatePerSec(),
                         original->meanRatePerSec());
        EXPECT_EQ(reparsed->tenantCount(), original->tenantCount());
        // Byte-identical JSON and byte-identical timelines.
        EXPECT_EQ(json::write(reparsed->toJson()),
                  json::write(original->toJson()));
        auto a = original->generate(2e9, 7);
        auto b = reparsed->generate(2e9, 7);
        ASSERT_EQ(a.size(), b.size()) << original->kind();
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_DOUBLE_EQ(a[i].timeNs, b[i].timeNs);
            EXPECT_EQ(a[i].session, b[i].session);
            EXPECT_EQ(a[i].tenant, b[i].tenant);
            EXPECT_DOUBLE_EQ(a[i].cachedFrac, b[i].cachedFrac);
        }
    }
}

TEST(ArrivalSerde, UnknownTypeListsKnownOnes)
{
    json::Object doc;
    doc.set("type", "fractal");
    try {
        serving::arrivalProcessFromJson(json::Value(std::move(doc)));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("fractal"), std::string::npos) << what;
        EXPECT_NE(what.find("poisson"), std::string::npos) << what;
        EXPECT_NE(what.find("tiered"), std::string::npos) << what;
    }
}

TEST(ArrivalSerde, ClusterSpecCarriesTrafficAndTenants)
{
    cluster::ClusterSpec spec;
    spec.model = workload::gpt2();
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::gh200();
    spec.replicas = {replica};
    spec.traffic = std::make_shared<serving::TieredProcess>(
        std::vector<serving::TieredProcess::Tier>{{"gold", 6.0},
                                                  {"bronze", 12.0}},
        32);
    cluster::TenantSpec gold;
    gold.name = "gold";
    gold.ttftSloMs = 200.0;
    gold.e2eSloMs = 800.0;
    cluster::TenantSpec bronze;
    bronze.name = "bronze";
    spec.tenants = {gold, bronze};

    cluster::ClusterSpec loaded =
        cluster::ClusterSpec::fromJson(spec.toJson());
    ASSERT_NE(loaded.traffic, nullptr);
    EXPECT_STREQ(loaded.traffic->kind(), "tiered");
    EXPECT_DOUBLE_EQ(loaded.traffic->meanRatePerSec(), 18.0);
    ASSERT_EQ(loaded.tenants.size(), 2u);
    EXPECT_EQ(loaded.tenants[0].name, "gold");
    EXPECT_DOUBLE_EQ(loaded.tenants[0].ttftSloMs, 200.0);
    EXPECT_DOUBLE_EQ(loaded.tenants[1].e2eSloMs, 2000.0);
}

// ------------------------------------------------------ arrival edge cases

TEST(ArrivalEdgeCases, ZeroRateMmppStateIsValidAndRuns)
{
    // A silent MMPP state (rate 0) is a legal traffic lull, not a
    // config error; the generator must step through it.
    auto traffic = std::make_shared<serving::MmppProcess>(
        std::vector<serving::MmppProcess::State>{{0.0, 1.0},
                                                 {40.0, 1.0}},
        16);
    EXPECT_NO_THROW(traffic->validate());

    cluster::ClusterSpec spec =
        scenario::buildScenario("steady-poisson", quickParams());
    spec.traffic = traffic;
    cluster::CostCache costs;
    costs.build(spec);
    cluster::ClusterResult result =
        cluster::simulateCluster(spec.scenarioAt(0), costs);
    EXPECT_GT(result.offered, 0u);
    EXPECT_EQ(result.offered, result.completed + result.lost);

    // A non-positive dwell, though, can never be left.
    serving::MmppProcess stuck({{0.0, 0.0}}, 16);
    EXPECT_THROW(stuck.validate(), FatalError);
}

TEST(ArrivalEdgeCases, FullyCachedFollowUpsAreRejected)
{
    serving::SessionProcess::Params params;
    params.cachedFrac = 0.95; // the documented ceiling is inclusive
    EXPECT_NO_THROW(serving::SessionProcess(params).validate());

    params.cachedFrac = 1.0; // a zero-compute prefill is not a turn
    try {
        serving::SessionProcess(params).validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("cached-frac"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ArrivalEdgeCases, ZeroWeightTierIsRejected)
{
    serving::TieredProcess empty(
        {{"gold", 6.0}, {"idle", 0.0}}, 16);
    EXPECT_THROW(empty.validate(), FatalError);
}

} // namespace
} // namespace skipsim

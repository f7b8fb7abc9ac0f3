/**
 * @file
 * Built-in scenarios. Each registers a builder that turns one JSON
 * parameter object into a complete ClusterSpec; the production-shaped
 * traffic scenarios pair a serving::ArrivalProcess with deployment
 * defaults that make its signature visible (session affinity for chat
 * traffic, per-tier SLOs for multi-tenant).
 *
 * Shared parameters understood by every scenario except the raw
 * "cluster" pass-through: "model", "platform", "replicas" (count),
 * "max-active", "max-queue", "router", "horizon-sec", "prompt",
 * "gen-tokens", "sessions", "ttft-slo-ms", "e2e-slo-ms", "seed".
 * See docs/scenarios.md for the full schema of each scenario.
 */

#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "json/schema.hh"
#include "kv/tier.hh"
#include "scenario/registry.hh"
#include "serving/arrival.hh"
#include "workload/model_config.hh"

namespace skipsim::scenario
{

namespace
{

double
num(const json::Object &obj, const char *key, double def)
{
    return obj.has(key) ? obj.at(key).asDouble() : def;
}

int
integer(const json::Object &obj, const char *key, int def)
{
    return obj.has(key) ? json::intValue(obj.at(key), key) : def;
}

/** The deployment shape shared by the traffic-model scenarios. */
cluster::ClusterSpec
baseSpec(const json::Object &params)
{
    json::checkSchemaVersion(params, "scenario spec");
    cluster::ClusterSpec spec;
    spec.model =
        workload::modelByName(params.has("model")
                                  ? params.at("model").asString()
                                  : "GPT2");
    cluster::ReplicaSpec replica;
    replica.platform =
        hw::platforms::byName(params.has("platform")
                                  ? params.at("platform").asString()
                                  : "GH200");
    replica.maxActive = integer(params, "max-active", 16);
    replica.maxQueue = integer(params, "max-queue", 0);
    int replicas = integer(params, "replicas", 2);
    if (replicas <= 0)
        fatal("'replicas' must be positive");
    cluster::requireFleetCap(static_cast<std::uint64_t>(replicas),
                             "'replicas'");
    spec.replicas.assign(static_cast<std::size_t>(replicas), replica);
    if (params.has("router"))
        spec.router = cluster::routerPolicyByName(
            params.at("router").asString());
    spec.horizonSec = num(params, "horizon-sec", 10.0);
    spec.promptLen = integer(params, "prompt", 128);
    spec.genTokens = integer(params, "gen-tokens", 16);
    spec.sessions = integer(params, "sessions", 64);
    spec.ttftSloMs = num(params, "ttft-slo-ms", 500.0);
    spec.e2eSloMs = num(params, "e2e-slo-ms", 2000.0);
    spec.seed = params.has("seed") ? json::uint64Member(params, "seed")
                                   : 42;
    return spec;
}

cluster::ClusterSpec
buildRawCluster(const json::Object &params)
{
    // The pre-registry `skipctl cluster` entry point, as a scenario:
    // the parameter document IS a ClusterSpec, so existing spec files
    // run unchanged through the same registry path as everything else.
    return cluster::ClusterSpec::fromJson(
        json::Value(json::Object(params)));
}

cluster::ClusterSpec
buildSteadyPoisson(const json::Object &params)
{
    cluster::ClusterSpec spec = baseSpec(params);
    spec.arrivalRatePerSec = num(params, "rate", 60.0);
    spec.traffic = std::make_shared<serving::PoissonProcess>(
        spec.arrivalRatePerSec, spec.sessions);
    spec.validate();
    return spec;
}

cluster::ClusterSpec
buildMmppDiurnal(const json::Object &params)
{
    cluster::ClusterSpec spec = baseSpec(params);
    std::vector<serving::MmppProcess::State> states;
    if (params.has("states")) {
        for (const json::Value &entry : params.at("states").asArray()) {
            const json::Object &obj = entry.asObject();
            serving::MmppProcess::State state;
            state.ratePerSec = num(obj, "rate", 0.0);
            state.dwellSec = num(obj, "dwell-sec", 1.0);
            states.push_back(state);
        }
    } else {
        // Default diurnal cycle: a long trough, a shoulder, a short
        // peak — mean rate 60/s, same as steady-poisson's default, so
        // the two scenarios isolate the effect of burstiness.
        states.push_back({30.0, 2.0});
        states.push_back({60.0, 1.0});
        states.push_back({120.0, 1.0});
    }
    auto process = std::make_shared<serving::MmppProcess>(
        std::move(states), spec.sessions);
    spec.arrivalRatePerSec = process->meanRatePerSec();
    spec.traffic = std::move(process);
    spec.validate();
    return spec;
}

cluster::ClusterSpec
buildChatSessions(const json::Object &params)
{
    cluster::ClusterSpec spec = baseSpec(params);
    if (!params.has("router")) {
        // Conversations should stick to the replica holding their
        // prefix cache; affinity is the point of this scenario.
        spec.router = cluster::RouterPolicy::SessionAffinity;
    }
    serving::SessionProcess::Params traffic;
    traffic.sessionRatePerSec = num(params, "session-rate", 15.0);
    traffic.meanTurns = num(params, "mean-turns", 4.0);
    traffic.thinkSec = num(params, "think-sec", 2.0);
    traffic.cachedFrac = num(params, "cached-frac", 0.75);
    traffic.sessions = spec.sessions;
    auto process = std::make_shared<serving::SessionProcess>(traffic);
    spec.arrivalRatePerSec = process->meanRatePerSec();
    spec.traffic = std::move(process);
    spec.validate();
    return spec;
}

cluster::ClusterSpec
buildMultiTenant(const json::Object &params)
{
    cluster::ClusterSpec spec = baseSpec(params);
    std::vector<serving::TieredProcess::Tier> tiers;
    spec.tenants.clear();
    auto add_tier = [&](const std::string &name, double rate,
                        double ttft_slo_ms, double e2e_slo_ms) {
        serving::TieredProcess::Tier tier;
        tier.name = name;
        tier.ratePerSec = rate;
        tiers.push_back(std::move(tier));
        cluster::TenantSpec tenant;
        tenant.name = name;
        tenant.ttftSloMs = ttft_slo_ms;
        tenant.e2eSloMs = e2e_slo_ms;
        spec.tenants.push_back(std::move(tenant));
    };
    if (params.has("tiers")) {
        for (const json::Value &entry : params.at("tiers").asArray()) {
            const json::Object &obj = entry.asObject();
            add_tier(obj.has("name") ? obj.at("name").asString()
                                     : strprintf("tier%zu",
                                                 tiers.size()),
                     num(obj, "rate", 10.0),
                     num(obj, "ttft-slo-ms", spec.ttftSloMs),
                     num(obj, "e2e-slo-ms", spec.e2eSloMs));
        }
    } else {
        // Interactive premium, standard, and latency-tolerant batch
        // tiers: same cluster, three SLO contracts.
        add_tier("premium", 15.0, 250.0, 1000.0);
        add_tier("standard", 30.0, 500.0, 2000.0);
        add_tier("batch", 15.0, 2000.0, 8000.0);
    }
    auto process = std::make_shared<serving::TieredProcess>(
        std::move(tiers), spec.sessions);
    spec.arrivalRatePerSec = process->meanRatePerSec();
    spec.traffic = std::move(process);
    spec.validate();
    return spec;
}

cluster::ClusterSpec
buildKvOffload(const json::Object &params)
{
    cluster::ClusterSpec spec = baseSpec(params);
    // Memory-pressure defaults: long prompts, many returning sessions,
    // a squeezed HBM budget — the regime where the offload policy and
    // the interconnect generation decide the tail.
    if (!params.has("prompt"))
        spec.promptLen = 256;
    if (!params.has("gen-tokens"))
        spec.genTokens = 32;
    if (!params.has("sessions"))
        spec.sessions = 256;
    if (!params.has("router")) {
        // Returning sessions must land on the replica retaining their
        // prefix, or the tier never sees a hit.
        spec.router = cluster::RouterPolicy::SessionAffinity;
    }
    spec.kvTier.policy = kv::offloadPolicyByName(
        params.has("policy") ? params.at("policy").asString()
                             : "lru-by-session");
    spec.kvTier.hostCapacityGiB = num(params, "host-gib", 16.0);
    spec.kvTier.watermarkFrac = num(params, "watermark", 0.9);
    double hbm_gib = num(params, "hbm-gib", 0.6);
    for (cluster::ReplicaSpec &rep : spec.replicas) {
        rep.platform.gpu.hbmCapacityGiB = hbm_gib;
        if (params.has("link-bw-gbs"))
            rep.platform.link.bwGBs =
                params.at("link-bw-gbs").asDouble();
        if (params.has("link-latency-ns"))
            rep.platform.link.latencyNs =
                params.at("link-latency-ns").asDouble();
    }
    serving::SessionProcess::Params traffic;
    traffic.sessionRatePerSec = num(params, "session-rate", 12.0);
    traffic.meanTurns = num(params, "mean-turns", 4.0);
    traffic.thinkSec = num(params, "think-sec", 1.0);
    traffic.cachedFrac = num(params, "cached-frac", 0.8);
    traffic.sessions = spec.sessions;
    auto process = std::make_shared<serving::SessionProcess>(traffic);
    spec.arrivalRatePerSec = process->meanRatePerSec();
    spec.traffic = std::move(process);
    spec.validate();
    return spec;
}

cluster::ClusterSpec
buildDisagg(const json::Object &params)
{
    cluster::ClusterSpec spec = baseSpec(params);
    int prefill = integer(params, "prefill-replicas", 1);
    int decode = integer(params, "decode-replicas", 1);
    if (prefill < 0)
        fatal("'prefill-replicas' must be non-negative");
    if (decode <= 0)
        fatal("'decode-replicas' must be positive");
    cluster::requireFleetCap(static_cast<std::uint64_t>(prefill) +
                                 static_cast<std::uint64_t>(decode),
                             "'prefill-replicas' + 'decode-replicas'");
    // Pool ratio: prefill-replicas 0 collapses to co-located Mixed
    // replicas — the baseline the disaggregated split is judged
    // against (and the check-law anchor).
    cluster::ReplicaSpec pool = spec.replicas.front();
    spec.replicas.clear();
    pool.role = cluster::ReplicaRole::Prefill;
    for (int i = 0; i < prefill; ++i)
        spec.replicas.push_back(pool);
    pool.role = prefill == 0 ? cluster::ReplicaRole::Mixed
                             : cluster::ReplicaRole::Decode;
    for (int i = 0; i < decode; ++i)
        spec.replicas.push_back(pool);
    if (params.has("policy")) {
        spec.kvTier.policy = kv::offloadPolicyByName(
            params.at("policy").asString());
        spec.kvTier.hostCapacityGiB = num(params, "host-gib", 16.0);
        spec.kvTier.watermarkFrac = num(params, "watermark", 0.9);
    }
    spec.arrivalRatePerSec = num(params, "rate", 40.0);
    spec.traffic = std::make_shared<serving::PoissonProcess>(
        spec.arrivalRatePerSec, spec.sessions);
    spec.validate();
    return spec;
}

cluster::ClusterSpec
buildDatacenter(const json::Object &params)
{
    cluster::ClusterSpec spec = baseSpec(params);
    // Fleet-scale default: 8 replicas unless the caller sizes the
    // fleet explicitly (the ext_datacenter bench passes 1024).
    if (!params.has("replicas"))
        spec.replicas.assign(8, spec.replicas.front());
    // The router-to-replica dispatch hop is explicit here: every
    // routed request reaches its replica one delivery event later.
    spec.dispatchUs = num(params, "dispatch-us", 5.0);
    if (params.has("staged-dispatch"))
        spec.stagedDispatch = params.at("staged-dispatch").asBool();
    // Offered load scales with the fleet so the per-replica operating
    // point stays fixed at any size.
    double per_replica = num(params, "rate-per-replica", 30.0);
    spec.arrivalRatePerSec =
        per_replica * static_cast<double>(spec.replicas.size());
    spec.traffic = std::make_shared<serving::PoissonProcess>(
        spec.arrivalRatePerSec, spec.sessions);
    spec.validate();
    return spec;
}

/** The parameters baseSpec() itself understands. */
std::vector<ScenarioParam>
baseParams()
{
    return {
        {"model", "workload model name (default GPT2)"},
        {"platform", "hw catalog platform (default GH200)"},
        {"replicas", "replica count (default 2)"},
        {"max-active", "max concurrent sequences (default 16)"},
        {"max-queue", "pending-queue bound, 0 = unbounded (default 0)"},
        {"router", "routing policy (default least-outstanding)"},
        {"horizon-sec", "simulated horizon, s (default 10)"},
        {"prompt", "prompt length, tokens (default 128)"},
        {"gen-tokens", "generated tokens per request (default 16)"},
        {"sessions", "session-id pool size (default 64)"},
        {"ttft-slo-ms", "TTFT SLO, ms (default 500)"},
        {"e2e-slo-ms", "end-to-end SLO, ms (default 2000)"},
        {"seed", "base RNG seed (default 42)"},
    };
}

/** baseParams() plus scenario-specific keys. */
std::vector<ScenarioParam>
withBase(std::vector<ScenarioParam> extra)
{
    std::vector<ScenarioParam> all = std::move(extra);
    std::vector<ScenarioParam> base = baseParams();
    all.insert(all.end(), base.begin(), base.end());
    return all;
}

} // namespace

void
registerBuiltinScenarios()
{
    registerScenario(
        {"cluster",
         "raw ClusterSpec pass-through (the spec file is the cluster "
         "document; rate sweeps supported)",
         buildRawCluster,
         {{kRootParam, "the spec file IS the ClusterSpec document"}}});
    registerScenario(
        {"steady-poisson",
         "constant-rate open-loop Poisson traffic (the legacy model, "
         "as an explicit arrival process)",
         buildSteadyPoisson,
         withBase({{"rate", "mean arrival rate, req/s (default 60)"}})});
    registerScenario(
        {"mmpp-diurnal",
         "Markov-modulated Poisson traffic cycling through "
         "trough/shoulder/peak rates (diurnal, bursty load)",
         buildMmppDiurnal,
         withBase({{"states",
                    "[{rate, dwell-sec}] MMPP states (default "
                    "30/60/120 req/s diurnal cycle)"}})});
    registerScenario(
        {"chat-sessions",
         "multi-turn chat sessions with prefix-cache reuse and "
         "session-affinity routing",
         buildChatSessions,
         withBase(
             {{"session-rate", "session starts per second (default 15)"},
              {"mean-turns", "mean turns per session (default 4)"},
              {"think-sec", "mean think time between turns (default 2)"},
              {"cached-frac",
               "prefix-cache share of follow-up prompts (default "
               "0.75)"}})});
    registerScenario(
        {"multi-tenant",
         "independent per-tier Poisson streams with per-tenant SLO "
         "accounting (premium/standard/batch by default)",
         buildMultiTenant,
         withBase({{"tiers",
                    "[{name, rate, ttft-slo-ms, e2e-slo-ms}] SLO "
                    "tiers (default premium/standard/batch)"}})});
    registerScenario(
        {"kv_offload",
         "two-tier KV store under memory pressure: offload policy x "
         "interconnect generation, session traffic with prefix reuse",
         buildKvOffload,
         withBase(
             {{"policy",
               "offload policy: static-watermark, lru-by-session or "
               "prefix-aware (default lru-by-session)"},
              {"host-gib", "host KV pool per replica, GiB (default 16)"},
              {"watermark",
               "static-watermark HBM occupancy trigger (default 0.9)"},
              {"hbm-gib",
               "HBM capacity override, GiB (default 0.6, forcing "
               "pressure)"},
              {"link-bw-gbs", "interconnect bandwidth override, GB/s"},
              {"link-latency-ns", "interconnect latency override, ns"},
              {"session-rate", "session starts per second (default 12)"},
              {"mean-turns", "mean turns per session (default 4)"},
              {"think-sec", "mean think time between turns (default 1)"},
              {"cached-frac",
               "prefix-cache share of follow-up prompts (default "
               "0.8)"}})});
    registerScenario(
        {"disagg",
         "disaggregated prefill/decode pools with KV handoff over the "
         "interconnect (pool ratio as the axis)",
         buildDisagg,
         withBase(
             {{"prefill-replicas",
               "prefill-pool size; 0 collapses to co-located Mixed "
               "replicas (default 1)"},
              {"decode-replicas", "decode-pool size (default 1)"},
              {"rate", "mean arrival rate, req/s (default 40)"},
              {"policy",
               "optional KV offload policy on top of the split "
               "(default never)"},
              {"host-gib", "host KV pool per replica, GiB (default 16)"},
              {"watermark",
               "static-watermark HBM occupancy trigger (default "
               "0.9)"}})});
    registerScenario(
        {"datacenter",
         "fleet-scale serving (8 replicas by default) with an "
         "explicit router-to-replica dispatch hop; load scales with "
         "the fleet",
         buildDatacenter,
         withBase(
             {{"rate-per-replica",
               "mean arrival rate per replica, req/s (default 30)"},
              {"dispatch-us",
               "router-to-replica dispatch latency, us (default 5)"},
              {"staged-dispatch",
               "gate enqueue on staging the prompt over the KV lane "
               "(default false)"},
              {"shards", "retired engine-shard count; accepted, ignored"}})});
}

} // namespace skipsim::scenario

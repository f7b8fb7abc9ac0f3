/**
 * @file
 * ClusterSpec JSON round trip. Platforms serialize by catalog name
 * (import also accepts inline hw platform objects); identical replicas
 * compress through a "count" field on import and re-expand to
 * individual entries, so a 64-replica fleet stays a 3-line spec.
 */

#include "cluster/cluster.hh"

#include "common/logging.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "hw/serde.hh"
#include "json/parser.hh"
#include "json/schema.hh"
#include "json/writer.hh"
#include "workload/model_config.hh"
#include "workload/serde.hh"

namespace skipsim::cluster
{

namespace
{

json::Value
faultToJson(const FaultSpec &fault)
{
    json::Object doc;
    doc.set("at-sec", fault.atSec);
    doc.set("replica", static_cast<unsigned long long>(fault.replica));
    doc.set("kind", faultKindName(fault.kind));
    if (fault.kind == FaultKind::Slowdown)
        doc.set("factor", fault.factor);
    if (fault.kind == FaultKind::Partition && fault.healSec >= 0.0)
        doc.set("heal-sec", fault.healSec);
    return json::Value(std::move(doc));
}

FaultSpec
faultFromJson(const json::Value &value)
{
    const json::Object &obj = value.asObject();
    FaultSpec fault;
    fault.atSec = obj.at("at-sec").asDouble();
    fault.replica =
        static_cast<std::size_t>(json::uint64Member(obj, "replica"));
    fault.kind = faultKindByName(obj.at("kind").asString());
    if (obj.has("factor"))
        fault.factor = obj.at("factor").asDouble();
    if (obj.has("heal-sec"))
        fault.healSec = obj.at("heal-sec").asDouble();
    return fault;
}

json::Value
replicaToJson(const ReplicaSpec &replica)
{
    json::Object doc;
    doc.set("platform", replica.platform.name);
    if (replica.role != ReplicaRole::Mixed)
        doc.set("role", replicaRoleName(replica.role));
    doc.set("max-active", replica.maxActive);
    if (replica.clock != 1.0)
        doc.set("clock", replica.clock);
    if (replica.maxQueue != 0)
        doc.set("max-queue", replica.maxQueue);
    return json::Value(std::move(doc));
}

/** One replica entry, possibly stamped out `count` times. */
void
replicasFromJson(const json::Value &value,
                 std::vector<ReplicaSpec> &out)
{
    const json::Object &obj = value.asObject();
    ReplicaSpec replica;
    const json::Value &platform = obj.at("platform");
    replica.platform = platform.isString()
        ? hw::platforms::byName(platform.asString())
        : hw::platformFromJson(platform);
    if (obj.has("role"))
        replica.role = replicaRoleByName(obj.at("role").asString());
    if (obj.has("max-active"))
        replica.maxActive = json::intValue(obj.at("max-active"), "max-active");
    if (obj.has("clock"))
        replica.clock = obj.at("clock").asDouble();
    if (obj.has("max-queue"))
        replica.maxQueue = json::intValue(obj.at("max-queue"), "max-queue");
    int count = obj.has("count") ? json::intValue(obj.at("count"), "count")
                                 : 1;
    if (count <= 0)
        fatal("ClusterSpec: replica count must be positive");
    requireFleetCap(out.size() + static_cast<std::uint64_t>(count),
                    "ClusterSpec: replica 'count'");
    for (int i = 0; i < count; ++i)
        out.push_back(replica);
}

} // namespace

json::Value
ClusterSpec::toJson() const
{
    json::Object doc;
    json::stampSchemaVersion(doc);
    doc.set("model", model.name);
    json::Value::Array reps;
    for (const ReplicaSpec &replica : replicas)
        reps.push_back(replicaToJson(replica));
    doc.set("replicas", json::Value(std::move(reps)));
    doc.set("router", routerPolicyName(router));
    if (kvTier.enabled())
        doc.set("kv", kvTier.toJson());
    doc.set("rate", arrivalRatePerSec);
    if (traffic != nullptr)
        doc.set("traffic", traffic->toJson());
    if (!tenants.empty()) {
        json::Value::Array tiers;
        for (const TenantSpec &tenant : tenants) {
            json::Object entry;
            entry.set("name", tenant.name);
            entry.set("ttft-slo-ms", tenant.ttftSloMs);
            entry.set("e2e-slo-ms", tenant.e2eSloMs);
            tiers.push_back(json::Value(std::move(entry)));
        }
        doc.set("tenants", json::Value(std::move(tiers)));
    }
    if (!rates.empty()) {
        json::Value::Array axis;
        for (double rate : rates)
            axis.emplace_back(rate);
        doc.set("rates", json::Value(std::move(axis)));
    }
    if (dispatchUs > 0.0)
        doc.set("dispatch-us", dispatchUs);
    if (stagedDispatch)
        doc.set("staged-dispatch", stagedDispatch);
    doc.set("horizon-sec", horizonSec);
    doc.set("prompt", promptLen);
    doc.set("gen-tokens", genTokens);
    doc.set("sessions", sessions);
    doc.set("detect-ms", detectDelaySec * 1e3);
    doc.set("ttft-slo-ms", ttftSloMs);
    doc.set("e2e-slo-ms", e2eSloMs);
    if (jitterFrac > 0.0)
        doc.set("jitter-frac", jitterFrac);
    doc.set("seed", static_cast<unsigned long long>(seed));
    if (!faults.empty()) {
        json::Value::Array list;
        for (const FaultSpec &fault : faults)
            list.push_back(faultToJson(fault));
        doc.set("faults", json::Value(std::move(list)));
    }
    return json::Value(std::move(doc));
}

ClusterSpec
ClusterSpec::fromJson(const json::Value &value)
{
    const json::Object &obj = value.asObject();
    json::checkSchemaVersion(obj, "ClusterSpec");
    ClusterSpec spec;
    if (obj.has("model")) {
        const json::Value &model_value = obj.at("model");
        spec.model = model_value.isString()
            ? workload::modelByName(model_value.asString())
            : workload::modelFromJson(model_value);
    } else {
        spec.model = workload::modelByName("GPT2");
    }
    if (!obj.has("replicas"))
        fatal("ClusterSpec: missing 'replicas'");
    for (const json::Value &entry : obj.at("replicas").asArray())
        replicasFromJson(entry, spec.replicas);
    if (obj.has("router"))
        spec.router = routerPolicyByName(obj.at("router").asString());
    if (obj.has("kv"))
        spec.kvTier = kv::TierSpec::fromJson(obj.at("kv"));
    if (obj.has("rate"))
        spec.arrivalRatePerSec = obj.at("rate").asDouble();
    if (obj.has("traffic"))
        spec.traffic = serving::arrivalProcessFromJson(obj.at("traffic"));
    if (obj.has("tenants")) {
        for (const json::Value &entry : obj.at("tenants").asArray()) {
            const json::Object &tier = entry.asObject();
            TenantSpec tenant;
            if (tier.has("name"))
                tenant.name = tier.at("name").asString();
            if (tier.has("ttft-slo-ms"))
                tenant.ttftSloMs = tier.at("ttft-slo-ms").asDouble();
            if (tier.has("e2e-slo-ms"))
                tenant.e2eSloMs = tier.at("e2e-slo-ms").asDouble();
            spec.tenants.push_back(std::move(tenant));
        }
    }
    if (obj.has("rates")) {
        for (const json::Value &rate : obj.at("rates").asArray())
            spec.rates.push_back(rate.asDouble());
    }
    if (obj.has("dispatch-us"))
        spec.dispatchUs = obj.at("dispatch-us").asDouble();
    if (obj.has("staged-dispatch"))
        spec.stagedDispatch = obj.at("staged-dispatch").asBool();
    if (obj.has("horizon-sec"))
        spec.horizonSec = obj.at("horizon-sec").asDouble();
    if (obj.has("prompt"))
        spec.promptLen = json::intValue(obj.at("prompt"), "prompt");
    if (obj.has("gen-tokens"))
        spec.genTokens = json::intValue(obj.at("gen-tokens"), "gen-tokens");
    if (obj.has("sessions"))
        spec.sessions = json::intValue(obj.at("sessions"), "sessions");
    if (obj.has("detect-ms"))
        spec.detectDelaySec = obj.at("detect-ms").asDouble() / 1e3;
    if (obj.has("ttft-slo-ms"))
        spec.ttftSloMs = obj.at("ttft-slo-ms").asDouble();
    if (obj.has("e2e-slo-ms"))
        spec.e2eSloMs = obj.at("e2e-slo-ms").asDouble();
    if (obj.has("jitter-frac"))
        spec.jitterFrac = obj.at("jitter-frac").asDouble();
    if (obj.has("seed"))
        spec.seed = json::uint64Member(obj, "seed");
    if (obj.has("faults")) {
        for (const json::Value &fault : obj.at("faults").asArray())
            spec.faults.push_back(faultFromJson(fault));
    }
    spec.validate();
    return spec;
}

ClusterSpec
ClusterSpec::load(const std::string &path)
{
    return fromJson(json::parseFile(path));
}

void
ClusterSpec::save(const std::string &path) const
{
    json::writeFile(path, toJson(), true);
}

} // namespace skipsim::cluster

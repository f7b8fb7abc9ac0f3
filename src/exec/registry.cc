#include "exec/registry.hh"

#include <map>
#include <mutex>

#include "analysis/generation.hh"
#include "analysis/sweep.hh"
#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "fusion/recommend.hh"
#include "serving/latency_model.hh"
#include "skip/profile.hh"

namespace skipsim::exec
{

namespace
{

/** Run identity common to every built-in analysis result. */
json::Object
identityJson(const RunSpec &spec)
{
    json::Object doc;
    doc.set("model", spec.model().name);
    doc.set("platform", spec.platform().name);
    doc.set("batch", spec.batch());
    doc.set("seq", spec.seqLen());
    doc.set("mode", workload::execModeName(spec.mode()));
    return doc;
}

json::Value
profileAnalysis(const RunSpec &spec)
{
    skip::ProfileResult run = skip::profile(
        spec.model(), spec.platform(), spec.buildOptions(), spec.simOptions());
    json::Object doc = identityJson(spec);
    doc.set("metrics", run.metrics.toJson());
    doc.set("kernel_launches",
            static_cast<unsigned long long>(run.kernelLaunches));
    doc.set("wall_ns", run.wallNs);
    return doc;
}

json::Value
servingAnalysis(const RunSpec &spec)
{
    serving::LatencyModel latency(analysis::runBatchSweep(
        spec.model(), spec.platform(), analysis::defaultBatchGrid(),
        spec.seqLen(), spec.mode(), spec.simOptions()));
    serving::ServingResult result =
        serving::simulateServing(latency, spec.servingConfig());

    json::Object doc = identityJson(spec);
    doc.set("completed", static_cast<unsigned long long>(result.completed));
    doc.set("throughput_rps", result.throughputRps);
    doc.set("p50_ms", result.p50LatencyNs / 1e6);
    doc.set("p95_ms", result.p95LatencyNs / 1e6);
    doc.set("p99_ms", result.p99LatencyNs / 1e6);
    doc.set("mean_batch", result.meanBatch);
    doc.set("utilization", result.utilization);
    doc.set("left_in_queue",
            static_cast<unsigned long long>(result.leftInQueue));
    return doc;
}

json::Value
fusionAnalysis(const RunSpec &spec)
{
    skip::ProfileResult run = skip::profile(
        spec.model(), spec.platform(), spec.buildOptions(), spec.simOptions());
    fusion::FusionReport report = fusion::recommendFromTrace(run.trace);

    json::Object doc = identityJson(spec);
    doc.set("k_eager", static_cast<unsigned long long>(report.kEager));
    json::Value::Array by_length;
    for (const auto &stats : report.byLength) {
        json::Object entry;
        entry.set("length", static_cast<unsigned long long>(stats.length));
        entry.set("ideal_speedup", stats.idealSpeedup);
        by_length.push_back(std::move(entry));
    }
    doc.set("by_length", std::move(by_length));
    doc.set("best_length",
            static_cast<unsigned long long>(report.best().length));
    doc.set("best_speedup", report.best().idealSpeedup);
    return doc;
}

json::Value
generationAnalysis(const RunSpec &spec)
{
    int gen_tokens = spec.intOpt("gen-tokens", 8);
    analysis::GenerationResult result = analysis::simulateGeneration(
        spec.model(), spec.platform(), spec.buildOptions(), gen_tokens,
        spec.simOptions());

    json::Object doc = identityJson(spec);
    doc.set("gen_tokens", gen_tokens);
    doc.set("ttft_ms", result.ttftNs / 1e6);
    doc.set("tpot_ms", result.tpotNs() / 1e6);
    doc.set("total_ms", result.totalNs / 1e6);
    doc.set("tokens_per_sec", result.tokensPerSecond(spec.batch()));
    return doc;
}

json::Value
clusterAnalysis(const RunSpec &spec)
{
    cluster::ClusterSpec config;
    config.model = spec.model();
    int replicas = spec.intOpt("replicas", 4);
    if (replicas < 1)
        fatal("cluster analysis: option 'replicas' must be >= 1");
    cluster::requireFleetCap(static_cast<std::uint64_t>(replicas),
                             "cluster analysis: option 'replicas'");
    cluster::ReplicaSpec replica;
    replica.platform = spec.platform();
    replica.maxActive = spec.intOpt("max-active", 32);
    replica.maxQueue = spec.intOpt("max-queue", 0);
    config.replicas.assign(static_cast<std::size_t>(replicas), replica);
    int router = spec.intOpt("router", 1);
    if (router < 0 || router > 3)
        fatal("cluster analysis: option 'router' must be 0..3 "
              "(round-robin, least-outstanding, weighted, affinity)");
    config.router = static_cast<cluster::RouterPolicy>(router);
    config.arrivalRatePerSec = spec.opt("rate", 100.0);
    config.horizonSec = spec.opt("horizon-sec", 20.0);
    config.promptLen = spec.seqLen();
    config.genTokens = spec.intOpt("gen-tokens", 16);
    config.sessions = spec.intOpt("sessions", 64);
    config.detectDelaySec = spec.opt("detect-ms", 250.0) / 1e3;
    config.ttftSloMs = spec.opt("ttft-slo-ms", 500.0);
    config.e2eSloMs = spec.opt("e2e-slo-ms", 2000.0);
    config.seed = spec.seed();
    config.validate();

    cluster::ClusterResult result = cluster::simulateCluster(config);

    json::Object doc = identityJson(spec);
    doc.set("replica_count", replicas);
    doc.set("router", cluster::routerPolicyName(config.router));
    json::Value report = result.toJson();
    for (const json::Member &member : report.asObject())
        doc.set(member.key, member.value);
    return doc;
}

class Registry
{
  public:
    static Registry &
    instance()
    {
        static Registry registry;
        return registry;
    }

    void
    add(const std::string &name, AnalysisFn fn)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _analyses[name] = std::move(fn);
    }

    bool
    has(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _analyses.count(name) != 0;
    }

    AnalysisFn
    find(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _analyses.find(name);
        if (it == _analyses.end()) {
            std::string known;
            for (const auto &[key, fn] : _analyses)
                known += (known.empty() ? "" : ", ") + key;
            fatal(strprintf("exec: unknown analysis '%s' (registered: %s)",
                            name.c_str(), known.c_str()));
        }
        return it->second;
    }

    std::vector<std::string>
    names()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        std::vector<std::string> out;
        for (const auto &[key, fn] : _analyses)
            out.push_back(key);
        return out;
    }

  private:
    Registry()
    {
        _analyses["profile"] = profileAnalysis;
        _analyses["serving"] = servingAnalysis;
        _analyses["fusion"] = fusionAnalysis;
        _analyses["generation"] = generationAnalysis;
        _analyses["cluster"] = clusterAnalysis;
    }

    std::mutex _mutex;
    std::map<std::string, AnalysisFn> _analyses;
};

} // namespace

void
registerAnalysis(const std::string &name, AnalysisFn fn)
{
    if (name.empty())
        fatal("registerAnalysis: empty name");
    if (!fn)
        fatal("registerAnalysis: null analysis function");
    Registry::instance().add(name, std::move(fn));
}

bool
hasAnalysis(const std::string &name)
{
    return Registry::instance().has(name);
}

AnalysisFn
analysisByName(const std::string &name)
{
    return Registry::instance().find(name);
}

std::vector<std::string>
analysisNames()
{
    return Registry::instance().names();
}

} // namespace skipsim::exec

/**
 * @file
 * Multi-replica cluster serving simulator. N replicas — each an
 * independent continuous-batching server over a calibrated
 * hw::Platform, optionally heterogeneous — sit behind a Router with a
 * pluggable policy. Each replica tracks KV-cache memory occupancy and
 * queues (or, with a bounded queue, rejects) admissions when full; a
 * fault layer can crash a replica mid-horizon, slow it down, or
 * partition it from the router, with a configurable detection delay
 * before in-flight requests re-route. Results report per-replica
 * utilization, cluster-level TTFT and end-to-end latency percentiles,
 * SLO attainment and goodput — the quantities the single-instance
 * serving layer cannot see.
 *
 * Determinism contract: a ClusterSpec plus its seed fully determines
 * the report. Arrivals draw from mixSeed(seed, 0); replica i's
 * (opt-in) service jitter draws from mixSeed(seed, i + 1); rate-sweep
 * scenario i reseeds as mixSeed(seed, i) — the exec::SweepSpec
 * discipline — so fanning scenarios across any number of workers is
 * byte-identical to a serial run.
 */

#ifndef SKIPSIM_CLUSTER_CLUSTER_HH
#define SKIPSIM_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.hh"
#include "hw/platform.hh"
#include "json/value.hh"
#include "kv/tier.hh"
#include "serving/arrival.hh"
#include "serving/continuous.hh"
#include "workload/model_config.hh"

namespace skipsim::obs
{
class Collector;
class SpanLog;
}

namespace skipsim::core
{
struct ShardStats;
}

namespace skipsim::cluster
{

/** Fault kinds the injection layer models. */
enum class FaultKind
{
    Crash,     ///< replica dies; stranded requests re-route on detection
    Slowdown,  ///< degraded clock: iterations stretch by `factor`
    Partition, ///< unreachable from the router; optionally heals
};

/** @return canonical fault name ("crash", "slowdown", "partition"). */
const char *faultKindName(FaultKind kind);

/** @throws skipsim::FatalError for unknown fault names. */
FaultKind faultKindByName(const std::string &name);

/** One injected fault. */
struct FaultSpec
{
    /** Injection instant, seconds into the horizon. */
    double atSec = 0.0;

    /** Target replica index. */
    std::size_t replica = 0;

    FaultKind kind = FaultKind::Crash;

    /** Slowdown only: iteration-duration multiplier (> 1 is slower). */
    double factor = 2.0;

    /**
     * Partition only: heal instant, seconds; negative means the
     * partition never heals within the horizon.
     */
    double healSec = -1.0;
};

/**
 * Disaggregated-serving role. Mixed replicas run the classic
 * co-located pipeline; a Prefill replica hands each sequence's KV off
 * to a Decode replica over the interconnect after the first token.
 */
enum class ReplicaRole
{
    Mixed,   ///< prefill and decode co-located (the default)
    Prefill, ///< prefill pool: first token, then KV handoff
    Decode,  ///< decode pool: receives KV, generates the rest
};

/** @return canonical role name ("mixed", "prefill", "decode"). */
const char *replicaRoleName(ReplicaRole role);

/** @throws skipsim::FatalError for unknown role names. */
ReplicaRole replicaRoleByName(const std::string &name);

/** One replica of the fleet. */
struct ReplicaSpec
{
    hw::Platform platform;

    /** Disaggregated-serving role (Mixed = classic co-located). */
    ReplicaRole role = ReplicaRole::Mixed;

    /** Maximum concurrently decoding sequences. */
    int maxActive = 32;

    /**
     * Nominal speed multiplier (1.0 = calibrated platform speed);
     * < 1.0 models a permanently degraded instance.
     */
    double clock = 1.0;

    /**
     * Pending-queue bound: a dispatch finding this many requests
     * queued is rejected back to the router, which retries elsewhere.
     * 0 means unbounded (queue, never reject).
     */
    int maxQueue = 0;
};

/**
 * One SLO tier of a multi-tenant fleet. When ClusterSpec::tenants is
 * non-empty, a request's SLO thresholds come from its tenant tag
 * (serving::Arrival::tenant, clamped into range) instead of the
 * spec-level thresholds, and the result reports per-tenant attainment.
 */
struct TenantSpec
{
    std::string name = "tenant";

    /** This tier's SLO thresholds, ms. */
    double ttftSloMs = 500.0;
    double e2eSloMs = 2000.0;
};

/**
 * Largest fleet one ClusterSpec may describe: the index range the
 * simulator packs under each event type in a queue priority (past it,
 * replica iteration-end priorities would collide). Spec readers check
 * a replica count against it before stamping replicas out, so an
 * absurd count fails at once instead of allocating without bound.
 */
inline constexpr std::size_t kMaxReplicas = std::size_t{1} << 20;

/**
 * @throws skipsim::FatalError naming @p field when @p replicas exceeds
 *         kMaxReplicas.
 */
void requireFleetCap(std::uint64_t replicas, const std::string &field);

/** The whole cluster scenario. */
struct ClusterSpec
{
    workload::ModelConfig model;
    std::vector<ReplicaSpec> replicas;
    RouterPolicy router = RouterPolicy::LeastOutstanding;

    /** Mean Poisson arrival rate, requests per second. */
    double arrivalRatePerSec = 100.0;

    /**
     * Pluggable traffic model (serving::ArrivalProcess). Null means
     * the legacy constant-rate Poisson built from arrivalRatePerSec
     * and sessions — draw-for-draw identical to the pre-registry
     * inline loop, so old specs keep their byte-identical reports.
     * Shared (immutable) so scenarioAt() copies stay cheap.
     */
    std::shared_ptr<const serving::ArrivalProcess> traffic;

    /**
     * SLO tiers for multi-tenant traffic; empty means single-tenant
     * accounting against ttftSloMs/e2eSloMs. Indexed by the arrival
     * process's tenant tags.
     */
    std::vector<TenantSpec> tenants;

    /**
     * Optional rate-sweep axis; when non-empty, scenarioCount() /
     * scenarioAt() expand one scenario per rate (arrivalRatePerSec is
     * ignored) with seeds mixSeed(seed, index).
     */
    std::vector<double> rates;

    double horizonSec = 20.0;

    /** Prompt length of every request, tokens. */
    int promptLen = 256;

    /** Tokens generated per request. */
    int genTokens = 16;

    /** Session-id pool size (SessionAffinity routing key space). */
    int sessions = 64;

    /** Fault-detection delay: router learns of a fault this late, s. */
    double detectDelaySec = 0.25;

    /** SLO thresholds for attainment/goodput accounting, ms. */
    double ttftSloMs = 500.0;
    double e2eSloMs = 2000.0;

    /**
     * Opt-in per-iteration service jitter (fraction of duration);
     * 0 disables it. Replica i draws from mixSeed(seed, i + 1).
     */
    double jitterFrac = 0.0;

    std::uint64_t seed = 42;

    std::vector<FaultSpec> faults;

    /**
     * KV-cache tiering (host-memory offload over the interconnect).
     * The default Never policy disables tiering entirely — no store,
     * no link traffic — keeping pre-tiering reports byte-identical.
     */
    kv::TierSpec kvTier;

    /**
     * Router dispatch latency, microseconds: a routed request reaches
     * its replica this much later, as an explicit delivery event.
     * 0 (the default) keeps the historical inline hand-off.
     */
    double dispatchUs = 0.0;

    /**
     * Gate each delivery on its input-staging transfer: the request
     * only enters the replica's queue once its prompt has crossed the
     * CPU-GPU link lane, so heavy KV-offload paging on the same lane
     * delays admission (bandwidth contention). Off keeps the
     * historical fire-and-forget staging. Only meaningful when the
     * lanes are live (KV tiering or disaggregation enabled).
     */
    bool stagedDispatch = false;

    /** True when any replica has a non-Mixed role. */
    bool disaggregated() const;

    /** @throws skipsim::FatalError on inconsistent specs. */
    void validate() const;

    /** Rate-sweep cardinality (1 when `rates` is empty). */
    std::size_t scenarioCount() const;

    /**
     * Expand sweep scenario @p index: rates collapse to one rate and
     * the seed becomes mixSeed(seed, index).
     * @throws skipsim::FatalError when index >= scenarioCount().
     */
    ClusterSpec scenarioAt(std::size_t index) const;

    /**
     * JSON round trip. Platforms serialize by catalog name (fromJson
     * also accepts inline platform objects); replica entries may
     * carry a "count" to stamp out identical replicas.
     */
    json::Value toJson() const;
    /** @throws skipsim::FatalError on malformed documents. */
    static ClusterSpec fromJson(const json::Value &doc);

    /** File round trip via src/json. */
    static ClusterSpec load(const std::string &path);
    void save(const std::string &path) const;
};

/** Per-replica outcome. */
struct ReplicaStats
{
    std::string platformName;

    /** Requests the router dispatched here (including re-routes). */
    std::size_t routed = 0;

    std::size_t completed = 0;

    /** Dispatches bounced off a full pending queue. */
    std::size_t rejected = 0;

    /** In-flight requests pulled away by fault detection. */
    std::size_t rerouted = 0;

    /** Fraction of the horizon spent executing iterations. */
    double utilization = 0.0;

    /** Mean active sequences per decode iteration (0 if none ran). */
    double meanActive = 0.0;

    /** Peak reserved KV-cache bytes. */
    double peakKvBytes = 0.0;

    bool crashed = false;

    /** @name KV-tiering / disaggregation extras (zero when off)
     *  @{ */
    std::size_t kvOffloads = 0;  ///< HBM -> host pages
    std::size_t kvFetches = 0;   ///< host -> HBM prefix fetches
    std::size_t kvEvictions = 0; ///< retained entries dropped
    std::size_t handoffs = 0;    ///< prefill -> decode KV handoffs
    double peakHostKvBytes = 0.0;
    double linkBusyNs = 0.0; ///< KV + staging + handoff lane time
    /** @} */
};

/** Per-tenant outcome (only populated for multi-tenant specs). */
struct TenantStats
{
    std::string name;

    std::size_t offered = 0;
    std::size_t completed = 0;

    /** Fraction of this tenant's offered requests meeting its SLOs. */
    double sloAttainment = 0.0;

    /** This tenant's SLO-meeting completions per simulated second. */
    double goodputRps = 0.0;

    double p99TtftNs = 0.0;
    double p99E2eNs = 0.0;
};

/**
 * Cluster-level KV-tiering / disaggregation outcome, reported only
 * when the spec enables tiering or replica roles ("kv" in the JSON).
 */
struct KvClusterStats
{
    bool enabled = false;

    std::size_t offloads = 0;
    std::size_t fetches = 0;
    std::size_t evictions = 0;
    std::size_t hitsHbm = 0;
    std::size_t hitsHost = 0;
    std::size_t misses = 0;
    std::size_t handoffs = 0;
    double offloadedBytes = 0.0;
    double fetchedBytes = 0.0;
    double handoffBytes = 0.0;
    double linkBusyNs = 0.0;

    /** Energy accounting over the horizon (extends the single-node
     *  analysis::estimateEnergy model to the fleet). */
    double cpuJoules = 0.0;
    double gpuJoules = 0.0;
    double joulesPerCompleted = 0.0;
};

/** Cluster-level outcome. */
struct ClusterResult
{
    /** Arrival-rate identity of the scenario (mean rate for
     *  non-Poisson traffic). */
    double arrivalRatePerSec = 0.0;

    /** Requests that arrived within the horizon. */
    std::size_t offered = 0;

    std::size_t completed = 0;

    /** Offered requests that never completed (stranded, backlogged). */
    std::size_t lost = 0;

    /** Requests re-dispatched after a fault was detected. */
    std::size_t rerouted = 0;

    double throughputRps = 0.0;

    /** TTFT: arrival -> first token of the finally-serving replica, ns. */
    double p50TtftNs = 0.0;
    double p95TtftNs = 0.0;
    double p99TtftNs = 0.0;

    /** End-to-end: arrival -> last generated token, ns. */
    double p50E2eNs = 0.0;
    double p95E2eNs = 0.0;
    double p99E2eNs = 0.0;

    /**
     * Fraction of offered requests that completed within both SLOs
     * (a lost request counts as a miss, so overload shows honestly).
     */
    double sloAttainment = 0.0;

    /** SLO-meeting completions per second of simulated time. */
    double goodputRps = 0.0;

    std::vector<ReplicaStats> replicas;

    /** Per-tenant breakdown (empty for single-tenant specs). */
    std::vector<TenantStats> tenants;

    /** KV-tiering breakdown (enabled=false for classic specs). */
    KvClusterStats kv;

    /** Deterministic report document (no host timings). */
    json::Value toJson() const;
};

/**
 * Shared per-platform iteration-cost models. Building an
 * IterationCostModel simulates the workload across a batch grid, so
 * sweeps build the cache once (serially) and share it across
 * scenarios. After build() the cache and its models are read-only
 * (IterationCostModel never changes after construction), so scenario
 * workers on any number of threads may read them at once.
 */
class CostCache
{
  public:
    /** Build models for every distinct platform in @p spec (idempotent
     *  for a matching model/prompt; @throws skipsim::FatalError when
     *  reused across different model or prompt configurations). */
    void build(const ClusterSpec &spec);

    /** @throws skipsim::FatalError when @p platformName was not built. */
    const serving::IterationCostModel &
    get(const std::string &platformName) const;

  private:
    std::string _modelName;
    int _promptLen = 0;
    std::map<std::string, std::shared_ptr<serving::IterationCostModel>>
        _models;
};

/**
 * Simulate one cluster scenario. Builds a private CostCache; prefer
 * the cost-cache overload when running many scenarios.
 *
 * When @p spans is non-null the simulation records per-request
 * lifecycle spans into it through the real dispatch path: arrival,
 * routing decision (replica + policy reason), queue wait, prefill
 * admission wait, KV-tier fetch stalls, prefill, prefill->decode
 * handoff, per-iteration decode and completion (see obs::SpanLog).
 * Requests seal in completion-event order, so the span export honours
 * the same any---jobs byte-identity contract as the report.
 *
 * When @p obs is non-null the simulation records probes into it at the
 * collector's deterministic simulated-time boundaries: per-replica
 * cluster.queue_depth / cluster.batch_active / cluster.kv_bytes /
 * cluster.outstanding / cluster.rerouted samples, cluster-wide
 * windowed cluster.throughput_rps / cluster.ttft_ms plus
 * cluster.backlog and cluster.rerouted_total, one duration span per
 * completed iteration (track = replica index), instant markers for
 * fault injection/detection/heal, and end-of-run registry totals with
 * TTFT/E2E histograms. Probes never perturb the result; because
 * sampling instants are pure functions of the interval, the obs JSON
 * honours the same determinism contract as the report itself.
 *
 * When @p shardStats is non-null it receives the run's engine
 * counters (events processed) — diagnostics only, deliberately kept
 * out of the result.
 *
 * @throws skipsim::FatalError on invalid specs.
 */
ClusterResult simulateCluster(const ClusterSpec &spec,
                              obs::Collector *obs = nullptr,
                              obs::SpanLog *spans = nullptr,
                              core::ShardStats *shardStats = nullptr);

/** Simulate with a pre-built cost cache (see CostCache). */
ClusterResult simulateCluster(const ClusterSpec &spec,
                              const CostCache &costs,
                              obs::Collector *obs = nullptr,
                              obs::SpanLog *spans = nullptr,
                              core::ShardStats *shardStats = nullptr);

} // namespace skipsim::cluster

#endif // SKIPSIM_CLUSTER_CLUSTER_HH

#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "core/engine.hh"
#include "core/resource.hh"
#include "core/rng_stream.hh"
#include "core/sharded_engine.hh"
#include "obs/collector.hh"
#include "obs/span.hh"
#include "serving/replica_engine.hh"
#include "stats/summary.hh"
#include "workload/memory.hh"

namespace skipsim::cluster
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Crash:
        return "crash";
    case FaultKind::Slowdown:
        return "slowdown";
    case FaultKind::Partition:
        return "partition";
    }
    return "unknown";
}

FaultKind
faultKindByName(const std::string &name)
{
    for (FaultKind kind : {FaultKind::Crash, FaultKind::Slowdown,
                           FaultKind::Partition}) {
        if (name == faultKindName(kind))
            return kind;
    }
    fatal(strprintf("cluster: unknown fault kind '%s' (expected crash, "
                    "slowdown or partition)",
                    name.c_str()));
}

const char *
replicaRoleName(ReplicaRole role)
{
    switch (role) {
    case ReplicaRole::Mixed:
        return "mixed";
    case ReplicaRole::Prefill:
        return "prefill";
    case ReplicaRole::Decode:
        return "decode";
    }
    return "unknown";
}

ReplicaRole
replicaRoleByName(const std::string &name)
{
    for (ReplicaRole role : {ReplicaRole::Mixed, ReplicaRole::Prefill,
                             ReplicaRole::Decode}) {
        if (name == replicaRoleName(role))
            return role;
    }
    fatal(strprintf("cluster: unknown replica role '%s' (expected "
                    "mixed, prefill or decode)",
                    name.c_str()));
}

bool
ClusterSpec::disaggregated() const
{
    for (const ReplicaSpec &rep : replicas) {
        if (rep.role != ReplicaRole::Mixed)
            return true;
    }
    return false;
}

void
ClusterSpec::validate() const
{
    if (replicas.empty())
        fatal("ClusterSpec: need at least one replica");
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        const ReplicaSpec &rep = replicas[r];
        if (rep.maxActive <= 0)
            fatal(strprintf("ClusterSpec: replica %zu maxActive must be "
                            "positive",
                            r));
        if (rep.clock <= 0.0)
            fatal(strprintf("ClusterSpec: replica %zu clock must be "
                            "positive",
                            r));
        if (rep.maxQueue < 0)
            fatal(strprintf("ClusterSpec: replica %zu maxQueue must be "
                            "non-negative",
                            r));
    }
    if (traffic != nullptr) {
        traffic->validate();
        if (!rates.empty())
            fatal("ClusterSpec: a rate sweep needs the default Poisson "
                  "traffic (custom arrival processes carry their own "
                  "rates)");
    } else if (arrivalRatePerSec <= 0.0 && rates.empty()) {
        fatal("ClusterSpec: arrival rate must be positive");
    }
    for (double rate : rates) {
        if (rate <= 0.0)
            fatal("ClusterSpec: every sweep rate must be positive");
    }
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        if (tenants[i].ttftSloMs <= 0.0 || tenants[i].e2eSloMs <= 0.0)
            fatal(strprintf("ClusterSpec: tenant %zu SLO thresholds "
                            "must be positive",
                            i));
    }
    kvTier.validate();
    if (dispatchUs < 0.0)
        fatal("ClusterSpec: dispatchUs must be non-negative");
    if (disaggregated()) {
        bool prefill_capable = false;
        bool decode_capable = false;
        for (const ReplicaSpec &rep : replicas) {
            if (rep.role != ReplicaRole::Decode)
                prefill_capable = true;
            if (rep.role != ReplicaRole::Prefill)
                decode_capable = true;
        }
        if (!prefill_capable)
            fatal("ClusterSpec: a disaggregated fleet needs at least "
                  "one prefill-capable (prefill or mixed) replica");
        if (genTokens > 1 && !decode_capable)
            fatal("ClusterSpec: a disaggregated fleet generating more "
                  "than one token needs at least one decode-capable "
                  "(decode or mixed) replica");
    }
    if (horizonSec <= 0.0)
        fatal("ClusterSpec: horizon must be positive");
    if (promptLen <= 0)
        fatal("ClusterSpec: promptLen must be positive");
    if (genTokens <= 0)
        fatal("ClusterSpec: genTokens must be positive");
    if (sessions <= 0)
        fatal("ClusterSpec: sessions must be positive");
    if (detectDelaySec < 0.0)
        fatal("ClusterSpec: detection delay must be non-negative");
    if (jitterFrac < 0.0 || jitterFrac >= 1.0)
        fatal("ClusterSpec: jitterFrac must be within [0, 1)");
    for (const FaultSpec &f : faults) {
        if (f.replica >= replicas.size())
            fatal(strprintf("ClusterSpec: fault targets replica %zu of "
                            "%zu",
                            f.replica, replicas.size()));
        if (f.atSec < 0.0)
            fatal("ClusterSpec: fault time must be non-negative");
        if (f.kind == FaultKind::Slowdown && f.factor <= 0.0)
            fatal("ClusterSpec: slowdown factor must be positive");
        if (f.kind == FaultKind::Partition && f.healSec >= 0.0 &&
            f.healSec <= f.atSec)
            fatal("ClusterSpec: partition heal must come after the "
                  "fault");
    }
}

std::size_t
ClusterSpec::scenarioCount() const
{
    return rates.empty() ? 1 : rates.size();
}

ClusterSpec
ClusterSpec::scenarioAt(std::size_t index) const
{
    if (index >= scenarioCount())
        fatal(strprintf("ClusterSpec: scenario %zu of %zu", index,
                        scenarioCount()));
    ClusterSpec scenario = *this;
    if (!rates.empty())
        scenario.arrivalRatePerSec = rates[index];
    scenario.rates.clear();
    // Same discipline as exec::SweepSpec: the point seed is a pure
    // function of (baseSeed, index), never of execution order.
    scenario.seed = mixSeed(seed, index);
    return scenario;
}

void
CostCache::build(const ClusterSpec &spec)
{
    spec.validate();
    if (!_models.empty() &&
        (_modelName != spec.model.name || _promptLen != spec.promptLen))
        fatal(strprintf("CostCache: built for %s/prompt %d, asked for "
                        "%s/prompt %d",
                        _modelName.c_str(), _promptLen,
                        spec.model.name.c_str(), spec.promptLen));
    _modelName = spec.model.name;
    _promptLen = spec.promptLen;
    for (const ReplicaSpec &rep : spec.replicas) {
        if (_models.count(rep.platform.name))
            continue;
        _models[rep.platform.name] =
            std::make_shared<serving::IterationCostModel>(
                spec.model, rep.platform, spec.promptLen);
    }
}

const serving::IterationCostModel &
CostCache::get(const std::string &platformName) const
{
    auto it = _models.find(platformName);
    if (it == _models.end())
        fatal(strprintf("CostCache: platform '%s' was not built",
                        platformName.c_str()));
    return *it->second;
}

namespace
{

/** Discrete-event kinds, in tie-break order at equal timestamps.
 *  Append-only: reordering would change equal-timestamp tie-breaks
 *  and break every locked report golden. */
enum EventType
{
    EvFault = 0,
    EvDetect = 1,
    EvHeal = 2,
    EvIterEnd = 3,
    EvArrival = 4,
    EvKvXfer = 5,  ///< a KV handoff transfer reached the far side
    EvDeliver = 6, ///< a routed request reached its replica (dispatchUs)
    EvStage = 7,   ///< staged-dispatch prompt transfer landed
};

/**
 * Queue priority packing (type, entity index): the pre-core event
 * comparator broke equal-timestamp ties by (type, idx, serial). The
 * core queue orders by (time, priority, seq), so the index is packed
 * under the type and push order stands in for the serial (a replica's
 * iteration-end events are pushed in serial order).
 */
int
eventPriority(EventType type, std::size_t idx)
{
    constexpr std::size_t stride = std::size_t{1} << 20;
    return static_cast<int>(type) * static_cast<int>(stride) +
        static_cast<int>(std::min(idx, stride - 1));
}

struct Request
{
    double arrivalNs = 0.0;
    int session = 0;
    int tenant = 0;         ///< SLO-tier index (0 when single-tenant)
    double cachedFrac = 0.0; ///< prefix-cache share of the prompt
    double ttftNs = -1.0;   ///< reset when a fault forces a restart
    double doneNs = -1.0;
    int attempts = 0;       ///< dispatches, including fault re-routes

    /** Disaggregated phase: prefill done, KV ready for a decode pool
     *  (routes to decode-capable replicas; reset on restart). */
    bool decodeReady = false;
};

/**
 * One replica's runtime state. The batching discipline itself —
 * queues, KV admission, iteration scheduling — lives in the shared
 * serving::ReplicaEngine; this wrapper keeps what is cluster-specific:
 * fault status, partition limbo, routing stats.
 */
struct ReplicaRt
{
    const ReplicaSpec *spec = nullptr;
    Rng jitterRng{0};
    std::unique_ptr<serving::ReplicaEngine> engine;

    std::vector<std::size_t> limbo;    ///< sent while partitioned
    std::vector<std::size_t> stranded; ///< frozen by a crash

    bool crashed = false;
    bool partitioned = false;
    double slowFactor = 1.0;

    /** Lane time from staging and handoff transfers (the store tracks
     *  its own paging traffic separately). */
    double laneExtraNs = 0.0;

    ReplicaStats stats;
};

/** The whole simulation, so handlers share state without globals. */
class Sim
{
  public:
    Sim(const ClusterSpec &spec, const CostCache &costs,
        obs::Collector *obs, obs::SpanLog *spans)
        : _spec(spec), _horizonNs(spec.horizonSec * 1e9),
          _streams(spec.seed),
          _router(spec.router, makeWeights(spec, costs)),
          _disagg(spec.disaggregated()), _kvOn(spec.kvTier.enabled()),
          _dispatchNs(spec.dispatchUs * 1e3), _obs(obs), _spans(spans)
    {
        if (_disagg) {
            std::vector<unsigned> classes;
            classes.reserve(spec.replicas.size());
            for (const ReplicaSpec &rep : spec.replicas) {
                switch (rep.role) {
                case ReplicaRole::Prefill:
                    classes.push_back(kPrefillClass);
                    break;
                case ReplicaRole::Decode:
                    classes.push_back(kDecodeClass);
                    break;
                case ReplicaRole::Mixed:
                    classes.push_back(kPrefillClass | kDecodeClass);
                    break;
                }
            }
            _router.setClasses(std::move(classes));
        }
        // Input staging per dispatched request: the prompt's token
        // embeddings cross the link (FP16); unified-memory platforms
        // skip the explicit copy. Only charged when lanes are live.
        _stageBytes = static_cast<double>(spec.promptLen) *
            static_cast<double>(spec.model.hidden) * 2.0;
        if (_obs != nullptr) {
            _ticker = _obs->ticker();
            // Visit through the first boundary at or past the horizon
            // so the final partial window is represented; iterations
            // draining past the horizon are not sampled.
            _obsStopNs = static_cast<std::int64_t>(_horizonNs) +
                _obs->intervalNs() - 1;
        }
        _reps.resize(spec.replicas.size());
        _lanes.resize(spec.replicas.size());
        _stores.resize(spec.replicas.size());
        for (std::size_t r = 0; r < _reps.size(); ++r) {
            ReplicaRt &rt = _reps[r];
            rt.spec = &spec.replicas[r];
            rt.jitterRng = _streams.stream(r + 1);
            rt.stats.platformName = rt.spec->platform.name;

            // KV budget: HBM minus weights and one max-batch of
            // activations; each admission conservatively reserves the
            // full prompt+generation KV footprint (vLLM-style
            // worst-case admission control).
            workload::MemoryFootprint per_seq = workload::estimateMemory(
                spec.model, 1, spec.promptLen + spec.genTokens);
            workload::MemoryFootprint at_cap = workload::estimateMemory(
                spec.model, rt.spec->maxActive, spec.promptLen);
            double kv_per_seq = per_seq.kvCacheBytes;
            double kv_capacity = rt.spec->platform.gpu.hbmBytes() -
                at_cap.weightsBytes - at_cap.activationBytes;
            if (kv_capacity < kv_per_seq)
                fatal(strprintf(
                    "simulateCluster: replica %zu (%s) cannot hold one "
                    "%d-token sequence's KV cache",
                    r, rt.spec->platform.name.c_str(),
                    spec.promptLen + spec.genTokens));
            _kvPerSeqBytes = kv_per_seq;
            if (_kvOn)
                _stores[r] = std::make_unique<kv::TieredStore>(
                    spec.kvTier, rt.spec->platform, kv_capacity,
                    _lanes[r]);

            serving::ReplicaEngine::Config ec;
            ec.cost = &costs.get(rt.spec->platform.name);
            ec.maxActive = rt.spec->maxActive;
            ec.promptLen = spec.promptLen;
            ec.genTokens = spec.genTokens;
            ec.kvPerSeqBytes = kv_per_seq;
            ec.kvCapacityBytes = kv_capacity;
            ec.horizonNs = _horizonNs;
            ec.iterPriority = eventPriority(EvIterEnd, r);
            if (_spec.traffic != nullptr) {
                // Prefix-cache hits (multi-turn traffic) skip the
                // cached share of the prefill; legacy Poisson specs
                // leave the hook unset so their cost path is
                // bit-identical to the pre-traffic-model code.
                ec.prefillFrac = [this](std::size_t id) {
                    return 1.0 - _requests[id].cachedFrac;
                };
            }
            ec.prefillOnly = rt.spec->role == ReplicaRole::Prefill;
            if (_kvOn) {
                // Two-tier store: admission pages retained entries
                // per policy and a prefix hit only saves prefill when
                // the entry is actually resident (HBM free, host paid
                // as a fetch over the link).
                kv::TieredStore *store = _stores[r].get();
                bool retain = rt.spec->role != ReplicaRole::Prefill;
                ec.kvAdmit = [this, store, kv_per_seq](
                                 std::size_t id, double now,
                                 bool decode_entry) {
                    serving::ReplicaEngine::Config::KvAdmission out;
                    kv::TieredStore::AdmitResult res = store->admit(
                        _requests[id].session, kv_per_seq, now,
                        !decode_entry);
                    out.admitted = res.admitted;
                    out.stallNs = res.stallNs;
                    out.prefillShare =
                        res.prefixHit == kv::Residency::None
                        ? 1.0
                        : 1.0 - _requests[id].cachedFrac;
                    return out;
                };
                ec.kvRelease = [this, store, kv_per_seq,
                                retain](std::size_t id, double now) {
                    store->release(_requests[id].session, kv_per_seq,
                                   now, retain);
                };
            }

            serving::ReplicaEngine::Callbacks cb;
            cb.onFirstToken = [this](std::size_t id, double ttft,
                                     double now) {
                _requests[id].ttftNs = ttft;
                _windowTtftNs += ttft;
                ++_windowTtftCount;
                if (_spans != nullptr)
                    _spans->onFirstToken(id, now);
            };
            cb.onComplete = [this, r](std::size_t id, double now) {
                ReplicaRt &rep = _reps[r];
                if (_disagg &&
                    rep.spec->role == ReplicaRole::Prefill &&
                    _spec.genTokens > 1) {
                    // First token served; the sequence's KV pages out
                    // over this replica's link, then re-dispatches
                    // into the decode pool.
                    if (_spans != nullptr)
                        _spans->onHandoffStart(id, now);
                    ++rep.stats.handoffs;
                    _router.onSettled(r);
                    _requests[id].decodeReady = true;
                    // The transfer-done event is a routing decision:
                    // it re-dispatches into the decode pool.
                    double end = chargeLane(r, _kvPerSeqBytes, now);
                    _engine.at(end, eventPriority(EvKvXfer, id),
                               [this, id](double t) { dispatch(id, t); });
                    return;
                }
                _requests[id].doneNs = now;
                ++rep.stats.completed;
                ++_windowCompleted;
                _router.onSettled(r);
                if (_spans != nullptr)
                    _spans->onComplete(id, now);
            };
            if (_spans != nullptr)
                cb.onAdmitRequest = [this](std::size_t id, double now,
                                           double stall_ns,
                                           bool decode_entry) {
                    _spans->onAdmit(id, now, stall_ns, decode_entry);
                };
            cb.onIteration =
                [this, r](const serving::IterationInfo &info) {
                    if (_obs != nullptr) {
                        const int batch = info.prefill
                            ? info.prefillBatch
                            : info.decodeBatch;
                        _obs->span((info.prefill ? "prefill b="
                                                 : "decode b=") +
                                       std::to_string(batch),
                                   static_cast<int>(r),
                                   std::llround(info.beginNs),
                                   std::llround(info.endNs -
                                                info.beginNs));
                    }
                    if (_spans != nullptr && !info.prefill &&
                        info.decodeBatch > 0 &&
                        info.activeIds != nullptr) {
                        for (const auto &[id, left] : *info.activeIds)
                            _spans->onDecodeIter(id, info.beginNs,
                                                 info.endNs,
                                                 info.decodeBatch);
                    }
                };
            cb.scaleDuration = [this, r](double base_ns) {
                ReplicaRt &rep = _reps[r];
                double dur_ns =
                    base_ns * rep.slowFactor / rep.spec->clock;
                if (_spec.jitterFrac > 0.0)
                    dur_ns *= std::max(
                        0.05,
                        rep.jitterRng.gaussian(1.0, _spec.jitterFrac));
                return dur_ns;
            };
            rt.engine = std::make_unique<serving::ReplicaEngine>(
                _engine, ec, std::move(cb));
        }
    }

    ClusterResult run();

    /** Events the finished run processed. */
    std::uint64_t events() const { return _engine.processed(); }

  private:
    static std::vector<double> makeWeights(const ClusterSpec &spec,
                                           const CostCache &costs);

    void dispatch(std::size_t id, double now);
    /** A routed request reached replica @p r: stage and enqueue. */
    void deliver(std::size_t id, std::size_t r, double now);
    void restartAndReroute(std::size_t r,
                           std::vector<std::size_t> &ids, double now);
    void drainBacklog(double now);

    /** FIFO-queue @p bytes onto replica @p r's CPU-GPU link; returns
     *  the transfer's completion instant. */
    double chargeLane(std::size_t r, double bytes, double now);
    /** A handed-off KV cache finished crossing into replica @p r. */
    void onKvArrive(std::size_t id, std::size_t r, double now);
    /** Send @p id's KV into decode replica @p r (lane + arrival). */
    void startHandoffInto(std::size_t id, std::size_t r, double now);

    void onFault(std::size_t faultIdx, double tNs);
    void onDetect(std::size_t faultIdx, double tNs);
    void onHeal(std::size_t faultIdx, double tNs);

    /** Sample every unvisited probe boundary up to @p nowNs. */
    void flushObs(double nowNs);
    /** One boundary sample of the current cluster state. */
    void sampleObs(std::int64_t t);
    /** End-of-run registry totals and histograms. */
    void finishObs(const ClusterResult &result,
                   const std::vector<double> &ttfts,
                   const std::vector<double> &e2es);

    const ClusterSpec &_spec;
    double _horizonNs;
    core::RngStreams _streams;
    Router _router;
    bool _disagg = false; ///< any replica has a non-Mixed role
    bool _kvOn = false;   ///< spec.kvTier enables the two-tier store
    core::Engine _engine;
    double _dispatchNs = 0.0; ///< spec.dispatchUs, in ns
    /** Interconnect lanes and tier stores, one per replica; lanes are
     *  live (staging + handoff traffic) whenever tiering or
     *  disaggregation is on, stores only under tiering. */
    std::vector<core::FifoResource> _lanes;
    std::vector<std::unique_ptr<kv::TieredStore>> _stores;
    double _kvPerSeqBytes = 0.0;
    double _stageBytes = 0.0;
    std::vector<ReplicaRt> _reps;
    std::vector<Request> _requests;
    std::vector<std::size_t> _backlog;
    std::size_t _rerouted = 0;

    obs::Collector *_obs = nullptr;
    obs::SpanLog *_spans = nullptr;
    obs::Ticker _ticker{0};
    std::int64_t _obsStopNs = 0;
    // Per-window accumulators, reset at every sampled boundary.
    std::size_t _windowCompleted = 0;
    double _windowTtftNs = 0.0;
    std::size_t _windowTtftCount = 0;
};

std::vector<double>
Sim::makeWeights(const ClusterSpec &spec, const CostCache &costs)
{
    // Static decode capacity (tokens/s at the full batch), the weight
    // a real balancer would configure from offline benchmarks.
    std::vector<double> weights;
    weights.reserve(spec.replicas.size());
    for (const ReplicaSpec &rep : spec.replicas) {
        double decode_ns =
            costs.get(rep.platform.name).decodeNs(rep.maxActive);
        weights.push_back(static_cast<double>(rep.maxActive) /
                          decode_ns * 1e9 * rep.clock);
    }
    return weights;
}

void
Sim::dispatch(std::size_t id, double now)
{
    Request &req = _requests[id];
    // Role-aware routing: fresh requests go to prefill-capable
    // replicas, handed-off sequences to decode-capable ones. Co-located
    // fleets dispatch class-blind, exactly as before.
    unsigned klass = kAnyClass;
    if (_disagg)
        klass = req.decodeReady ? kDecodeClass : kPrefillClass;
    std::vector<std::size_t> exclude;
    while (true) {
        std::size_t r = _router.pick(req.session, exclude, klass);
        if (r == Router::npos()) {
            _backlog.push_back(id);
            return;
        }
        ReplicaRt &rt = _reps[r];
        // Bounded-queue admission: a live, reachable replica answers a
        // full queue with an immediate rejection and the router moves
        // on. Crashed or partitioned replicas cannot answer at all —
        // the dispatch sinks into the failure until detection.
        if (!rt.crashed && !rt.partitioned && rt.spec->maxQueue > 0 &&
            rt.engine->pendingCount() >=
                static_cast<std::size_t>(rt.spec->maxQueue)) {
            ++rt.stats.rejected;
            exclude.push_back(r);
            continue;
        }
        _router.onDispatch(r);
        ++rt.stats.routed;
        ++req.attempts;
        if (_spans != nullptr) {
            std::string reason = routerPolicyName(_spec.router);
            if (req.decodeReady)
                reason += " decode-pool";
            if (!exclude.empty())
                reason += strprintf(" after %zu rejects",
                                    exclude.size());
            _spans->onRoute(id, now, static_cast<int>(r), reason);
        }
        if (rt.partitioned) {
            rt.limbo.push_back(id);
            return;
        }
        if (req.decodeReady) {
            // The prefilled KV must land before the sequence can join
            // the decode batch; the lane transfer is the handoff cost.
            startHandoffInto(id, r, now);
            return;
        }
        if (_dispatchNs > 0.0) {
            // Routing latency: the request reaches its replica one
            // explicit delivery event after the decision.
            _engine.at(now + _dispatchNs, eventPriority(EvDeliver, id),
                       [this, id, r](double t) { deliver(id, r, t); });
            return;
        }
        deliver(id, r, now);
        return;
    }
}

void
Sim::deliver(std::size_t id, std::size_t r, double now)
{
    ReplicaRt &rt = _reps[r];
    if (rt.partitioned) {
        // A partition raced the delivery: the request is stuck until
        // heal or detection re-routes it.
        rt.limbo.push_back(id);
        return;
    }
    const bool lane_live =
        (_kvOn || _disagg) && !rt.spec->platform.unifiedMemory;
    if (lane_live && _spec.stagedDispatch) {
        // Staged dispatch: admission waits for the prompt's staging
        // transfer, so KV paging and handoffs on the same lane delay
        // it — the bandwidth-contention coupling.
        double end = chargeLane(r, _stageBytes, now);
        _engine.at(
            end, eventPriority(EvStage, id), [this, id, r](double t) {
                ReplicaRt &rep = _reps[r];
                if (rep.partitioned) {
                    rep.limbo.push_back(id);
                    return;
                }
                rep.engine->enqueue(id, _requests[id].arrivalNs);
                rep.engine->maybeStart(t);
            });
        return;
    }
    // Input staging: the prompt crosses the link asynchronously
    // ahead of admission, contending with KV traffic but not
    // delaying this request. Unified-memory platforms skip it.
    if (lane_live)
        chargeLane(r, _stageBytes, now);
    // A crashed replica's engine still queues the request — it
    // sinks into the failure until detection routes around it.
    rt.engine->enqueue(id, _requests[id].arrivalNs);
    rt.engine->maybeStart(now);
}

double
Sim::chargeLane(std::size_t r, double bytes, double now)
{
    double start = _lanes[r].startFor(now);
    double dur = _reps[r].spec->platform.transferNs(bytes);
    _lanes[r].occupyUntil(start + dur);
    _reps[r].laneExtraNs += dur;
    return start + dur;
}

void
Sim::startHandoffInto(std::size_t id, std::size_t r, double now)
{
    double end = chargeLane(r, _kvPerSeqBytes, now);
    _engine.at(end, eventPriority(EvKvXfer, id),
               [this, id, r](double t) { onKvArrive(id, r, t); });
}

void
Sim::onKvArrive(std::size_t id, std::size_t r, double now)
{
    ReplicaRt &rt = _reps[r];
    if (rt.partitioned) {
        // Partition raced the transfer: the KV is stuck until heal or
        // detection re-routes the request back through prefill.
        rt.limbo.push_back(id);
        return;
    }
    // A crashed replica sinks the arrival just like a fresh enqueue.
    rt.engine->enqueueDecode(id, _requests[id].arrivalNs);
    rt.engine->maybeStart(now);
}

void
Sim::flushObs(double nowNs)
{
    if (_obs == nullptr)
        return;
    _ticker.advanceTo(std::min(nowNs,
                               static_cast<double>(_obsStopNs)),
                      [this](std::int64_t t) { sampleObs(t); });
}

void
Sim::sampleObs(std::int64_t t)
{
    for (std::size_t r = 0; r < _reps.size(); ++r) {
        const ReplicaRt &rt = _reps[r];
        const obs::Labels labels{{"replica", std::to_string(r)}};
        _obs->sample("cluster.queue_depth", labels, t,
                     static_cast<double>(rt.engine->pendingCount()));
        _obs->sample("cluster.batch_active", labels, t,
                     static_cast<double>(rt.engine->activeCount() +
                                         rt.engine->prefillingCount()));
        _obs->sample("cluster.kv_bytes", labels, t,
                     rt.engine->kvBytes());
        _obs->sample("cluster.outstanding", labels, t,
                     static_cast<double>(_router.outstanding(r)));
        _obs->sample("cluster.rerouted", labels, t,
                     static_cast<double>(rt.stats.rerouted));
    }
    const double window_sec =
        static_cast<double>(_obs->intervalNs()) / 1e9;
    _obs->sample("cluster.throughput_rps", {}, t,
                 static_cast<double>(_windowCompleted) / window_sec);
    _obs->sample("cluster.ttft_ms", {}, t,
                 _windowTtftCount > 0
                     ? _windowTtftNs /
                         static_cast<double>(_windowTtftCount) / 1e6
                     : 0.0);
    _obs->sample("cluster.backlog", {}, t,
                 static_cast<double>(_backlog.size()));
    _obs->sample("cluster.rerouted_total", {}, t,
                 static_cast<double>(_rerouted));
    _windowCompleted = 0;
    _windowTtftNs = 0.0;
    _windowTtftCount = 0;
}

void
Sim::restartAndReroute(std::size_t r, std::vector<std::size_t> &ids,
                       double now)
{
    ReplicaRt &rt = _reps[r];
    for (std::size_t id : ids) {
        // Generated tokens died with the replica: the client restarts
        // from scratch, so TTFT re-measures against the new replica.
        // A handed-off sequence's KV died too — back through prefill.
        _requests[id].ttftNs = -1.0;
        _requests[id].decodeReady = false;
        _router.onSettled(r);
        ++rt.stats.rerouted;
        ++_rerouted;
        if (_spans != nullptr)
            _spans->onRestart(id, now);
        dispatch(id, now);
    }
    ids.clear();
}

void
Sim::drainBacklog(double now)
{
    std::vector<std::size_t> waiting;
    waiting.swap(_backlog);
    for (std::size_t id : waiting)
        dispatch(id, now);
}

void
Sim::onFault(std::size_t faultIdx, double tNs)
{
    const FaultSpec &f = _spec.faults[faultIdx];
    ReplicaRt &rt = _reps[f.replica];
    if (_obs != nullptr)
        _obs->instant(std::string("fault.") + faultKindName(f.kind),
                      static_cast<int>(f.replica), std::llround(tNs));
    switch (f.kind) {
    case FaultKind::Crash: {
        if (rt.crashed)
            return;
        rt.crashed = true;
        rt.stats.crashed = true;
        // Cancel the in-flight iteration and freeze everything on the
        // replica until detection: evicted in pending, prefilling,
        // active order, with limbo appended last.
        rt.engine->halt();
        std::vector<std::size_t> evicted = rt.engine->evictAll();
        if (_kvOn)
            _stores[f.replica]->dropAll(); // host tier dies with it
        rt.stranded.insert(rt.stranded.end(), evicted.begin(),
                           evicted.end());
        rt.stranded.insert(rt.stranded.end(), rt.limbo.begin(),
                           rt.limbo.end());
        rt.limbo.clear();
        _engine.at(tNs + _spec.detectDelaySec * 1e9,
                   eventPriority(EvDetect, faultIdx),
                   [this, faultIdx](double t) { onDetect(faultIdx, t); });
        return;
    }
    case FaultKind::Slowdown:
        rt.slowFactor = f.factor; // next iteration start onward
        return;
    case FaultKind::Partition:
        if (rt.crashed || rt.partitioned)
            return;
        rt.partitioned = true;
        _engine.at(tNs + _spec.detectDelaySec * 1e9,
                   eventPriority(EvDetect, faultIdx),
                   [this, faultIdx](double t) { onDetect(faultIdx, t); });
        if (f.healSec >= 0.0)
            _engine.at(f.healSec * 1e9, eventPriority(EvHeal, faultIdx),
                       [this, faultIdx](double t) { onHeal(faultIdx, t); });
        return;
    }
}

void
Sim::onDetect(std::size_t faultIdx, double tNs)
{
    const FaultSpec &f = _spec.faults[faultIdx];
    ReplicaRt &rt = _reps[f.replica];
    if (f.kind == FaultKind::Crash) {
        if (_obs != nullptr)
            _obs->instant("fault.detected",
                          static_cast<int>(f.replica),
                          std::llround(tNs));
        _router.markDown(f.replica);
        restartAndReroute(f.replica, rt.stranded, tNs);
    } else if (f.kind == FaultKind::Partition) {
        if (!rt.partitioned || rt.crashed)
            return; // healed (or upgraded to a crash) before detection
        if (_obs != nullptr)
            _obs->instant("fault.detected",
                          static_cast<int>(f.replica),
                          std::llround(tNs));
        _router.markDown(f.replica);
        // Requests sent into the partition never arrived; the replica
        // keeps serving what it already held (data plane intact).
        restartAndReroute(f.replica, rt.limbo, tNs);
    }
}

void
Sim::onHeal(std::size_t faultIdx, double tNs)
{
    const FaultSpec &f = _spec.faults[faultIdx];
    ReplicaRt &rt = _reps[f.replica];
    if (rt.crashed || !rt.partitioned)
        return;
    rt.partitioned = false;
    if (_obs != nullptr)
        _obs->instant("fault.healed", static_cast<int>(f.replica),
                      std::llround(tNs));
    _router.markUp(f.replica);
    // Undelivered requests from the undetected window finally arrive;
    // handed-off sequences still owe their KV transfer.
    std::vector<std::size_t> limbo;
    limbo.swap(rt.limbo);
    for (std::size_t id : limbo) {
        if (_requests[id].decodeReady)
            startHandoffInto(id, f.replica, tNs);
        else
            rt.engine->enqueue(id, _requests[id].arrivalNs);
    }
    rt.engine->maybeStart(tNs);
    drainBacklog(tNs);
}

ClusterResult
Sim::run()
{
    // Arrivals come from the spec's traffic model; a null traffic
    // field means the legacy constant-rate Poisson, whose generate()
    // replays the historical inline loop draw-for-draw (dedicated
    // arrival stream 0; replicas jitter on i + 1).
    const serving::ArrivalProcess *process = _spec.traffic.get();
    serving::PoissonProcess legacy(_spec.arrivalRatePerSec,
                                   _spec.sessions);
    if (process == nullptr)
        process = &legacy;
    const int tenant_cap = _spec.tenants.empty()
        ? 0
        : static_cast<int>(_spec.tenants.size()) - 1;
    for (const serving::Arrival &arr :
         process->generate(_horizonNs, _spec.seed)) {
        Request req;
        req.arrivalNs = arr.timeNs;
        req.session = arr.session;
        req.tenant = std::clamp(arr.tenant, 0, tenant_cap);
        req.cachedFrac = arr.cachedFrac;
        _requests.push_back(req);
    }
    if (_spans != nullptr) {
        _spans->setMeta("ttft_slo_ms",
                        strprintf("%g", _spec.ttftSloMs));
        _spans->setMeta("e2e_slo_ms", strprintf("%g", _spec.e2eSloMs));
        for (std::size_t id = 0; id < _requests.size(); ++id)
            _spans->onArrival(id, _requests[id].arrivalNs);
    }
    for (std::size_t id = 0; id < _requests.size(); ++id)
        _engine.at(_requests[id].arrivalNs, eventPriority(EvArrival, id),
                   [this, id](double now) { dispatch(id, now); });
    for (std::size_t i = 0; i < _spec.faults.size(); ++i)
        _engine.at(_spec.faults[i].atSec * 1e9, eventPriority(EvFault, i),
                   [this, i](double now) { onFault(i, now); });

    // Sample every probe boundary up to (and including) each event's
    // instant before applying it: boundary samples see the state as
    // of the boundary, never a partially applied event.
    _engine.onBeforeEvent([this](double tNs) { flushObs(tNs); });
    _engine.run();

    ClusterResult result;
    result.arrivalRatePerSec = _spec.traffic != nullptr
        ? _spec.traffic->meanRatePerSec()
        : _spec.arrivalRatePerSec;
    result.offered = _requests.size();
    result.rerouted = _rerouted;

    // Per-tenant accounting scaffolding; single-tenant specs judge
    // every request against the spec-level thresholds.
    struct TenantAcc
    {
        std::size_t offered = 0;
        std::size_t sloOk = 0;
        std::vector<double> ttfts;
        std::vector<double> e2es;
    };
    std::vector<TenantAcc> tenant_acc(_spec.tenants.size());

    std::vector<double> ttfts;
    std::vector<double> e2es;
    double ttft_slo_ns = _spec.ttftSloMs * 1e6;
    double e2e_slo_ns = _spec.e2eSloMs * 1e6;
    std::size_t slo_ok = 0;
    for (const Request &req : _requests) {
        TenantAcc *acc = _spec.tenants.empty()
            ? nullptr
            : &tenant_acc[static_cast<std::size_t>(req.tenant)];
        double ttft_slo = acc == nullptr
            ? ttft_slo_ns
            : _spec.tenants[static_cast<std::size_t>(req.tenant)]
                      .ttftSloMs *
                1e6;
        double e2e_slo = acc == nullptr
            ? e2e_slo_ns
            : _spec.tenants[static_cast<std::size_t>(req.tenant)]
                      .e2eSloMs *
                1e6;
        if (acc != nullptr)
            ++acc->offered;
        if (req.doneNs < 0.0)
            continue;
        ++result.completed;
        double e2e = req.doneNs - req.arrivalNs;
        ttfts.push_back(req.ttftNs);
        e2es.push_back(e2e);
        bool ok = req.ttftNs <= ttft_slo && e2e <= e2e_slo;
        if (ok)
            ++slo_ok;
        if (acc != nullptr) {
            acc->ttfts.push_back(req.ttftNs);
            acc->e2es.push_back(e2e);
            if (ok)
                ++acc->sloOk;
        }
    }
    result.lost = result.offered - result.completed;
    result.throughputRps =
        static_cast<double>(result.completed) / _spec.horizonSec;
    result.goodputRps =
        static_cast<double>(slo_ok) / _spec.horizonSec;
    result.sloAttainment = result.offered == 0
        ? 0.0
        : static_cast<double>(slo_ok) /
            static_cast<double>(result.offered);
    if (!ttfts.empty()) {
        std::vector<double> tp =
            stats::percentiles(ttfts, {50.0, 95.0, 99.0});
        std::vector<double> ep =
            stats::percentiles(e2es, {50.0, 95.0, 99.0});
        result.p50TtftNs = tp[0];
        result.p95TtftNs = tp[1];
        result.p99TtftNs = tp[2];
        result.p50E2eNs = ep[0];
        result.p95E2eNs = ep[1];
        result.p99E2eNs = ep[2];
    }

    for (std::size_t i = 0; i < _spec.tenants.size(); ++i) {
        const TenantAcc &acc = tenant_acc[i];
        TenantStats ts;
        ts.name = _spec.tenants[i].name;
        ts.offered = acc.offered;
        ts.completed = acc.ttfts.size();
        ts.sloAttainment = acc.offered == 0
            ? 0.0
            : static_cast<double>(acc.sloOk) /
                static_cast<double>(acc.offered);
        ts.goodputRps =
            static_cast<double>(acc.sloOk) / _spec.horizonSec;
        if (!acc.ttfts.empty()) {
            ts.p99TtftNs = stats::percentiles(acc.ttfts, {99.0})[0];
            ts.p99E2eNs = stats::percentiles(acc.e2es, {99.0})[0];
        }
        result.tenants.push_back(std::move(ts));
    }

    for (std::size_t r = 0; r < _reps.size(); ++r) {
        ReplicaRt &rt = _reps[r];
        rt.stats.utilization =
            std::min(1.0, rt.engine->busyNs() / _horizonNs);
        rt.stats.meanActive = rt.engine->activeSizes().count() > 0
            ? rt.engine->activeSizes().mean()
            : 0.0;
        rt.stats.peakKvBytes = rt.engine->peakKvBytes();
        rt.stats.linkBusyNs = rt.laneExtraNs;
        if (_kvOn) {
            const kv::TierStats &ks = _stores[r]->stats();
            rt.stats.kvOffloads = ks.offloads;
            rt.stats.kvFetches = ks.fetches;
            rt.stats.kvEvictions = ks.evictions;
            rt.stats.peakHostKvBytes = ks.peakHostBytes;
            rt.stats.linkBusyNs += ks.linkBusyNs;
            // External store: the engine never tracks KV itself.
            rt.stats.peakKvBytes =
                std::max(rt.stats.peakKvBytes, ks.peakHbmBytes);
        }
        result.replicas.push_back(rt.stats);
    }

    if (_kvOn || _disagg) {
        KvClusterStats &kv = result.kv;
        kv.enabled = true;
        for (std::size_t r = 0; r < _reps.size(); ++r) {
            const ReplicaRt &rt = _reps[r];
            kv.handoffs += rt.stats.handoffs;
            kv.linkBusyNs += rt.stats.linkBusyNs;
            if (_kvOn) {
                const kv::TierStats &ks = _stores[r]->stats();
                kv.offloads += ks.offloads;
                kv.fetches += ks.fetches;
                kv.evictions += ks.evictions;
                kv.hitsHbm += ks.hitsHbm;
                kv.hitsHost += ks.hitsHost;
                kv.misses += ks.misses;
                kv.offloadedBytes += ks.offloadedBytes;
                kv.fetchedBytes += ks.fetchedBytes;
            }
        }
        kv.handoffBytes =
            _kvPerSeqBytes * static_cast<double>(kv.handoffs);
        // Fleet energy over the horizon: busy time at busy power,
        // the remainder idle (the single-node analysis model, summed
        // across heterogeneous replicas).
        for (const ReplicaRt &rt : _reps) {
            const hw::Platform &p = rt.spec->platform;
            double busy_sec = rt.stats.utilization * _spec.horizonSec;
            double idle_sec = _spec.horizonSec - busy_sec;
            kv.gpuJoules += busy_sec * p.gpu.busyPowerW +
                idle_sec * p.gpu.idlePowerW;
            kv.cpuJoules += busy_sec * p.cpu.busyPowerW +
                idle_sec * p.cpu.idlePowerW;
        }
        kv.joulesPerCompleted = result.completed > 0
            ? (kv.cpuJoules + kv.gpuJoules) /
                static_cast<double>(result.completed)
            : 0.0;
    }

    if (_obs != nullptr) {
        flushObs(static_cast<double>(_obsStopNs));
        finishObs(result, ttfts, e2es);
    }
    return result;
}

void
Sim::finishObs(const ClusterResult &result,
               const std::vector<double> &ttfts,
               const std::vector<double> &e2es)
{
    obs::Registry &metrics = _obs->metrics();
    metrics.counter("cluster.requests_offered")
        .add(static_cast<double>(result.offered));
    metrics.counter("cluster.requests_completed")
        .add(static_cast<double>(result.completed));
    metrics.counter("cluster.requests_lost")
        .add(static_cast<double>(result.lost));
    metrics.counter("cluster.rerouted")
        .add(static_cast<double>(result.rerouted));
    for (std::size_t r = 0; r < _reps.size(); ++r) {
        const ReplicaStats &stats = _reps[r].stats;
        const obs::Labels labels{{"replica", std::to_string(r)}};
        metrics.counter("cluster.replica_routed", labels)
            .add(static_cast<double>(stats.routed));
        metrics.counter("cluster.replica_completed", labels)
            .add(static_cast<double>(stats.completed));
        metrics.counter("cluster.replica_rejected", labels)
            .add(static_cast<double>(stats.rejected));
        metrics.counter("cluster.replica_rerouted", labels)
            .add(static_cast<double>(stats.rerouted));
        metrics.gauge("cluster.replica_peak_kv_bytes", labels)
            .set(stats.peakKvBytes);
    }
    obs::Histogram &ttft_hist = metrics.histogram(
        "cluster.ttft_ms", obs::defaultLatencyBucketsMs());
    for (double ttft : ttfts)
        ttft_hist.observe(ttft / 1e6);
    obs::Histogram &e2e_hist = metrics.histogram(
        "cluster.e2e_ms", obs::defaultLatencyBucketsMs());
    for (double e2e : e2es)
        e2e_hist.observe(e2e / 1e6);
}

} // namespace

ClusterResult
simulateCluster(const ClusterSpec &spec, const CostCache &costs,
                obs::Collector *obs, obs::SpanLog *spans,
                core::ShardStats *shardStats)
{
    spec.validate();
    if (!spec.rates.empty())
        fatal("simulateCluster: expand rate sweeps via scenarioAt() "
              "first");
    Sim sim(spec, costs, obs, spans);
    ClusterResult result = sim.run();
    if (shardStats != nullptr)
        *shardStats = core::ShardStats{sim.events(), 0};
    return result;
}

ClusterResult
simulateCluster(const ClusterSpec &spec, obs::Collector *obs,
                obs::SpanLog *spans, core::ShardStats *shardStats)
{
    CostCache costs;
    costs.build(spec);
    return simulateCluster(spec, costs, obs, spans, shardStats);
}

json::Value
ClusterResult::toJson() const
{
    json::Object doc;
    doc.set("rate", arrivalRatePerSec);
    doc.set("offered", static_cast<unsigned long long>(offered));
    doc.set("completed", static_cast<unsigned long long>(completed));
    doc.set("lost", static_cast<unsigned long long>(lost));
    doc.set("rerouted", static_cast<unsigned long long>(rerouted));
    doc.set("throughput_rps", throughputRps);
    doc.set("ttft_p50_ms", p50TtftNs / 1e6);
    doc.set("ttft_p95_ms", p95TtftNs / 1e6);
    doc.set("ttft_p99_ms", p99TtftNs / 1e6);
    doc.set("e2e_p50_ms", p50E2eNs / 1e6);
    doc.set("e2e_p95_ms", p95E2eNs / 1e6);
    doc.set("e2e_p99_ms", p99E2eNs / 1e6);
    doc.set("slo_attainment", sloAttainment);
    doc.set("goodput_rps", goodputRps);
    json::Value::Array reps;
    for (const ReplicaStats &rep : replicas) {
        json::Object entry;
        entry.set("platform", rep.platformName);
        entry.set("routed", static_cast<unsigned long long>(rep.routed));
        entry.set("completed",
                  static_cast<unsigned long long>(rep.completed));
        entry.set("rejected",
                  static_cast<unsigned long long>(rep.rejected));
        entry.set("rerouted",
                  static_cast<unsigned long long>(rep.rerouted));
        entry.set("utilization", rep.utilization);
        entry.set("mean_active", rep.meanActive);
        entry.set("peak_kv_bytes", rep.peakKvBytes);
        entry.set("crashed", rep.crashed);
        if (kv.enabled) {
            entry.set("kv_offloads",
                      static_cast<unsigned long long>(rep.kvOffloads));
            entry.set("kv_fetches",
                      static_cast<unsigned long long>(rep.kvFetches));
            entry.set("kv_evictions",
                      static_cast<unsigned long long>(rep.kvEvictions));
            entry.set("handoffs",
                      static_cast<unsigned long long>(rep.handoffs));
            entry.set("peak_host_kv_bytes", rep.peakHostKvBytes);
            entry.set("link_busy_ms", rep.linkBusyNs / 1e6);
        }
        reps.push_back(json::Value(std::move(entry)));
    }
    doc.set("replicas", json::Value(std::move(reps)));
    if (!tenants.empty()) {
        json::Value::Array tiers;
        for (const TenantStats &tier : tenants) {
            json::Object entry;
            entry.set("name", tier.name);
            entry.set("offered",
                      static_cast<unsigned long long>(tier.offered));
            entry.set("completed",
                      static_cast<unsigned long long>(tier.completed));
            entry.set("slo_attainment", tier.sloAttainment);
            entry.set("goodput_rps", tier.goodputRps);
            entry.set("ttft_p99_ms", tier.p99TtftNs / 1e6);
            entry.set("e2e_p99_ms", tier.p99E2eNs / 1e6);
            tiers.push_back(json::Value(std::move(entry)));
        }
        doc.set("tenants", json::Value(std::move(tiers)));
    }
    if (kv.enabled) {
        json::Object tier;
        tier.set("offloads",
                 static_cast<unsigned long long>(kv.offloads));
        tier.set("offloaded_bytes", kv.offloadedBytes);
        tier.set("fetches", static_cast<unsigned long long>(kv.fetches));
        tier.set("fetched_bytes", kv.fetchedBytes);
        tier.set("evictions",
                 static_cast<unsigned long long>(kv.evictions));
        tier.set("hits_hbm",
                 static_cast<unsigned long long>(kv.hitsHbm));
        tier.set("hits_host",
                 static_cast<unsigned long long>(kv.hitsHost));
        tier.set("misses", static_cast<unsigned long long>(kv.misses));
        tier.set("handoffs",
                 static_cast<unsigned long long>(kv.handoffs));
        tier.set("handoff_bytes", kv.handoffBytes);
        tier.set("link_busy_ms", kv.linkBusyNs / 1e6);
        tier.set("cpu_joules", kv.cpuJoules);
        tier.set("gpu_joules", kv.gpuJoules);
        tier.set("joules_per_completed", kv.joulesPerCompleted);
        doc.set("kv", json::Value(std::move(tier)));
    }
    return json::Value(std::move(doc));
}

} // namespace skipsim::cluster

#include "serving/continuous.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "core/engine.hh"
#include "obs/collector.hh"
#include "serving/arrival.hh"
#include "serving/replica_engine.hh"
#include "sim/simulator.hh"
#include "stats/summary.hh"
#include "workload/builder.hh"

namespace skipsim::serving
{

namespace
{

/** One batching iteration, for post-hoc probe replay. */
struct IterRec
{
    double beginNs = 0.0;
    double endNs = 0.0;
    /** Sequences worked this iteration (decode batch + prefills). */
    int active = 0;
    /** Tokens emitted when the iteration completes. */
    int tokens = 0;
    /** Span name ("prefill b=N" / "decode b=N" / "chunk+decode b=N"). */
    std::string label;
};

/**
 * Replay recorded iterations over the collector's deterministic
 * sampling boundaries; runs after the simulation completes.
 */
void
emitContinuousObs(obs::Collector &obs,
                  const std::vector<double> &arrivals,
                  const std::vector<double> &admits,
                  const std::vector<IterRec> &iters,
                  const std::vector<std::pair<double, double>> &ttfts,
                  std::size_t completed, std::size_t tokens_total,
                  double horizon_ns)
{
    obs::Registry &metrics = obs.metrics();
    metrics.counter("continuous.requests_offered")
        .add(static_cast<double>(arrivals.size()));
    metrics.counter("continuous.requests_completed")
        .add(static_cast<double>(completed));
    metrics.counter("continuous.tokens")
        .add(static_cast<double>(tokens_total));
    metrics.counter("continuous.iterations")
        .add(static_cast<double>(iters.size()));
    obs::Histogram &ttft_hist = metrics.histogram(
        "continuous.ttft_ms", obs::defaultLatencyBucketsMs());
    for (const auto &ttft : ttfts)
        ttft_hist.observe(ttft.second / 1e6);

    for (const IterRec &iter : iters)
        obs.span(iter.label, 0, std::llround(iter.beginNs),
                 std::llround(iter.endNs - iter.beginNs));

    obs::Ticker tick = obs.ticker();
    const double window_sec =
        static_cast<double>(obs.intervalNs()) / 1e9;
    std::size_t arr_i = 0;
    std::size_t admit_i = 0;
    std::size_t iter_i = 0;  // iteration possibly covering the boundary
    std::size_t token_i = 0; // iterations whose tokens are counted
    std::size_t ttft_i = 0;
    const double stop =
        horizon_ns + static_cast<double>(obs.intervalNs()) - 1.0;
    tick.advanceTo(stop, [&](std::int64_t t) {
        const double now = static_cast<double>(t);
        while (arr_i < arrivals.size() && arrivals[arr_i] <= now)
            ++arr_i;
        while (admit_i < admits.size() && admits[admit_i] <= now)
            ++admit_i;
        while (iter_i < iters.size() && iters[iter_i].endNs <= now)
            ++iter_i;
        double active = 0.0;
        if (iter_i < iters.size() && iters[iter_i].beginNs <= now)
            active = static_cast<double>(iters[iter_i].active);

        long long window_tokens = 0;
        while (token_i < iters.size() && iters[token_i].endNs <= now) {
            window_tokens += iters[token_i].tokens;
            ++token_i;
        }
        const std::size_t ttft_begin = ttft_i;
        double window_ttft_ns = 0.0;
        while (ttft_i < ttfts.size() && ttfts[ttft_i].first <= now) {
            window_ttft_ns += ttfts[ttft_i].second;
            ++ttft_i;
        }
        const std::size_t window_ttfts = ttft_i - ttft_begin;

        obs.sample("continuous.queue_depth", {}, t,
                   static_cast<double>(arr_i) -
                       static_cast<double>(admit_i));
        obs.sample("continuous.batch_active", {}, t, active);
        obs.sample("continuous.tokens_per_sec", {}, t,
                   static_cast<double>(window_tokens) / window_sec);
        obs.sample("continuous.ttft_ms", {}, t,
                   window_ttfts > 0
                       ? window_ttft_ns /
                           static_cast<double>(window_ttfts) / 1e6
                       : 0.0);
    });
}

/** @p curve at @p batch; warns once when past the measured grid. */
double
atBatch(const stats::Series &curve, int batch)
{
    if (batch <= 0)
        fatal("IterationCostModel: batch must be positive");
    if (batch > curve.points().back().x)
        warnOnce("IterationCostModel.extrapolate",
                 strprintf("IterationCostModel: batch %d beyond the "
                           "measured grid (max %g); extrapolating "
                           "linearly",
                           batch, curve.points().back().x));
    return curve.extrapolate(batch);
}

} // namespace

IterationCostModel::IterationCostModel(const workload::ModelConfig &model,
                                       const hw::Platform &platform,
                                       int prompt_len)
    : _model(model), _promptLen(prompt_len), _platform(platform)
{
    if (prompt_len <= 0)
        fatal("IterationCostModel: prompt length must be positive");

    sim::Simulator simulator(platform);
    for (int batch : {1, 2, 4, 8, 16, 32, 64}) {
        workload::BuildOptions opts;
        opts.batch = batch;
        opts.seqLen = prompt_len;
        _prefill.add(
            batch,
            simulator.run(workload::buildPrefillGraph(model, opts))
                .wallNs);
        _decode.add(batch,
                    simulator
                        .run(workload::buildDecodeStepGraph(model, opts,
                                                            prompt_len))
                        .wallNs);
    }
}

double
IterationCostModel::prefillNs(int batch) const
{
    return atBatch(_prefill, batch);
}

double
IterationCostModel::decodeNs(int batch) const
{
    return atBatch(_decode, batch);
}

double
IterationCostModel::chunkNs(int chunk_tokens) const
{
    if (chunk_tokens <= 0)
        fatal("IterationCostModel::chunkNs: chunk must be positive");
    auto it = _chunkCache.find(chunk_tokens);
    if (it != _chunkCache.end())
        return it->second;
    workload::BuildOptions opts;
    opts.batch = 1;
    opts.seqLen = chunk_tokens;
    sim::Simulator simulator(_platform);
    double ns =
        simulator.run(workload::buildPrefillGraph(_model, opts)).wallNs;
    _chunkCache.emplace(chunk_tokens, ns);
    return ns;
}

ContinuousResult
simulateContinuous(const IterationCostModel &cost,
                   const ContinuousConfig &config, obs::Collector *obs)
{
    // NaN and infinity fail these checks: either would keep the
    // arrival generator from terminating.
    if (!std::isfinite(config.arrivalRatePerSec) ||
        config.arrivalRatePerSec <= 0.0)
        fatal("simulateContinuous: arrivalRatePerSec must be positive "
              "and finite");
    if (!std::isfinite(config.horizonSec) || config.horizonSec <= 0.0)
        fatal("simulateContinuous: horizonSec must be positive and "
              "finite");
    if (config.maxActive <= 0)
        fatal("simulateContinuous: maxActive must be positive");
    if (config.genTokens <= 0)
        fatal("simulateContinuous: genTokens must be positive");

    requireArrivalBudget(config.arrivalRatePerSec, config.horizonSec,
                         "simulateContinuous", "arrivalRatePerSec",
                         "horizonSec");

    // Poisson arrivals over the horizon.
    double horizon_ns = config.horizonSec * 1e9;
    std::vector<double> arrivals = poissonTimesNs(
        config.arrivalRatePerSec, horizon_ns, config.seed);

    ContinuousResult result;
    std::vector<double> obs_admits; // one admission instant per request
    std::vector<IterRec> obs_iters;
    std::vector<std::pair<double, double>> obs_ttfts;
    std::vector<double> ttfts;

    core::Engine engine;
    ReplicaEngine::Config rc;
    rc.cost = &cost;
    rc.maxActive = config.maxActive;
    rc.genTokens = config.genTokens;
    rc.chunkTokens = config.chunkTokens;
    rc.horizonNs = horizon_ns;
    rc.iterPriority = 1; // arrivals (0) admit at an equal-time boundary

    ReplicaEngine::Callbacks cb;
    if (obs != nullptr)
        cb.onAdmitRequest = [&](std::size_t, double now, double, bool) {
            obs_admits.push_back(now);
        };
    cb.onFirstToken = [&](std::size_t, double ttft, double now) {
        ttfts.push_back(ttft);
        if (obs != nullptr)
            obs_ttfts.emplace_back(now, ttft);
    };
    cb.onComplete = [&](std::size_t, double) { ++result.completed; };
    if (obs != nullptr)
        cb.onIteration = [&](const IterationInfo &info) {
            std::string label;
            int active = 0;
            if (info.prefill) {
                label = "prefill b=" + std::to_string(info.prefillBatch);
                active = info.prefillBatch;
            } else if (info.chunk && info.decodeBatch > 0) {
                label = "chunk+decode b=" +
                    std::to_string(info.decodeBatch + 1);
                active = info.decodeBatch + 1;
            } else if (info.chunk) {
                label = "chunk b=1";
                active = 1;
            } else {
                label = "decode b=" + std::to_string(info.decodeBatch);
                active = info.decodeBatch;
            }
            obs_iters.push_back({info.beginNs, info.endNs, active,
                                 info.tokens, std::move(label)});
        };

    ReplicaEngine replica(engine, rc, std::move(cb));
    // Arrivals are chained: each schedules the next before it admits,
    // so one is pending at a time and ties (arrivals only) still pop
    // in arrival order.
    core::EventKind arrive = 0;
    arrive = engine.addHandler([&](const core::Event &ev) {
        const std::size_t id = ev.payload;
        if (id + 1 < arrivals.size())
            engine.at(arrivals[id + 1], 0, arrive, 0, id + 1);
        replica.enqueue(id, ev.timeNs);
        replica.maybeStart(ev.timeNs);
    });
    if (!arrivals.empty())
        engine.at(arrivals.front(), 0, arrive, 0, 0);
    engine.run();

    if (obs != nullptr)
        emitContinuousObs(*obs, arrivals, obs_admits, obs_iters,
                          obs_ttfts, result.completed,
                          replica.tokensEmitted(), horizon_ns);

    result.unfinished = replica.pendingCount() + replica.activeCount() +
        (replica.chunkHeadInFlight() ? 1 : 0);
    if (!ttfts.empty()) {
        std::vector<double> ps = stats::percentiles(ttfts, {50.0, 99.0});
        result.p50TtftNs = ps[0];
        result.p99TtftNs = ps[1];
    }
    if (replica.iterLatency().count() > 0) {
        result.meanTpotNs = replica.iterLatency().mean();
        result.meanActive = replica.activeSizes().mean();
    }
    double elapsed_s = std::min(engine.nowNs(), horizon_ns) / 1e9;
    if (elapsed_s > 0.0)
        result.tokensPerSec =
            static_cast<double>(replica.tokensEmitted()) / elapsed_s;
    return result;
}

} // namespace skipsim::serving

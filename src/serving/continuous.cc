#include "serving/continuous.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "obs/collector.hh"
#include "serving/arrival.hh"
#include "serving/probe_replay.hh"
#include "serving/replica_engine.hh"
#include "stats/summary.hh"
#include "workload/builder.hh"

namespace skipsim::serving
{

namespace
{

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
    : _model(model), _promptLen(prompt_len), _simulator(platform)
{
    if (prompt_len <= 0)
        fatal("IterationCostModel: prompt length must be positive");

    for (int batch : {1, 2, 4, 8, 16, 32, 64}) {
        workload::BuildOptions opts;
        opts.batch = batch;
        opts.seqLen = prompt_len;
        _prefill.add(batch, _simulator.wallNs(model, opts));
        _decode.add(batch, _simulator.wallNs(model, opts, prompt_len));
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
    workload::BuildOptions opts;
    opts.batch = 1;
    opts.seqLen = chunk_tokens;
    return _simulator.wallNs(_model, opts);
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
    if (config.chunkTokens < 0)
        fatal("simulateContinuous: chunkTokens must be non-negative");

    requireArrivalBudget(config.arrivalRatePerSec, config.horizonSec,
                         "simulateContinuous", "arrivalRatePerSec",
                         "horizonSec");

    // Poisson arrivals over the horizon.
    return walkContinuous(cost, config,
                          poissonTimesNs(config.arrivalRatePerSec,
                                         config.horizonSec * 1e9,
                                         config.seed),
                          obs);
}

namespace
{

/** The host of the single replica: records the run for its result. */
struct Recorder final : ReplicaHost
{
    obs::Collector *obs = nullptr;
    std::size_t completed = 0;
    std::vector<double> ttfts;
    // Recorded only for obs: one admission instant per request, the
    // iterations, and (first-token instant, TTFT) pairs.
    std::vector<double> admits;
    std::vector<IterationRecord> iters;
    std::vector<std::pair<double, double>> obsTtfts;

    void
    onAdmit(std::size_t, std::size_t, double nowNs, double, bool) override
    {
        if (obs != nullptr)
            admits.push_back(nowNs);
    }

    void
    onIteration(std::size_t, const IterationInfo &info) override
    {
        if (obs == nullptr)
            return;
        std::string label;
        int active = 0;
        if (info.prefill) {
            label = "prefill b=" + std::to_string(info.prefillBatch);
            active = info.prefillBatch;
        } else if (info.chunk && info.decodeBatch > 0) {
            label =
                "chunk+decode b=" + std::to_string(info.decodeBatch + 1);
            active = info.decodeBatch + 1;
        } else if (info.chunk) {
            label = "chunk b=1";
            active = 1;
        } else {
            label = "decode b=" + std::to_string(info.decodeBatch);
            active = info.decodeBatch;
        }
        iters.push_back({info.beginNs, info.endNs, active, info.tokens,
                         std::move(label)});
    }

    void
    onFirstToken(std::size_t, std::size_t, double ttftNs,
                 double nowNs) override
    {
        ttfts.push_back(ttftNs);
        if (obs != nullptr)
            obsTtfts.emplace_back(nowNs, ttftNs);
    }

    void
    onComplete(std::size_t, std::size_t, double) override
    {
        ++completed;
    }
};

} // namespace

ContinuousResult
recordContinuous(const IterationCostModel &cost,
                 const ContinuousConfig &config,
                 const std::vector<double> &arrivals, obs::Collector *obs,
                 const std::function<double(ReplicaEngine &)> &deliver)
{
    double horizon_ns = config.horizonSec * 1e9;
    Recorder rec;
    rec.obs = obs;
    ReplicaEngine replica({.cost = &cost,
                           .maxActive = config.maxActive,
                           .genTokens = config.genTokens,
                           .chunkTokens = config.chunkTokens,
                           .horizonNs = horizon_ns},
                          rec);
    const double last_ns = deliver(replica);

    if (obs != nullptr) {
        obs::Registry &metrics = obs->metrics();
        metrics.counter("continuous.requests_offered")
            .add(static_cast<double>(arrivals.size()));
        metrics.counter("continuous.requests_completed")
            .add(static_cast<double>(rec.completed));
        metrics.counter("continuous.tokens")
            .add(static_cast<double>(replica.tokensEmitted()));
        metrics.counter("continuous.iterations")
            .add(static_cast<double>(rec.iters.size()));
        obs::Histogram &ttft_hist = metrics.histogram(
            "continuous.ttft_ms", obs::defaultLatencyBucketsMs());
        for (const auto &ttft : rec.obsTtfts)
            ttft_hist.observe(ttft.second / 1e6);
        replayProbes(*obs,
                     {"continuous.queue_depth", "continuous.batch_active",
                      "continuous.tokens_per_sec", "continuous.ttft_ms"},
                     arrivals, rec.admits, rec.iters, rec.obsTtfts,
                     horizon_ns);
    }

    ContinuousResult result;
    result.completed = rec.completed;
    result.unfinished = replica.pendingCount() + replica.activeCount() +
        (replica.chunkHeadInFlight() ? 1 : 0);
    if (!rec.ttfts.empty()) {
        std::vector<double> ps =
            stats::percentiles(rec.ttfts, {50.0, 99.0});
        result.p50TtftNs = ps[0];
        result.p99TtftNs = ps[1];
    }
    if (replica.iterLatency().count() > 0)
        result.meanTpotNs = replica.iterLatency().mean();
    // Chunked single-token runs time chunk iterations but never decode.
    if (replica.activeSizes().count() > 0)
        result.meanActive = replica.activeSizes().mean();
    double elapsed_s = std::min(last_ns, horizon_ns) / 1e9;
    if (elapsed_s > 0.0)
        result.tokensPerSec =
            static_cast<double>(replica.tokensEmitted()) / elapsed_s;
    return result;
}

ContinuousResult
walkContinuous(const IterationCostModel &cost,
               const ContinuousConfig &config,
               const std::vector<double> &arrivals, obs::Collector *obs)
{
    return recordContinuous(
        cost, config, arrivals, obs, [&](ReplicaEngine &replica) {
            // Walk the arrivals against the iteration end; an arrival
            // that ties one goes first, so it can join the iteration
            // that end starts.
            double now = 0.0; // the last instant handled
            for (std::size_t next = 0;
                 next < arrivals.size() || replica.busy();) {
                if (next < arrivals.size() &&
                    (!replica.busy() ||
                     arrivals[next] <= replica.iterEndNs())) {
                    now = arrivals[next];
                    replica.enqueue(next++, now);
                    replica.maybeStart(now);
                } else {
                    replica.finishIteration(now = replica.iterEndNs());
                }
            }
            return now;
        });
}

} // namespace skipsim::serving

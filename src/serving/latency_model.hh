/**
 * @file
 * Batch-latency model for serving simulation: wraps a batch sweep's
 * measured prefill latencies into an interpolated latency(batch)
 * function, so request-level simulations can evaluate batching
 * policies without re-simulating every forward pass.
 */

#ifndef SKIPSIM_SERVING_LATENCY_MODEL_HH
#define SKIPSIM_SERVING_LATENCY_MODEL_HH

#include "analysis/sweep.hh"
#include "stats/series.hh"

namespace skipsim::serving
{

/**
 * latency(batch) derived from a SweepResult by stats::Series's
 * batch-latency rule: piecewise-linear between measured batch sizes;
 * beyond the largest it extrapolates linearly using the last segment's
 * per-request slope, clamped at >= 0 (the GPU-bound region scales
 * near-linearly in batch).
 */
class LatencyModel
{
  public:
    /**
     * Build from a sweep.
     * @throws skipsim::FatalError when the sweep has fewer than 2
     *         points.
     */
    explicit LatencyModel(const analysis::SweepResult &sweep);

    /** Prefill latency of a batch of @p batch requests, ns. */
    double latencyNs(int batch) const;

    /** Largest measured batch size. */
    int maxMeasuredBatch() const { return _maxBatch; }

    /** Workload/platform identity carried from the sweep. */
    const std::string &modelName() const { return _modelName; }
    const std::string &platformName() const { return _platformName; }

  private:
    stats::Series _series;
    int _maxBatch = 1;
    std::string _modelName;
    std::string _platformName;
};

} // namespace skipsim::serving

#endif // SKIPSIM_SERVING_LATENCY_MODEL_HH

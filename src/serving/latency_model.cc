#include "serving/latency_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace skipsim::serving
{

LatencyModel::LatencyModel(const analysis::SweepResult &sweep)
    : _series(sweep.latencySeries()),
      _modelName(sweep.modelName),
      _platformName(sweep.platformName)
{
    if (_series.size() < 2)
        fatal("LatencyModel: sweep needs at least 2 batch points");

    _maxBatch = static_cast<int>(std::llround(_series.points().back().x));
}

double
LatencyModel::latencyNs(int batch) const
{
    if (batch <= 0)
        fatal("LatencyModel::latencyNs: batch must be positive");
    return _series.extrapolate(static_cast<double>(batch));
}

} // namespace skipsim::serving

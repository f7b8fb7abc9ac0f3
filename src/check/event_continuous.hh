/**
 * @file
 * Differential oracle for serving::simulateContinuous. The
 * continuous-batching server walks its arrival vector against the one
 * replica's iteration end; eventDrivenContinuous() is the core::Engine
 * loop it replaced: chained arrival events at priority 0 and
 * iteration-end events at priority 1, so an arrival that ties an
 * iteration end is handled first. diffContinuous() runs both on one
 * configuration and requires every ContinuousResult field to agree bit
 * for bit, and the two obs collectors to export the same bytes (JSON
 * and iteration spans).
 */

#ifndef SKIPSIM_CHECK_EVENT_CONTINUOUS_HH
#define SKIPSIM_CHECK_EVENT_CONTINUOUS_HH

#include <functional>
#include <string>
#include <vector>

#include "serving/continuous.hh"

namespace skipsim::check
{

/**
 * The event-driven continuous-batching server, recording the same
 * probes as simulateContinuous when @p obs is non-null. @p config must
 * be one simulateContinuous accepts; this copy does not validate it.
 */
serving::ContinuousResult
eventDrivenContinuous(const serving::IterationCostModel &cost,
                      const serving::ContinuousConfig &config,
                      obs::Collector *obs);

/** eventDrivenContinuous on a given arrival vector, as
 *  serving::walkContinuous takes one. */
serving::ContinuousResult
eventDrivenContinuous(const serving::IterationCostModel &cost,
                      const serving::ContinuousConfig &config,
                      const std::vector<double> &arrivals,
                      obs::Collector *obs);

/**
 * Run simulateContinuous and eventDrivenContinuous on @p config, each
 * with an obs collector sampling every 5 simulated ms.
 * @param mutateWalk when set, corrupts the walk's result before the
 *        comparison (a test fixture standing in for a broken walk).
 * @return empty when every result field is bit-identical and both
 *         collectors export the same JSON and span bytes, else the
 *         first difference found.
 * @throws skipsim::FatalError when simulateContinuous rejects
 *         @p config.
 */
std::string diffContinuous(
    const serving::IterationCostModel &cost,
    const serving::ContinuousConfig &config,
    const std::function<void(serving::ContinuousResult &)> &mutateWalk =
        {});

/**
 * diffContinuous on a given arrival vector: serving::walkContinuous
 * against the event-driven loop on @p arrivals. @p config is not
 * validated.
 */
std::string diffContinuous(const serving::IterationCostModel &cost,
                           const serving::ContinuousConfig &config,
                           const std::vector<double> &arrivals);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_EVENT_CONTINUOUS_HH

/**
 * @file
 * Differential oracle for serving::simulateServing. The dynamic
 * batcher walks the arrival vector and computes each dispatch instant
 * in closed form; eventDrivenServing() is the core::Engine loop it
 * replaced: arrivals, server-free events and one wait-deadline wake
 * per request, each of which tries to dispatch. diffServing() runs
 * both on one configuration and requires every ServingResult field to
 * agree bit for bit.
 */

#ifndef SKIPSIM_CHECK_EVENT_BATCHER_HH
#define SKIPSIM_CHECK_EVENT_BATCHER_HH

#include <string>

#include "serving/latency_model.hh"
#include "serving/server_sim.hh"

namespace skipsim::check
{

/**
 * The event-driven dynamic batcher. @p config must be one
 * simulateServing accepts; this copy does not validate it and records
 * no probes.
 */
serving::ServingResult
eventDrivenServing(const serving::LatencyModel &latency,
                   const serving::ServingConfig &config);

/**
 * Run simulateServing and eventDrivenServing on @p config.
 * @return empty when every result field is bit-identical, else the
 *         first differing field with both values.
 * @throws skipsim::FatalError when simulateServing rejects @p config.
 */
std::string diffServing(const serving::LatencyModel &latency,
                        const serving::ServingConfig &config);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_EVENT_BATCHER_HH

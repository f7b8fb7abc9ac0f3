/**
 * @file
 * Run counters of one cluster simulation, filled through the
 * cluster::simulateCluster overloads.
 *
 * This header outlived the sharded engine it was named for only
 * because the benchmark (perfbench/workloads.cpp) includes it and
 * reads `events` and `windows`. Every cluster run executes on one
 * core::Engine, so `windows` always reads 0. Once the benchmark stops
 * including this header, fold the counters into core::Engine.
 */

#ifndef SKIPSIM_CORE_SHARDED_ENGINE_HH
#define SKIPSIM_CORE_SHARDED_ENGINE_HH

#include <cstdint>

namespace skipsim::core
{

/** Counters of one run (never part of any report JSON). */
struct ShardStats
{
    /** Events the engine processed (core::Engine::processed()). */
    std::uint64_t events = 0;
    /** Synchronization windows; always 0 on the single engine. */
    std::uint64_t windows = 0;
    /** Most events pending at once (core::Engine::peakPending()). */
    std::uint64_t peakPending = 0;
    /** Most arrival events pending at once: 1 while arrivals are
     *  chained, 0 for a run without arrivals. */
    std::uint64_t peakPendingArrivals = 0;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_SHARDED_ENGINE_HH

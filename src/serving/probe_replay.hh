/**
 * @file
 * The boundary-probe replay shared by the two serial servers
 * (simulateServing and simulateContinuous). Each records its run —
 * arrivals, admission instants, iterations, first tokens — and replays
 * the record over the collector's sampling boundaries after the
 * simulation, so probes cannot perturb it. A dynamic-batching batch is
 * one iteration whose tokens are its request count, and its requests'
 * latencies are their (completion, TTFT) pairs.
 */

#ifndef SKIPSIM_SERVING_PROBE_REPLAY_HH
#define SKIPSIM_SERVING_PROBE_REPLAY_HH

#include <string>
#include <utility>
#include <vector>

namespace skipsim::obs
{
class Collector;
}

namespace skipsim::serving
{

/** One iteration of a serial server, for post-hoc probe replay. */
struct IterationRecord
{
    double beginNs = 0.0;
    double endNs = 0.0;
    /** Sequences worked this iteration. */
    int active = 0;
    /** Tokens emitted when the iteration completes. */
    int tokens = 0;
    /** Duration span name. */
    std::string label;
};

/** The four boundary series a server samples. */
struct ProbeSeries
{
    const char *queueDepth; ///< arrived minus admitted requests
    const char *active;     ///< active count of the running iteration
    const char *rate;       ///< window tokens per second
    const char *ttftMs;     ///< window mean TTFT, 0 when empty
};

/**
 * Emit one duration span per iteration, then sample @p series at
 * every boundary through the first one at or past @p horizonNs. Every
 * input is time-sorted (the server is serial): @p admits holds one
 * admission instant per request, @p ttfts one (first-token instant,
 * TTFT ns) pair per request.
 */
void replayProbes(obs::Collector &obs, const ProbeSeries &series,
                  const std::vector<double> &arrivals,
                  const std::vector<double> &admits,
                  const std::vector<IterationRecord> &iters,
                  const std::vector<std::pair<double, double>> &ttfts,
                  double horizonNs);

} // namespace skipsim::serving

#endif // SKIPSIM_SERVING_PROBE_REPLAY_HH

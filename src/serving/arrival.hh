/**
 * @file
 * Pluggable arrival processes: the traffic side of a serving run,
 * decoupled from the engines that consume it. The original simulators
 * hard-coded open-loop Poisson arrivals; production traffic is not
 * Poisson — diurnal load swings, bursts, multi-turn chat sessions and
 * multi-tenant tiers all shape the tail far more than the mean rate
 * does. An ArrivalProcess pre-generates the full request timeline for
 * a horizon as a pure function of one base seed, so any front end
 * (simulateCluster, scenario builders, benches) can swap traffic
 * models without touching engine code and results stay byte-identical
 * at any worker count.
 *
 * Determinism contract: generate(horizon, seed) draws only from
 * core::RngStreams(seed) — Poisson and MMPP use the documented arrival
 * stream 0 (PoissonProcess reproduces the legacy inline loop draw for
 * draw, keeping pre-existing goldens byte-identical); multi-stream
 * processes use named streams so they cannot collide with the replica
 * jitter streams (numeric ids i + 1).
 *
 * Serde: each process round-trips through a tagged JSON object
 * ({"type": "poisson" | "mmpp" | "sessions" | "tiered", ...});
 * arrivalProcessFromJson() dispatches on the tag and rejects unknown
 * types with the list of known ones.
 */

#ifndef SKIPSIM_SERVING_ARRIVAL_HH
#define SKIPSIM_SERVING_ARRIVAL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "json/value.hh"

namespace skipsim::serving
{

/** One generated request arrival. */
struct Arrival
{
    /** Arrival instant, ns from the start of the horizon. */
    double timeNs = 0.0;

    /** Session id (routing key for session-affinity policies). */
    int session = 0;

    /** Tenant/tier index (0 when the process is single-tenant). */
    int tenant = 0;

    /**
     * Fraction of the prompt already resident in a prefix cache
     * (multi-turn follow-ups); 0 means a cold prompt. Engines model
     * the hit as saved prefill compute — the KV footprint is still
     * reserved in full (conservative admission).
     */
    double cachedFrac = 0.0;
};

/** A traffic model: horizon + seed in, request timeline out. */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Serde tag ("poisson", "mmpp", "sessions", "tiered"). */
    virtual const char *kind() const = 0;

    /**
     * All arrivals in [0, horizonNs), sorted by time, drawn only from
     * RngStreams(@p seed) — a pure function of its arguments.
     */
    virtual std::vector<Arrival> generate(double horizonNs,
                                          std::uint64_t seed) const = 0;

    /** Nominal long-run mean rate, requests/s (reports, weights). */
    virtual double meanRatePerSec() const = 0;

    /** Tenant-tier cardinality (1 for single-tenant processes). */
    virtual int tenantCount() const { return 1; }

    /** @throws skipsim::FatalError on inconsistent parameters. */
    virtual void validate() const = 0;

    /** Tagged JSON document (round trips via arrivalProcessFromJson). */
    virtual json::Value toJson() const = 0;
};

/**
 * Open-loop Poisson arrivals at a constant rate — the legacy traffic
 * model. Draw-for-draw identical to the inline loop it replaced
 * (stream 0: exponential gap, then session id), so cluster goldens
 * recorded before this class existed still match byte-for-byte.
 */
class PoissonProcess final : public ArrivalProcess
{
  public:
    PoissonProcess(double ratePerSec, int sessions)
        : _ratePerSec(ratePerSec), _sessions(sessions)
    {
    }

    const char *kind() const override { return "poisson"; }
    std::vector<Arrival> generate(double horizonNs,
                                  std::uint64_t seed) const override;
    double meanRatePerSec() const override { return _ratePerSec; }
    void validate() const override;
    json::Value toJson() const override;

  private:
    double _ratePerSec = 0.0;
    int _sessions = 1;
};

/**
 * Markov-modulated Poisson process: the arrival rate follows a cyclic
 * chain of states (e.g. trough -> shoulder -> peak), dwelling in state
 * i for an exponential time with the given mean before moving on.
 * Within a state, arrivals are Poisson at the state's rate. Captures
 * diurnal swings and bursty load that a constant-rate process cannot:
 * at equal mean rate, burstier states strictly worsen tail TTFT (a
 * metamorphic law in src/check).
 */
class MmppProcess final : public ArrivalProcess
{
  public:
    struct State
    {
        /** Arrival rate while in this state, requests/s (>= 0). */
        double ratePerSec = 0.0;

        /** Mean dwell time in this state, seconds (> 0). */
        double dwellSec = 1.0;
    };

    MmppProcess(std::vector<State> states, int sessions)
        : _states(std::move(states)), _sessions(sessions)
    {
    }

    const char *kind() const override { return "mmpp"; }
    std::vector<Arrival> generate(double horizonNs,
                                  std::uint64_t seed) const override;
    double meanRatePerSec() const override;
    void validate() const override;
    json::Value toJson() const override;

    const std::vector<State> &states() const { return _states; }

  private:
    std::vector<State> _states;
    int _sessions = 1;
};

/**
 * Multi-turn chat sessions: sessions open as a Poisson process; each
 * session issues a geometric number of turns (mean meanTurns) with
 * exponential think time between consecutive turns. Every turn after
 * the first carries cachedFrac — its prompt prefix (shared
 * conversation history) is a prefix-cache hit, so the engine skips
 * that share of the prefill compute. All turns of one session share a
 * session id, so session-affinity routing keeps a conversation (and
 * its cached prefix) on one replica.
 */
class SessionProcess final : public ArrivalProcess
{
  public:
    struct Params
    {
        /** Session-open rate, sessions/s. */
        double sessionRatePerSec = 10.0;

        /** Mean turns per session (>= 1; geometric tail). */
        double meanTurns = 4.0;

        /** Mean think time between turns, seconds. */
        double thinkSec = 2.0;

        /** Prefix-cache share of follow-up prompts, [0, 0.95]. */
        double cachedFrac = 0.75;

        /** Session-id pool size (affinity routing key space). */
        int sessions = 64;
    };

    explicit SessionProcess(const Params &params) : _p(params) {}

    const char *kind() const override { return "sessions"; }
    std::vector<Arrival> generate(double horizonNs,
                                  std::uint64_t seed) const override;
    double meanRatePerSec() const override
    {
        return _p.sessionRatePerSec * _p.meanTurns;
    }
    void validate() const override;
    json::Value toJson() const override;

    const Params &params() const { return _p; }

  private:
    Params _p;
};

/**
 * Multi-tenant tiers: the superposition of one independent Poisson
 * stream per tenant, each tagged with its tenant index. Tenant i draws
 * from the named stream "arrival.tenant.<i>", so adding or removing a
 * tier never perturbs another tier's stream. Pair with
 * cluster::ClusterSpec::tenants to give each tier its own SLO.
 */
class TieredProcess final : public ArrivalProcess
{
  public:
    struct Tier
    {
        std::string name = "tenant";

        /** This tier's arrival rate, requests/s. */
        double ratePerSec = 10.0;
    };

    TieredProcess(std::vector<Tier> tiers, int sessions)
        : _tiers(std::move(tiers)), _sessions(sessions)
    {
    }

    const char *kind() const override { return "tiered"; }
    std::vector<Arrival> generate(double horizonNs,
                                  std::uint64_t seed) const override;
    double meanRatePerSec() const override;
    int tenantCount() const override
    {
        return static_cast<int>(_tiers.size());
    }
    void validate() const override;
    json::Value toJson() const override;

    const std::vector<Tier> &tiers() const { return _tiers; }

  private:
    std::vector<Tier> _tiers;
    int _sessions = 1;
};

/**
 * Poisson arrival instants in [0, horizonNs), ns, at @p ratePerSec,
 * drawn from Rng(@p seed) with no session draws: the arrival stream of
 * the single-server simulators (simulateServing, simulateContinuous).
 */
std::vector<double> poissonTimesNs(double ratePerSec, double horizonNs,
                                   std::uint64_t seed);

/**
 * Work budget: the most arrivals one run may expect, 2^32. Arrivals
 * are generated up front and every one becomes at least one event, so
 * a finite but absurd rate or horizon (1e15 req/s, 1e12 s) would
 * allocate and simulate until the host gives out. The budget sits
 * three orders of magnitude above the largest shipped run (the
 * 40-second datacenter bench, about 1.23M arrivals).
 */
inline constexpr double kMaxExpectedArrivals = 4294967296.0;

/**
 * Enforce kMaxExpectedArrivals on a run expecting @p ratePerSec ×
 * @p horizonSec arrivals.
 * @throws skipsim::FatalError, prefixed by @p context, naming
 *         @p rateField and @p horizonField and the expected count.
 */
void requireArrivalBudget(double ratePerSec, double horizonSec,
                          const std::string &context,
                          const std::string &rateField,
                          const std::string &horizonField);

/**
 * Build a process from its tagged JSON form.
 * @throws skipsim::FatalError for unknown/missing "type" (the message
 *         lists the known types) or invalid parameters.
 */
std::unique_ptr<ArrivalProcess>
arrivalProcessFromJson(const json::Value &doc);

} // namespace skipsim::serving

#endif // SKIPSIM_SERVING_ARRIVAL_HH

#include "serving/arrival.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "core/rng_stream.hh"

namespace skipsim::serving
{

namespace
{

/**
 * Exponential inter-event gap: uniform draw, clamp away from zero,
 * -log scaling. Every arrival stream in the project draws through it.
 */
double
expGapNs(Rng &rng, double meanNs)
{
    double u = rng.uniform();
    if (u <= 0.0)
        u = 1e-12;
    return -std::log(u) * meanNs;
}

/** Geometric number of extra events with mean @p mean (0 when <= 0). */
int
geometric(Rng &rng, double mean)
{
    if (mean <= 0.0)
        return 0;
    double p = 1.0 / (mean + 1.0);
    double u = rng.uniform();
    if (u <= 0.0)
        u = 1e-12;
    // Inverse-CDF geometric (number of failures before a success),
    // capped so a pathological draw cannot explode a session.
    double k = std::floor(std::log(u) / std::log(1.0 - p));
    return static_cast<int>(std::min(k, 1024.0));
}

void
requireSessions(int sessions, const char *kind)
{
    if (sessions <= 0)
        fatal(strprintf("%s arrivals: sessions must be positive", kind));
}

} // namespace

void
requireArrivalBudget(double ratePerSec, double horizonSec,
                     const std::string &context,
                     const std::string &rateField,
                     const std::string &horizonField)
{
    const double expected = ratePerSec * horizonSec;
    if (expected > kMaxExpectedArrivals)
        fatal(strprintf("%s: %s * %s = %g expected arrivals exceed the "
                        "work budget of 2^32 (%.0f); lower %s or %s",
                        context.c_str(), rateField.c_str(),
                        horizonField.c_str(), expected,
                        kMaxExpectedArrivals, rateField.c_str(),
                        horizonField.c_str()));
}

// ------------------------------------------------------------- poisson

std::vector<double>
poissonTimesNs(double ratePerSec, double horizonNs, std::uint64_t seed)
{
    Rng rng(seed);
    double mean_gap_ns = 1e9 / ratePerSec;
    std::vector<double> out;
    double t = 0.0;
    while (true) {
        t += expGapNs(rng, mean_gap_ns);
        if (t >= horizonNs)
            break;
        out.push_back(t);
    }
    return out;
}

void
PoissonProcess::validate() const
{
    if (_ratePerSec <= 0.0)
        fatal("poisson arrivals: rate must be positive");
    requireSessions(_sessions, "poisson");
}

std::vector<Arrival>
PoissonProcess::generate(double horizonNs, std::uint64_t seed) const
{
    // Stream 0 is the documented arrival stream; the draw order (gap,
    // then session) matches the pre-refactor inline loop exactly.
    Rng rng = core::RngStreams(seed).stream(0);
    double mean_gap_ns = 1e9 / _ratePerSec;
    std::vector<Arrival> out;
    double t = 0.0;
    while (true) {
        t += expGapNs(rng, mean_gap_ns);
        if (t >= horizonNs)
            break;
        Arrival a;
        a.timeNs = t;
        a.session = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(_sessions)));
        out.push_back(a);
    }
    return out;
}

json::Value
PoissonProcess::toJson() const
{
    json::Object doc;
    doc.set("type", kind());
    doc.set("rate", _ratePerSec);
    doc.set("sessions", _sessions);
    return json::Value(std::move(doc));
}

// ---------------------------------------------------------------- mmpp

void
MmppProcess::validate() const
{
    if (_states.empty())
        fatal("mmpp arrivals: need at least one state");
    bool any_rate = false;
    for (std::size_t i = 0; i < _states.size(); ++i) {
        if (_states[i].ratePerSec < 0.0)
            fatal(strprintf("mmpp arrivals: state %zu rate must be "
                            "non-negative",
                            i));
        if (_states[i].dwellSec <= 0.0)
            fatal(strprintf("mmpp arrivals: state %zu dwell must be "
                            "positive",
                            i));
        any_rate = any_rate || _states[i].ratePerSec > 0.0;
    }
    if (!any_rate)
        fatal("mmpp arrivals: at least one state needs a positive rate");
    requireSessions(_sessions, "mmpp");
}

double
MmppProcess::meanRatePerSec() const
{
    double weighted = 0.0;
    double dwell = 0.0;
    for (const State &state : _states) {
        weighted += state.ratePerSec * state.dwellSec;
        dwell += state.dwellSec;
    }
    return dwell > 0.0 ? weighted / dwell : 0.0;
}

std::vector<Arrival>
MmppProcess::generate(double horizonNs, std::uint64_t seed) const
{
    Rng rng = core::RngStreams(seed).stream(0);
    std::vector<Arrival> out;
    double t = 0.0;
    std::size_t state = 0;
    while (t < horizonNs) {
        const State &st = _states[state % _states.size()];
        double seg_end =
            std::min(t + expGapNs(rng, st.dwellSec * 1e9), horizonNs);
        if (st.ratePerSec > 0.0) {
            // Poisson within the segment; the gap that overshoots the
            // segment boundary is discarded (memorylessness makes the
            // truncation exact).
            double mean_gap_ns = 1e9 / st.ratePerSec;
            double a = t;
            while (true) {
                a += expGapNs(rng, mean_gap_ns);
                if (a >= seg_end)
                    break;
                Arrival arrival;
                arrival.timeNs = a;
                arrival.session = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(_sessions)));
                out.push_back(arrival);
            }
        }
        t = seg_end;
        ++state;
    }
    return out;
}

json::Value
MmppProcess::toJson() const
{
    json::Object doc;
    doc.set("type", kind());
    json::Value::Array states;
    for (const State &state : _states) {
        json::Object entry;
        entry.set("rate", state.ratePerSec);
        entry.set("dwell-sec", state.dwellSec);
        states.push_back(json::Value(std::move(entry)));
    }
    doc.set("states", json::Value(std::move(states)));
    doc.set("sessions", _sessions);
    return json::Value(std::move(doc));
}

// ------------------------------------------------------------ sessions

void
SessionProcess::validate() const
{
    if (_p.sessionRatePerSec <= 0.0)
        fatal("session arrivals: session-rate must be positive");
    if (_p.meanTurns < 1.0)
        fatal("session arrivals: mean-turns must be >= 1");
    if (_p.thinkSec < 0.0)
        fatal("session arrivals: think-sec must be non-negative");
    if (_p.cachedFrac < 0.0 || _p.cachedFrac > 0.95)
        fatal("session arrivals: cached-frac must be within [0, 0.95]");
    requireSessions(_p.sessions, "session");
}

std::vector<Arrival>
SessionProcess::generate(double horizonNs, std::uint64_t seed) const
{
    Rng rng = core::RngStreams(seed).stream(0);
    std::vector<Arrival> out;
    double t = 0.0;
    int session_index = 0;
    double open_gap_ns = 1e9 / _p.sessionRatePerSec;
    while (true) {
        t += expGapNs(rng, open_gap_ns);
        if (t >= horizonNs)
            break;
        int turns = 1 + geometric(rng, _p.meanTurns - 1.0);
        int sid = session_index++ % _p.sessions;
        double at = t;
        for (int k = 0; k < turns; ++k) {
            if (k > 0)
                at += expGapNs(rng, _p.thinkSec * 1e9);
            if (at >= horizonNs)
                break;
            Arrival arrival;
            arrival.timeNs = at;
            arrival.session = sid;
            arrival.cachedFrac = k == 0 ? 0.0 : _p.cachedFrac;
            out.push_back(arrival);
        }
    }
    // Turns of concurrent sessions interleave; stable sort keeps the
    // generation order as the (deterministic) tie-break.
    std::stable_sort(out.begin(), out.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.timeNs < b.timeNs;
                     });
    return out;
}

json::Value
SessionProcess::toJson() const
{
    json::Object doc;
    doc.set("type", kind());
    doc.set("session-rate", _p.sessionRatePerSec);
    doc.set("mean-turns", _p.meanTurns);
    doc.set("think-sec", _p.thinkSec);
    doc.set("cached-frac", _p.cachedFrac);
    doc.set("sessions", _p.sessions);
    return json::Value(std::move(doc));
}

// -------------------------------------------------------------- tiered

void
TieredProcess::validate() const
{
    if (_tiers.empty())
        fatal("tiered arrivals: need at least one tier");
    for (std::size_t i = 0; i < _tiers.size(); ++i) {
        if (_tiers[i].ratePerSec <= 0.0)
            fatal(strprintf("tiered arrivals: tier %zu rate must be "
                            "positive",
                            i));
    }
    requireSessions(_sessions, "tiered");
}

double
TieredProcess::meanRatePerSec() const
{
    double total = 0.0;
    for (const Tier &tier : _tiers)
        total += tier.ratePerSec;
    return total;
}

std::vector<Arrival>
TieredProcess::generate(double horizonNs, std::uint64_t seed) const
{
    core::RngStreams streams(seed);
    std::vector<Arrival> out;
    for (std::size_t i = 0; i < _tiers.size(); ++i) {
        // A named stream per tier: tier i's timeline is independent of
        // every other tier's (and of the replica jitter streams).
        Rng rng = streams.stream(
            std::string("arrival.tenant.") + std::to_string(i));
        double mean_gap_ns = 1e9 / _tiers[i].ratePerSec;
        double t = 0.0;
        while (true) {
            t += expGapNs(rng, mean_gap_ns);
            if (t >= horizonNs)
                break;
            Arrival arrival;
            arrival.timeNs = t;
            arrival.session = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(_sessions)));
            arrival.tenant = static_cast<int>(i);
            out.push_back(arrival);
        }
    }
    // Merge the per-tier timelines; ties (essentially impossible with
    // continuous times) break by tier order via the stable sort.
    std::stable_sort(out.begin(), out.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.timeNs < b.timeNs;
                     });
    return out;
}

json::Value
TieredProcess::toJson() const
{
    json::Object doc;
    doc.set("type", kind());
    json::Value::Array tiers;
    for (const Tier &tier : _tiers) {
        json::Object entry;
        entry.set("name", tier.name);
        entry.set("rate", tier.ratePerSec);
        tiers.push_back(json::Value(std::move(entry)));
    }
    doc.set("tiers", json::Value(std::move(tiers)));
    doc.set("sessions", _sessions);
    return json::Value(std::move(doc));
}

// --------------------------------------------------------------- serde

std::unique_ptr<ArrivalProcess>
arrivalProcessFromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    if (!obj.has("type"))
        fatal("arrival process: missing 'type' (known: poisson, mmpp, "
              "sessions, tiered)");
    const std::string &type = obj.at("type").asString();
    int sessions = obj.has("sessions")
        ? json::intValue(obj.at("sessions"), "sessions")
        : 64;

    std::unique_ptr<ArrivalProcess> process;
    if (type == "poisson") {
        double rate =
            obj.has("rate") ? obj.at("rate").asDouble() : 100.0;
        process = std::make_unique<PoissonProcess>(rate, sessions);
    } else if (type == "mmpp") {
        std::vector<MmppProcess::State> states;
        if (obj.has("states")) {
            for (const json::Value &entry : obj.at("states").asArray()) {
                const json::Object &state = entry.asObject();
                MmppProcess::State s;
                if (state.has("rate"))
                    s.ratePerSec = state.at("rate").asDouble();
                if (state.has("dwell-sec"))
                    s.dwellSec = state.at("dwell-sec").asDouble();
                states.push_back(s);
            }
        }
        process =
            std::make_unique<MmppProcess>(std::move(states), sessions);
    } else if (type == "sessions") {
        SessionProcess::Params params;
        params.sessions = sessions;
        if (obj.has("session-rate"))
            params.sessionRatePerSec =
                obj.at("session-rate").asDouble();
        if (obj.has("mean-turns"))
            params.meanTurns = obj.at("mean-turns").asDouble();
        if (obj.has("think-sec"))
            params.thinkSec = obj.at("think-sec").asDouble();
        if (obj.has("cached-frac"))
            params.cachedFrac = obj.at("cached-frac").asDouble();
        process = std::make_unique<SessionProcess>(params);
    } else if (type == "tiered") {
        std::vector<TieredProcess::Tier> tiers;
        if (obj.has("tiers")) {
            for (const json::Value &entry : obj.at("tiers").asArray()) {
                const json::Object &tier = entry.asObject();
                TieredProcess::Tier t;
                if (tier.has("name"))
                    t.name = tier.at("name").asString();
                if (tier.has("rate"))
                    t.ratePerSec = tier.at("rate").asDouble();
                tiers.push_back(std::move(t));
            }
        }
        process =
            std::make_unique<TieredProcess>(std::move(tiers), sessions);
    } else {
        fatal(strprintf("arrival process: unknown type '%s' (known: "
                        "poisson, mmpp, sessions, tiered)",
                        type.c_str()));
    }
    process->validate();
    return process;
}

} // namespace skipsim::serving

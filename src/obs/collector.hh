/**
 * @file
 * Simulated-time probe collector. A Collector owns a metrics Registry
 * plus named time-series sampled at deterministic simulated-time
 * boundaries (multiples of the configured interval), simulated-time
 * duration spans (e.g. one per batching iteration) and instant markers
 * (e.g. fault injections). Because sampling instants are a pure
 * function of the interval — never of host scheduling — the JSON
 * export is byte-identical at any worker count, preserving the exec
 * determinism contract. toTrace() renders everything as Chrome-trace
 * events ("X" spans, "C" counters, "i" instants) so the probes open in
 * Perfetto on the same timeline as a Kineto-style op/kernel trace.
 *
 * A Collector has one writer: the simulation it was handed to (sweeps
 * build one collector per scenario). Nothing inside it locks; a
 * collector written on an exec::Pool worker is read after Pool::run
 * returns.
 */

#ifndef SKIPSIM_OBS_COLLECTOR_HH
#define SKIPSIM_OBS_COLLECTOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/value.hh"
#include "obs/metrics.hh"
#include "trace/trace.hh"

namespace skipsim::obs
{

/** One (simulated time, value) sample. */
struct SeriesPoint
{
    std::int64_t tNs = 0;
    double value = 0.0;
};

/** One named, labeled time-series. */
struct Series
{
    std::string name;
    Labels labels;
    std::vector<SeriesPoint> points;
};

/**
 * Iterates deterministic sampling boundaries: multiples of the
 * interval, in order, independent of how far time jumps per step.
 */
class Ticker
{
  public:
    /** @param intervalNs sampling interval; <= 0 disables the ticker. */
    explicit Ticker(std::int64_t intervalNs)
        : _intervalNs(intervalNs), _nextNs(intervalNs)
    {}

    bool enabled() const { return _intervalNs > 0; }

    /** The next boundary advanceTo() would visit. */
    std::int64_t nextNs() const { return _nextNs; }

    /** Invoke fn(tNs) for every unvisited boundary <= @p nowNs. */
    template <typename Fn>
    void
    advanceTo(double nowNs, Fn &&fn)
    {
        if (_intervalNs <= 0)
            return;
        while (static_cast<double>(_nextNs) <= nowNs) {
            fn(_nextNs);
            _nextNs += _intervalNs;
        }
    }

  private:
    std::int64_t _intervalNs = 0;
    std::int64_t _nextNs = 0;
};

/** Probe collector; see file comment. */
class Collector
{
  public:
    /**
     * @param intervalMs sampling interval in simulated milliseconds.
     * @throws skipsim::FatalError on non-positive intervals.
     */
    explicit Collector(double intervalMs);

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    std::int64_t intervalNs() const { return _intervalNs; }
    double intervalMs() const { return _intervalNs / 1e6; }

    /** A ticker over this collector's sampling interval. */
    Ticker ticker() const { return Ticker(_intervalNs); }

    /** The registry for scalar metrics (counters/gauges/histograms). */
    Registry &metrics() { return _metrics; }
    const Registry &metrics() const { return _metrics; }

    /** Append one sample to the series (@p name, @p labels). */
    void sample(const std::string &name, const Labels &labels,
                std::int64_t tNs, double value);

    /** Record a simulated-time duration span on track @p tid. */
    void span(const std::string &name, int tid, std::int64_t beginNs,
              std::int64_t durNs);

    /** Record a simulated-time instant marker on track @p tid. */
    void instant(const std::string &name, int tid, std::int64_t tNs);

    /** All series, sorted by canonical metric key. */
    std::vector<const Series *> series() const;

    /** Total sample count across every series. */
    std::size_t sampleCount() const;

    /**
     * Deterministic export:
     * {"interval_ms": I, "metrics": {...},
     *  "series": [{"name","labels","points":[[tNs,v],...]}]}
     */
    json::Value toJson() const;

    /** Append spans, counter samples, and instants to @p trace. */
    void appendTo(trace::Trace &trace) const;

    /** Build a standalone trace of the collected probes. */
    trace::Trace toTrace() const;

  private:
    std::int64_t _intervalNs = 0;
    Registry _metrics;
    std::map<std::string, Series> _series; // key-sorted for determinism
    std::vector<trace::TraceEvent> _spans;
    std::vector<trace::InstantEvent> _instants;
};

} // namespace skipsim::obs

#endif // SKIPSIM_OBS_COLLECTOR_HH

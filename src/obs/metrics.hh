/**
 * @file
 * Metrics registry: labeled counters, gauges, and fixed-bucket
 * histograms with deterministic JSON export. A registry has one
 * writer: the simulation that owns its obs::Collector. Instruments are
 * plain values, so a registry created on one thread, written by one
 * exec::Pool worker and read after Pool::run returns needs no lock
 * (the join orders those accesses); concurrent writers would also
 * make a histogram's floating-point sum depend on their interleaving.
 * The naming scheme is Prometheus-flavoured:
 * `subsystem.metric{label="value",...}` with labels sorted, so a
 * metric's identity — and therefore the JSON dump order — is
 * independent of the order instruments were created in.
 */

#ifndef SKIPSIM_OBS_METRICS_HH
#define SKIPSIM_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "json/value.hh"

namespace skipsim::obs
{

/** Label set of one instrument; rendered sorted by label name. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/**
 * Canonical instrument key: `name` for an empty label set, otherwise
 * `name{a="1",b="x"}` with labels sorted by name.
 * @throws skipsim::FatalError on empty metric or label names.
 */
std::string metricKey(const std::string &name, const Labels &labels);

/** Monotonically increasing value. */
class Counter
{
  public:
    void add(double delta = 1.0) { _value += delta; }
    double value() const { return _value; }

  private:
    double _value = 0.0;
};

/** Last-write-wins scalar. */
class Gauge
{
  public:
    void set(double v) { _value = v; }
    double value() const { return _value; }

  private:
    double _value = 0.0;
};

/**
 * Fixed-bucket histogram: cumulative-style upper bounds plus an
 * implicit +inf overflow bucket.
 */
class Histogram
{
  public:
    /**
     * @param bounds strictly ascending bucket upper bounds.
     * @throws skipsim::FatalError when empty or not ascending.
     */
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    const std::vector<double> &bounds() const { return _bounds; }

    /** Per-bucket counts; the extra last entry is the +inf bucket. */
    std::vector<std::uint64_t> bucketCounts() const { return _buckets; }

    std::uint64_t count() const { return _count; }

    double sum() const { return _sum; }

  private:
    std::vector<double> _bounds;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
    double _sum = 0.0;
};

/** Default latency bucket bounds in milliseconds (0.1 .. 10000). */
std::vector<double> defaultLatencyBucketsMs();

/**
 * The instrument registry. counter()/gauge()/histogram() find or
 * create an instrument and return a reference that stays valid for the
 * registry's lifetime (map nodes never move). toJson() dumps every
 * instrument sorted by key, so the export is byte-stable regardless of
 * creation or update order.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name, const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});

    /**
     * Find or create a histogram. @throws skipsim::FatalError when an
     * existing histogram under the same key has different bounds, or
     * when the key names an instrument of another type.
     */
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &bounds,
                         const Labels &labels = {});

    /** Number of registered instruments. */
    std::size_t size() const { return _instruments.size(); }

    /**
     * Deterministic dump:
     * {"counters": {key: value, ...}, "gauges": {...},
     *  "histograms": {key: {"count","sum","buckets":[{"le","count"}]}}}
     */
    json::Value toJson() const;

  private:
    using Instrument = std::variant<Counter, Gauge, Histogram>;

    /**
     * The instrument under @p key, created from @p args when absent.
     * @throws skipsim::FatalError when @p key names an instrument of
     *         another type (@p kind names T in the message).
     */
    template <class T, class... Args>
    T &findOrCreate(const std::string &key, const char *kind,
                    const Args &...args);

    std::map<std::string, Instrument> _instruments;
};

} // namespace skipsim::obs

#endif // SKIPSIM_OBS_METRICS_HH

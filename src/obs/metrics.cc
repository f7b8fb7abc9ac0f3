#include "obs/metrics.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::obs
{

std::string
metricKey(const std::string &name, const Labels &labels)
{
    if (name.empty())
        fatal("obs: metric name must not be empty");
    if (labels.empty())
        return name;
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string key = name + "{";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (sorted[i].first.empty())
            fatal(strprintf("obs: metric '%s' has an empty label name",
                            name.c_str()));
        if (i > 0)
            key += ",";
        key += sorted[i].first + "=\"" + sorted[i].second + "\"";
    }
    key += "}";
    return key;
}

Histogram::Histogram(std::vector<double> bounds)
    : _bounds(std::move(bounds))
{
    if (_bounds.empty())
        fatal("obs::Histogram: need at least one bucket bound");
    for (std::size_t i = 1; i < _bounds.size(); ++i) {
        if (_bounds[i] <= _bounds[i - 1])
            fatal("obs::Histogram: bounds must be strictly ascending");
    }
    _buckets.assign(_bounds.size() + 1, 0);
}

void
Histogram::observe(double v)
{
    std::size_t bucket = std::lower_bound(_bounds.begin(), _bounds.end(),
                                          v) -
        _bounds.begin();
    ++_buckets[bucket];
    ++_count;
    _sum += v;
}

std::vector<double>
defaultLatencyBucketsMs()
{
    return {0.1, 0.25, 0.5, 1.0,   2.5,   5.0,   10.0,   25.0,  50.0,
            100., 250., 500., 1000., 2500., 5000., 10000.};
}

template <class T, class... Args>
T &
Registry::findOrCreate(const std::string &key, const char *kind,
                       const Args &...args)
{
    auto it = _instruments.find(key);
    if (it == _instruments.end())
        it = _instruments.try_emplace(key, std::in_place_type<T>, args...)
                 .first;
    T *instrument = std::get_if<T>(&it->second);
    if (instrument == nullptr)
        fatal(strprintf("obs: '%s' is already a non-%s metric",
                        key.c_str(), kind));
    return *instrument;
}

Counter &
Registry::counter(const std::string &name, const Labels &labels)
{
    return findOrCreate<Counter>(metricKey(name, labels), "counter");
}

Gauge &
Registry::gauge(const std::string &name, const Labels &labels)
{
    return findOrCreate<Gauge>(metricKey(name, labels), "gauge");
}

Histogram &
Registry::histogram(const std::string &name,
                    const std::vector<double> &bounds,
                    const Labels &labels)
{
    const std::string key = metricKey(name, labels);
    Histogram &hist = findOrCreate<Histogram>(key, "histogram", bounds);
    if (hist.bounds() != bounds)
        fatal(strprintf("obs: histogram '%s' re-registered with "
                        "different bounds",
                        key.c_str()));
    return hist;
}

json::Value
Registry::toJson() const
{
    json::Object counters;
    json::Object gauges;
    json::Object histograms;
    // std::map iteration is key-sorted, so the dump is byte-stable.
    for (const auto &[key, slot] : _instruments) {
        if (const Counter *counter = std::get_if<Counter>(&slot)) {
            counters.set(key, counter->value());
        } else if (const Gauge *gauge = std::get_if<Gauge>(&slot)) {
            gauges.set(key, gauge->value());
        } else {
            const Histogram &histogram = std::get<Histogram>(slot);
            json::Object hist;
            hist.set("count",
                     static_cast<unsigned long long>(histogram.count()));
            hist.set("sum", histogram.sum());
            json::Value::Array buckets;
            std::vector<std::uint64_t> counts = histogram.bucketCounts();
            const std::vector<double> &bounds = histogram.bounds();
            for (std::size_t i = 0; i < counts.size(); ++i) {
                json::Object bucket;
                if (i < bounds.size())
                    bucket.set("le", bounds[i]);
                else
                    bucket.set("le", "+inf");
                bucket.set("count",
                           static_cast<unsigned long long>(counts[i]));
                buckets.push_back(json::Value(std::move(bucket)));
            }
            hist.set("buckets", json::Value(std::move(buckets)));
            histograms.set(key, json::Value(std::move(hist)));
        }
    }
    json::Object doc;
    doc.set("counters", json::Value(std::move(counters)));
    doc.set("gauges", json::Value(std::move(gauges)));
    doc.set("histograms", json::Value(std::move(histograms)));
    return json::Value(std::move(doc));
}

} // namespace skipsim::obs

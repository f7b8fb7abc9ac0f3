#include "obs/collector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace skipsim::obs
{

Collector::Collector(double intervalMs)
{
    if (intervalMs <= 0.0)
        fatal("obs::Collector: sampling interval must be positive");
    _intervalNs = static_cast<std::int64_t>(std::llround(intervalMs * 1e6));
    if (_intervalNs <= 0)
        fatal("obs::Collector: sampling interval rounds to zero ns");
}

void
Collector::sample(const std::string &name, const Labels &labels,
                  std::int64_t tNs, double value)
{
    const std::string key = metricKey(name, labels);
    Series &series = _series[key];
    if (series.points.empty()) {
        series.name = name;
        series.labels = labels;
    }
    series.points.push_back({tNs, value});
}

void
Collector::span(const std::string &name, int tid, std::int64_t beginNs,
                std::int64_t durNs)
{
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::Operator;
    ev.name = name;
    ev.tsBeginNs = beginNs;
    ev.durNs = durNs;
    ev.tid = tid;
    _spans.push_back(std::move(ev));
}

void
Collector::instant(const std::string &name, int tid, std::int64_t tNs)
{
    trace::InstantEvent ev;
    ev.name = name;
    ev.tsNs = tNs;
    ev.tid = tid;
    _instants.push_back(std::move(ev));
}

std::vector<const Series *>
Collector::series() const
{
    std::vector<const Series *> out;
    out.reserve(_series.size());
    for (const auto &[key, series] : _series)
        out.push_back(&series);
    return out;
}

std::size_t
Collector::sampleCount() const
{
    std::size_t n = 0;
    for (const auto &[key, series] : _series)
        n += series.points.size();
    return n;
}

json::Value
Collector::toJson() const
{
    json::Object doc;
    doc.set("interval_ms", intervalMs());
    doc.set("metrics", _metrics.toJson());

    json::Value::Array series_docs;
    for (const auto &[key, series] : _series) {
        json::Object entry;
        entry.set("name", series.name);
        json::Object labels;
        Labels sorted = series.labels;
        std::sort(sorted.begin(), sorted.end());
        for (const auto &[label, value] : sorted)
            labels.set(label, value);
        entry.set("labels", json::Value(std::move(labels)));
        json::Value::Array points;
        points.reserve(series.points.size());
        for (const SeriesPoint &point : series.points) {
            json::Value::Array pair;
            pair.emplace_back(static_cast<long long>(point.tNs));
            pair.emplace_back(point.value);
            points.emplace_back(std::move(pair));
        }
        entry.set("points", json::Value(std::move(points)));
        series_docs.push_back(json::Value(std::move(entry)));
    }
    doc.set("series", json::Value(std::move(series_docs)));
    return json::Value(std::move(doc));
}

void
Collector::appendTo(trace::Trace &trace) const
{
    for (const trace::TraceEvent &ev : _spans)
        trace.add(ev);
    for (const auto &[key, series] : _series) {
        for (const SeriesPoint &point : series.points) {
            trace::CounterEvent counter;
            counter.name = key; // labels folded in -> one track each
            counter.tsNs = point.tNs;
            counter.value = point.value;
            trace.addCounter(std::move(counter));
        }
    }
    for (const trace::InstantEvent &ev : _instants)
        trace.addInstant(ev);
    trace.sortByTime();
}

trace::Trace
Collector::toTrace() const
{
    trace::Trace trace;
    trace.setMeta("source", "skipsim-obs");
    appendTo(trace);
    return trace;
}

} // namespace skipsim::obs

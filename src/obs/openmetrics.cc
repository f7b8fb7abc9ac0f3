#include "obs/openmetrics.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::obs
{

namespace
{

/** Map a metric/label name into the OpenMetrics charset. */
std::string
sanitize(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

/** Exact, deterministic value rendering (integers stay integers). */
std::string
formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0.0 ? "+Inf" : "-Inf";
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
        return strprintf("%lld", static_cast<long long>(v));
    return strprintf("%.17g", v);
}

/** Split a canonical registry key back into name + labels. */
void
splitKey(const std::string &key, std::string &name, Labels &labels)
{
    const std::size_t brace = key.find('{');
    if (brace == std::string::npos) {
        name = key;
        return;
    }
    name = key.substr(0, brace);
    std::size_t pos = brace + 1;
    while (pos < key.size() && key[pos] != '}') {
        const std::size_t eq = key.find('=', pos);
        if (eq == std::string::npos || eq + 1 >= key.size() ||
            key[eq + 1] != '"')
            fatal(strprintf("openmetrics: malformed metric key '%s'",
                            key.c_str()));
        const std::size_t close = key.find('"', eq + 2);
        if (close == std::string::npos)
            fatal(strprintf("openmetrics: malformed metric key '%s'",
                            key.c_str()));
        labels.emplace_back(key.substr(pos, eq - pos),
                            key.substr(eq + 2, close - eq - 2));
        pos = close + 1;
        if (pos < key.size() && key[pos] == ',')
            ++pos;
    }
}

/** Render `{a="1",b="x"}` (empty string for no labels). */
std::string
renderLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            out += ",";
        out += sanitize(labels[i].first) + "=\"" + labels[i].second +
            "\"";
    }
    out += "}";
    return out;
}

/** Labels plus a trailing le="..." (histogram bucket series). */
std::string
renderBucketLabels(const Labels &labels, const std::string &le)
{
    std::string out = "{";
    for (const auto &[name, value] : labels)
        out += sanitize(name) + "=\"" + value + "\",";
    out += "le=\"" + le + "\"}";
    return out;
}

/** Emit `# TYPE` once per family, in first-appearance order. */
struct TypeHeader
{
    std::string last;

    void
    emit(std::string &out, const std::string &family,
         const char *type)
    {
        if (family == last)
            return;
        out += "# TYPE " + family + " " + type + "\n";
        last = family;
    }
};

} // namespace

std::string
toOpenMetrics(const Registry &registry)
{
    // Built over the registry's canonical JSON dump so the exposition
    // inherits its key-sorted, byte-stable ordering for free.
    const json::Value doc = registry.toJson();
    const json::Object &root = doc.asObject();
    std::string out;
    TypeHeader header;

    const json::Object &counters = root.at("counters").asObject();
    for (const auto &[key, value] : counters) {
        std::string name;
        Labels labels;
        splitKey(key, name, labels);
        const std::string family = sanitize(name);
        header.emit(out, family, "counter");
        out += family + "_total" + renderLabels(labels) + " " +
            formatValue(value.asDouble()) + "\n";
    }

    const json::Object &gauges = root.at("gauges").asObject();
    for (const auto &[key, value] : gauges) {
        std::string name;
        Labels labels;
        splitKey(key, name, labels);
        const std::string family = sanitize(name);
        header.emit(out, family, "gauge");
        out += family + renderLabels(labels) + " " +
            formatValue(value.asDouble()) + "\n";
    }

    const json::Object &histograms = root.at("histograms").asObject();
    for (const auto &[key, value] : histograms) {
        std::string name;
        Labels labels;
        splitKey(key, name, labels);
        const std::string family = sanitize(name);
        header.emit(out, family, "histogram");
        const json::Object &hist = value.asObject();
        double cumulative = 0.0;
        for (const auto &entry : hist.at("buckets").asArray()) {
            const json::Object &bucket = entry.asObject();
            const json::Value &le = bucket.at("le");
            const std::string bound = le.isString()
                ? "+Inf"
                : formatValue(le.asDouble());
            cumulative += bucket.at("count").asDouble();
            out += family + "_bucket" +
                renderBucketLabels(labels, bound) + " " +
                formatValue(cumulative) + "\n";
        }
        out += family + "_sum" + renderLabels(labels) + " " +
            formatValue(hist.at("sum").asDouble()) + "\n";
        out += family + "_count" + renderLabels(labels) + " " +
            formatValue(hist.at("count").asDouble()) + "\n";
    }

    out += "# EOF\n";
    return out;
}

std::vector<OpenMetricsSample>
parseOpenMetrics(const std::string &text)
{
    std::vector<OpenMetricsSample> samples;
    std::size_t lineno = 0;
    for (const std::string &line : split(text, '\n', false)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        OpenMetricsSample sample;
        std::size_t pos = 0;
        while (pos < line.size() && line[pos] != '{' &&
               line[pos] != ' ')
            ++pos;
        sample.name = line.substr(0, pos);
        if (sample.name.empty())
            fatal(strprintf("openmetrics: line %zu: missing metric "
                            "name",
                            lineno));
        if (pos < line.size() && line[pos] == '{') {
            ++pos;
            while (pos < line.size() && line[pos] != '}') {
                const std::size_t eq = line.find('=', pos);
                if (eq == std::string::npos ||
                    eq + 1 >= line.size() || line[eq + 1] != '"')
                    fatal(strprintf("openmetrics: line %zu: malformed "
                                    "label set",
                                    lineno));
                const std::size_t close = line.find('"', eq + 2);
                if (close == std::string::npos)
                    fatal(strprintf("openmetrics: line %zu: unclosed "
                                    "label value",
                                    lineno));
                sample.labels.emplace_back(
                    line.substr(pos, eq - pos),
                    line.substr(eq + 2, close - eq - 2));
                pos = close + 1;
                if (pos < line.size() && line[pos] == ',')
                    ++pos;
            }
            if (pos >= line.size())
                fatal(strprintf("openmetrics: line %zu: unclosed "
                                "label set",
                                lineno));
            ++pos; // '}'
        }
        if (pos >= line.size() || line[pos] != ' ')
            fatal(strprintf("openmetrics: line %zu: missing value",
                            lineno));
        const std::string value = line.substr(pos + 1);
        char *end = nullptr;
        sample.value = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
            fatal(strprintf("openmetrics: line %zu: bad value '%s'",
                            lineno, value.c_str()));
        samples.push_back(std::move(sample));
    }
    return samples;
}

} // namespace skipsim::obs

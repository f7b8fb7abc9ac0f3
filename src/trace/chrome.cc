#include "trace/chrome.hh"

#include <cmath>
#include <limits>
#include <string_view>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "json/parser.hh"
#include "json/writer.hh"

namespace skipsim::trace
{

namespace
{

json::Value
eventToJson(const TraceEvent &ev)
{
    json::Object obj;
    obj.set("ph", "X");
    obj.set("name", ev.name);
    obj.set("cat", kindName(ev.kind));
    obj.set("pid", 0);
    obj.set("tid", ev.onGpu() ? 1000 + ev.streamId : ev.tid);
    obj.set("ts", static_cast<double>(ev.tsBeginNs) / 1000.0);
    obj.set("dur", static_cast<double>(ev.durNs) / 1000.0);

    json::Object args;
    args.set("ts_ns", static_cast<long long>(ev.tsBeginNs));
    args.set("dur_ns", static_cast<long long>(ev.durNs));
    args.set("thread", ev.tid);
    if (ev.correlationId != 0)
        args.set("correlation",
                 static_cast<unsigned long long>(ev.correlationId));
    if (ev.onGpu())
        args.set("stream", ev.streamId);
    if (ev.flops > 0.0)
        args.set("flops", ev.flops);
    if (ev.bytes > 0.0)
        args.set("bytes", ev.bytes);
    obj.set("args", json::Value(std::move(args)));
    return json::Value(std::move(obj));
}

json::Value
counterToJson(const CounterEvent &counter)
{
    json::Object obj;
    obj.set("ph", "C");
    obj.set("name", counter.name);
    obj.set("pid", 0);
    obj.set("tid", counter.tid);
    obj.set("ts", static_cast<double>(counter.tsNs) / 1000.0);
    // Exact nanosecond timestamp as a top-level extra field: viewers
    // ignore it, and it cannot live in args because every args member
    // of a "C" event renders as its own counter series.
    obj.set("ts_ns", static_cast<long long>(counter.tsNs));
    json::Object args;
    args.set("value", counter.value);
    obj.set("args", json::Value(std::move(args)));
    return json::Value(std::move(obj));
}

json::Value
instantToJson(const InstantEvent &instant)
{
    json::Object obj;
    obj.set("ph", "i");
    obj.set("name", instant.name);
    obj.set("pid", 0);
    obj.set("tid", instant.tid);
    obj.set("ts", static_cast<double>(instant.tsNs) / 1000.0);
    obj.set("ts_ns", static_cast<long long>(instant.tsNs));
    obj.set("s", "t"); // thread-scoped marker
    return json::Value(std::move(obj));
}

/** Member @p key of @p obj when it holds an object, else null. */
const json::Object *
objectMember(const json::Object &obj, std::string_view key)
{
    const json::Value *value = obj.find(key);
    return value && value->isObject() ? &value->asObject() : nullptr;
}

std::int64_t
intOr(const json::Value *value, std::int64_t def)
{
    return value ? value->asInt() : def;
}

double
doubleOr(const json::Value *value, double def)
{
    return value ? value->asDouble() : def;
}

/**
 * Microsecond field @p key (value @p us) as integral nanoseconds.
 * @throws FatalError when the nanosecond value is outside int64.
 */
std::int64_t
usToNs(double us, const char *key)
{
    constexpr double kTwo63 = 9223372036854775808.0;
    const double ns = us * 1000.0;
    if (!(ns >= -kTwo63 && ns < kTwo63))
        fatal(strprintf("'%s' of %.17g us is outside the int64 "
                        "nanosecond range",
                        key, us));
    return static_cast<std::int64_t>(std::llround(ns));
}

/** Timestamp in ns: exact ts_ns when present, else microsecond ts. */
std::int64_t
timestampNs(const json::Object &obj)
{
    if (const json::Value *ts_ns = obj.find("ts_ns"))
        return ts_ns->asInt();
    return usToNs(obj.at("ts").asDouble(), "ts");
}

CounterEvent
counterFromJson(const json::Object &obj)
{
    CounterEvent counter;
    counter.name = obj.at("name").asString();
    counter.tsNs = timestampNs(obj);
    counter.tid = static_cast<int>(intOr(obj.find("tid"), 0));
    if (const json::Object *args = objectMember(obj, "args")) {
        if (const json::Value *value = args->find("value")) {
            counter.value = value->asDouble();
        } else {
            // Kineto-style counters name their series arbitrarily;
            // take the first numeric member.
            for (const json::Member &member : *args) {
                if (member.value.isNumber()) {
                    counter.value = member.value.asDouble();
                    break;
                }
            }
        }
    }
    return counter;
}

InstantEvent
instantFromJson(const json::Object &obj)
{
    InstantEvent instant;
    instant.name = obj.at("name").asString();
    instant.tsNs = timestampNs(obj);
    instant.tid = static_cast<int>(intOr(obj.find("tid"), 0));
    return instant;
}

TraceEvent
eventFromJson(const json::Object &obj)
{
    TraceEvent ev;
    ev.name = obj.at("name").asString();
    ev.kind = kindFromName(obj.at("cat").asString());

    const json::Object *args = objectMember(obj, "args");
    auto arg = [args](std::string_view key) -> const json::Value * {
        return args ? args->find(key) : nullptr;
    };

    const json::Value *ts_ns = arg("ts_ns");
    if (ts_ns) {
        ev.tsBeginNs = ts_ns->asInt();
        ev.durNs = args->at("dur_ns").asInt();
    } else {
        ev.tsBeginNs = usToNs(obj.at("ts").asDouble(), "ts");
        ev.durNs = usToNs(obj.at("dur").asDouble(), "dur");
    }

    // The "tid" fallback is read, and so checked, even when args
    // carries "thread": a malformed "tid" fails the event either way.
    const std::int64_t tid = intOr(obj.find("tid"), 0);
    ev.tid = static_cast<int>(intOr(arg("thread"), tid));
    ev.streamId = ev.onGpu() ? static_cast<int>(intOr(arg("stream"), 0)) : -1;
    ev.correlationId =
        static_cast<std::uint64_t>(intOr(arg("correlation"), 0));
    ev.flops = doubleOr(arg("flops"), 0.0);
    ev.bytes = doubleOr(arg("bytes"), 0.0);
    checkInterval(ev.tsBeginNs, ev.durNs, ts_ns ? "dur_ns" : "dur");
    return ev;
}

} // namespace

void
checkInterval(std::int64_t tsNs, std::int64_t durNs, const char *durKey)
{
    if (durNs < 0)
        fatal(strprintf("negative duration: '%s' is %lld ns", durKey,
                        static_cast<long long>(durNs)));
    if (tsNs > std::numeric_limits<std::int64_t>::max() - durNs)
        fatal(strprintf("event end overflows int64 ns: ts %lld + dur "
                        "%lld",
                        static_cast<long long>(tsNs),
                        static_cast<long long>(durNs)));
}

json::Value
toChromeJson(const Trace &trace)
{
    json::Object root;

    json::Object meta;
    for (const auto &[key, value] : trace.metaEntries())
        meta.set(key, value);
    root.set("skipsimMeta", json::Value(std::move(meta)));

    json::Value::Array events;
    events.reserve(trace.size() + trace.counters().size() +
                   trace.instants().size());
    for (const auto &ev : trace.events())
        events.push_back(eventToJson(ev));
    for (const auto &counter : trace.counters())
        events.push_back(counterToJson(counter));
    for (const auto &instant : trace.instants())
        events.push_back(instantToJson(instant));
    root.set("traceEvents", json::Value(std::move(events)));
    root.set("displayTimeUnit", "ns");
    return json::Value(std::move(root));
}

std::string
toChromeText(const Trace &trace)
{
    return json::write(toChromeJson(trace));
}

void
writeChromeFile(const std::string &path, const Trace &trace)
{
    json::writeFile(path, toChromeJson(trace), false);
}

Trace
fromChromeJson(const json::Value &doc)
{
    Trace trace;

    // Chrome tracing has two container formats: the object form with a
    // "traceEvents" member, and the legacy bare-array form (which is
    // also what many exporters emit and what truncated captures get
    // repaired into). Accept both.
    const json::Value::Array *events = nullptr;
    if (doc.isArray()) {
        events = &doc.asArray();
    } else if (doc.isObject()) {
        const json::Object &root = doc.asObject();
        if (const json::Value *meta = root.find("skipsimMeta"))
            for (const json::Member &member : meta->asObject())
                trace.setMeta(member.key, member.value.asString());
        const json::Value *list = root.find("traceEvents");
        if (!list)
            fatal("chrome trace: missing 'traceEvents' member (and "
                  "the document is not a bare event array)");
        if (!list->isArray())
            fatal("chrome trace: 'traceEvents' must be an array");
        events = &list->asArray();
    } else {
        fatal("chrome trace: top level must be an object with "
              "'traceEvents' or an event array");
    }

    std::size_t index = 0;
    for (const auto &item : *events) {
        // Malformed events (wrong kinds, missing timestamps) surface
        // as FatalError from the json accessors; re-throw with the
        // event index so a bad record in a megabyte export is
        // findable.
        try {
            if (!item.isObject())
                fatal("event is not a JSON object");
            const json::Object &obj = item.asObject();
            const json::Value *ph_value = obj.find("ph");
            const std::string_view ph =
                ph_value ? std::string_view(ph_value->asString()) : "X";
            if (ph == "C") {
                trace.addCounter(counterFromJson(obj));
            } else if (ph == "i" || ph == "I") {
                trace.addInstant(instantFromJson(obj));
            } else if (ph == "X") {
                // Skip uncategorized events and categories we do not
                // model (python_function, user_annotation...)
                const json::Value *cat = obj.find("cat");
                const std::string_view name =
                    cat ? std::string_view(cat->asString()) : "";
                if (name == "cpu_op" || name == "cuda_runtime" ||
                    name == "kernel" || name == "gpu_memcpy")
                    trace.add(eventFromJson(obj));
            }
        } catch (const FatalError &err) {
            fatal(strprintf("chrome trace: event %zu: %s", index,
                            err.what()));
        }
        ++index;
    }
    trace.sortByTime();
    return trace;
}

Trace
fromChromeText(const std::string &text)
{
    return fromChromeJson(json::parse(text));
}

Trace
readChromeFile(const std::string &path)
{
    return fromChromeJson(json::parseFile(path));
}

} // namespace skipsim::trace

#include "check/chrome_oracle.hh"

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "trace/chrome.hh"

namespace skipsim::check
{

namespace
{

using trace::CounterEvent;
using trace::InstantEvent;
using trace::TraceEvent;
using trace::kindFromName;
using trace::kindName;

// The reference reader and writer below are the DOM code the codecs
// replaced, kept as it was.

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
    trace::checkInterval(ev.tsBeginNs, ev.durNs, ts_ns ? "dur_ns" : "dur");
    return ev;
}

} // namespace

json::Value
referenceTraceToChromeJson(const trace::Trace &trace)
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

trace::Trace
referenceTraceFromChromeJson(const json::Value &doc)
{
    trace::Trace trace;

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

json::Value
referenceSpansToChromeJson(const std::map<std::string, std::string> &_meta,
                           const std::vector<obs::Span> &_sealed)
{
    json::Object root;
    json::Object meta;
    meta.set("kind", "spans");
    for (const auto &[key, value] : _meta)
        meta.set(key, value);
    root.set("skipsimMeta", json::Value(std::move(meta)));

    json::Value::Array events;
    events.reserve(_sealed.size());
    for (const obs::Span &span : _sealed) {
        const bool is_root = span.parent < 0;
        if (is_root) {
            // Async "b" flow event: one Perfetto row per request id.
            json::Object flow;
            flow.set("ph", "b");
            flow.set("cat", "request");
            flow.set("id",
                     static_cast<unsigned long long>(span.request));
            flow.set("name", "request");
            flow.set("pid", 0);
            flow.set("tid", 0);
            flow.set("ts", static_cast<double>(span.beginNs) / 1000.0);
            flow.set("ts_ns", static_cast<long long>(span.beginNs));
            events.push_back(json::Value(std::move(flow)));
        }
        json::Object obj;
        obj.set("ph", "X");
        obj.set("name", span.stage);
        // "cpu_op" keeps the export parseable by trace::readChromeFile
        // (and therefore skipctl validate), which skips unmodeled
        // categories.
        obj.set("cat", "cpu_op");
        obj.set("pid", 0);
        const int tid = span.replica < 0 ? 0 : span.replica + 1;
        obj.set("tid", tid);
        obj.set("ts", static_cast<double>(span.beginNs) / 1000.0);
        obj.set("dur", static_cast<double>(span.durNs) / 1000.0);
        json::Object args;
        args.set("ts_ns", static_cast<long long>(span.beginNs));
        args.set("dur_ns", static_cast<long long>(span.durNs));
        args.set("thread", tid);
        args.set("span_id", static_cast<long long>(span.id));
        args.set("parent", static_cast<long long>(span.parent));
        args.set("request", static_cast<long long>(span.request));
        args.set("replica", span.replica);
        if (!span.detail.empty())
            args.set("detail", span.detail);
        obj.set("args", json::Value(std::move(args)));
        events.push_back(json::Value(std::move(obj)));
        if (is_root) {
            json::Object flow;
            flow.set("ph", "e");
            flow.set("cat", "request");
            flow.set("id",
                     static_cast<unsigned long long>(span.request));
            flow.set("name", "request");
            flow.set("pid", 0);
            flow.set("tid", 0);
            const std::int64_t end = span.beginNs + span.durNs;
            flow.set("ts", static_cast<double>(end) / 1000.0);
            flow.set("ts_ns", static_cast<long long>(end));
            events.push_back(json::Value(std::move(flow)));
        }
    }
    root.set("traceEvents", json::Value(std::move(events)));
    root.set("displayTimeUnit", "ns");
    return json::Value(std::move(root));
}

obs::SpanFile
referenceSpansFromChromeJson(const json::Value &doc)
{
    obs::SpanFile out;
    if (!doc.isObject())
        fatal("span trace: top level must be an object with "
              "'traceEvents'");
    const json::Object &root = doc.asObject();
    if (const json::Value *meta = root.find("skipsimMeta"))
        for (const json::Member &member : meta->asObject())
            out.meta[member.key] = member.value.asString();
    const json::Value *events = root.find("traceEvents");
    if (!events || !events->isArray())
        fatal("span trace: missing 'traceEvents' array");
    std::size_t index = 0;
    for (const auto &item : events->asArray()) {
        try {
            if (!item.isObject())
                fatal("event is not a JSON object");
            const json::Object &obj = item.asObject();
            const json::Value *ph = obj.find("ph");
            if (!ph || ph->asString() != "X") {
                ++index;
                continue; // flow events and foreign records
            }
            const json::Value *args = obj.find("args");
            if (!args || !args->isObject()) {
                ++index;
                continue; // an "X" event from another writer
            }
            const json::Object &span_args = args->asObject();
            const json::Value *id = span_args.find("span_id");
            if (!id) {
                ++index;
                continue; // an "X" event from another writer
            }
            obs::Span span;
            span.id = id->asInt();
            span.parent = span_args.at("parent").asInt();
            span.request = span_args.at("request").asInt();
            span.stage = obj.at("name").asString();
            span.beginNs = span_args.at("ts_ns").asInt();
            span.durNs = span_args.at("dur_ns").asInt();
            const json::Value *replica = span_args.find("replica");
            span.replica =
                replica ? json::intValue(*replica, "replica") : -1;
            const json::Value *detail = span_args.find("detail");
            span.detail = detail ? detail->asString() : std::string();
            trace::checkInterval(span.beginNs, span.durNs, "dur_ns");
            out.spans.push_back(std::move(span));
        } catch (const FatalError &err) {
            fatal(strprintf("span trace: event %zu: %s", index,
                            err.what()));
        }
        ++index;
    }
    return out;
}

namespace
{

/** What one path made of an input: its output, or its error text. */
struct Outcome
{
    bool ok = false;
    std::string text;
};

Outcome
attempt(const std::function<std::string()> &run)
{
    try {
        return {true, run()};
    } catch (const FatalError &err) {
        return {false, err.what()};
    }
}

std::string
excerpt(const std::string &text, std::size_t at)
{
    const std::size_t from = at < 40 ? 0 : at - 40;
    return text.substr(from, 80);
}

/** Empty when @p got matches @p want, else where they part. */
std::string
compare(const char *what, const Outcome &want, const Outcome &got)
{
    if (want.ok != got.ok)
        return strprintf("%s: reference %s '%s', codec %s '%s'", what,
                         want.ok ? "accepted" : "rejected",
                         excerpt(want.text, 0).c_str(),
                         got.ok ? "accepted" : "rejected",
                         excerpt(got.text, 0).c_str());
    if (want.text == got.text)
        return {};
    std::size_t at = 0;
    while (at < want.text.size() && at < got.text.size() &&
           want.text[at] == got.text[at])
        ++at;
    return strprintf("%s: %s differ at byte %zu: reference '%s', codec "
                     "'%s'",
                     what, want.ok ? "outputs" : "errors", at,
                     excerpt(want.text, at).c_str(),
                     excerpt(got.text, at).c_str());
}

/** Every field of @p t, one line per entry (doubles in hex, exact). */
std::string
describeTrace(const trace::Trace &t)
{
    std::string out;
    for (const auto &[key, value] : t.metaEntries())
        out += strprintf("meta %s=%s\n", key.c_str(), value.c_str());
    for (const TraceEvent &ev : t.events())
        out += strprintf("event %llu %s %s %lld %lld %d %d %llu %a %a\n",
                         static_cast<unsigned long long>(ev.id),
                         kindName(ev.kind), ev.name.c_str(),
                         static_cast<long long>(ev.tsBeginNs),
                         static_cast<long long>(ev.durNs), ev.tid,
                         ev.streamId,
                         static_cast<unsigned long long>(ev.correlationId),
                         ev.flops, ev.bytes);
    for (const CounterEvent &c : t.counters())
        out += strprintf("counter %s %lld %a %d\n", c.name.c_str(),
                         static_cast<long long>(c.tsNs), c.value, c.tid);
    for (const InstantEvent &i : t.instants())
        out += strprintf("instant %s %lld %d\n", i.name.c_str(),
                         static_cast<long long>(i.tsNs), i.tid);
    return out;
}

/** Every field of @p file, one line per entry. */
std::string
describeSpans(const obs::SpanFile &file)
{
    std::string out;
    for (const auto &[key, value] : file.meta)
        out += strprintf("meta %s=%s\n", key.c_str(), value.c_str());
    for (const obs::Span &s : file.spans)
        out += strprintf("span %lld %lld %lld %s %lld %lld %d %s\n",
                         static_cast<long long>(s.id),
                         static_cast<long long>(s.parent),
                         static_cast<long long>(s.request),
                         s.stage.c_str(), static_cast<long long>(s.beginNs),
                         static_cast<long long>(s.durNs), s.replica,
                         s.detail.c_str());
    return out;
}

/** First non-empty problem of @p problems. */
std::string
firstOf(std::initializer_list<std::string> problems)
{
    for (const std::string &problem : problems)
        if (!problem.empty())
            return problem;
    return {};
}

std::string
diffTraceText(const std::string &text, const json::Value *doc,
              const std::string &parseError)
{
    std::optional<trace::Trace> ref;
    std::optional<trace::Trace> codec_text;
    std::optional<trace::Trace> codec_dom;
    auto read = [](std::optional<trace::Trace> &into, auto &&run) {
        return attempt([&] {
            into = run();
            return describeTrace(*into);
        });
    };
    const Outcome want = doc
        ? read(ref, [&] { return referenceTraceFromChromeJson(*doc); })
        : Outcome{false, parseError};
    const Outcome got_text =
        read(codec_text, [&] { return trace::fromChromeText(text); });
    const Outcome got_dom = doc
        ? read(codec_dom, [&] { return trace::fromChromeJson(*doc); })
        : Outcome{false, parseError};
    if (std::string p = firstOf(
            {compare("trace fromChromeText", want, got_text),
             compare("trace fromChromeJson", want, got_dom)});
        !p.empty() || !ref)
        return p;
    const Outcome ref_out{true, json::write(referenceTraceToChromeJson(*ref))};
    return firstOf(
        {compare("trace toChromeText", ref_out,
                 {true, trace::toChromeText(*codec_text)}),
         compare("trace toChromeJson", ref_out,
                 {true, json::write(trace::toChromeJson(*codec_dom))}),
         compare("trace toChromeText of the reference trace", ref_out,
                 {true, trace::toChromeText(*ref)})});
}

std::string
diffSpanText(const std::string &text, const json::Value *doc,
             const std::string &parseError)
{
    std::optional<obs::SpanFile> ref;
    std::optional<obs::SpanFile> codec_text;
    std::optional<obs::SpanFile> codec_dom;
    auto read = [](std::optional<obs::SpanFile> &into, auto &&run) {
        return attempt([&] {
            into = run();
            return describeSpans(*into);
        });
    };
    const Outcome want = doc
        ? read(ref, [&] { return referenceSpansFromChromeJson(*doc); })
        : Outcome{false, parseError};
    const Outcome got_text =
        read(codec_text, [&] { return obs::spansFromChromeText(text); });
    const Outcome got_dom = doc
        ? read(codec_dom, [&] { return obs::spansFromChromeJson(*doc); })
        : Outcome{false, parseError};
    if (std::string p = firstOf(
            {compare("span spansFromChromeText", want, got_text),
             compare("span spansFromChromeJson", want, got_dom)});
        !p.empty() || !ref)
        return p;
    const Outcome ref_out{
        true, json::write(referenceSpansToChromeJson(ref->meta, ref->spans))};
    return compare("span toChromeText", ref_out,
                   {true, obs::toChromeText(*codec_text)});
}

} // namespace

std::string
diffChromeCodec(const std::string &text)
{
    std::optional<json::Value> doc;
    std::string parse_error;
    try {
        doc = json::parse(text);
    } catch (const FatalError &err) {
        parse_error = err.what();
    }
    const json::Value *parsed = doc ? &*doc : nullptr;
    if (std::string p = diffTraceText(text, parsed, parse_error);
        !p.empty())
        return "chrome codec: " + p;
    if (std::string p = diffSpanText(text, parsed, parse_error); !p.empty())
        return "chrome codec: " + p;
    return {};
}

std::string
diffChromeCodec(const trace::Trace &trace)
{
    const Outcome want{true, json::write(referenceTraceToChromeJson(trace))};
    const std::string text = trace::toChromeText(trace);
    if (std::string p = firstOf(
            {compare("trace toChromeText", want, {true, text}),
             compare("trace toChromeJson", want,
                     {true, json::write(trace::toChromeJson(trace))})});
        !p.empty())
        return "chrome codec: " + p;
    return diffChromeCodec(text);
}

std::string
diffChromeCodec(const obs::SpanLog &spans)
{
    const Outcome want{
        true, json::write(referenceSpansToChromeJson(spans.meta(),
                                                     spans.spans()))};
    const std::string text = spans.toChromeText();
    if (std::string p = firstOf(
            {compare("span toChromeText", want, {true, text}),
             compare("span toChromeJson", want,
                     {true, json::write(spans.toChromeJson())})});
        !p.empty())
        return "chrome codec: " + p;
    return diffChromeCodec(text);
}

} // namespace skipsim::check

#include "trace/chrome.hh"

#include <cmath>
#include <limits>
#include <string_view>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "json/builder.hh"
#include "json/emitter.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "trace/chrome_codec.hh"

namespace skipsim::trace
{

namespace
{

using codec::EventFields;
using codec::Field;
using codec::Key;

/**
 * Push @p trace into @p out, a json::Emitter or a json::DomBuilder:
 * skipsimMeta, then the "X" events, counters and instants, then the
 * display unit.
 */
template <class Sink>
void
encode(Sink &out, const Trace &trace)
{
    out.beginObject();
    out.key("skipsimMeta");
    out.beginObject();
    for (const auto &[key, value] : trace.metaEntries()) {
        out.key(key);
        out.string(value);
    }
    out.endObject();

    out.key("traceEvents");
    out.beginArray();
    for (const TraceEvent &ev : trace.events()) {
        out.beginObject();
        out.key("ph");
        out.string("X");
        out.key("name");
        out.string(ev.name);
        out.key("cat");
        out.string(kindName(ev.kind));
        out.key("pid");
        out.integer(0);
        out.key("tid");
        out.integer(ev.onGpu() ? 1000 + ev.streamId : ev.tid);
        out.key("ts");
        out.number(static_cast<double>(ev.tsBeginNs) / 1000.0);
        out.key("dur");
        out.number(static_cast<double>(ev.durNs) / 1000.0);
        out.key("args");
        out.beginObject();
        out.key("ts_ns");
        out.integer(ev.tsBeginNs);
        out.key("dur_ns");
        out.integer(ev.durNs);
        out.key("thread");
        out.integer(ev.tid);
        if (ev.correlationId != 0) {
            out.key("correlation");
            out.number(static_cast<double>(ev.correlationId));
        }
        if (ev.onGpu()) {
            out.key("stream");
            out.integer(ev.streamId);
        }
        if (ev.flops > 0.0) {
            out.key("flops");
            out.number(ev.flops);
        }
        if (ev.bytes > 0.0) {
            out.key("bytes");
            out.number(ev.bytes);
        }
        out.endObject();
        out.endObject();
    }
    for (const CounterEvent &counter : trace.counters()) {
        out.beginObject();
        out.key("ph");
        out.string("C");
        out.key("name");
        out.string(counter.name);
        out.key("pid");
        out.integer(0);
        out.key("tid");
        out.integer(counter.tid);
        out.key("ts");
        out.number(static_cast<double>(counter.tsNs) / 1000.0);
        // Exact nanosecond timestamp as a top-level extra field:
        // viewers ignore it, and it cannot live in args because every
        // args member of a "C" event renders as its own counter series.
        out.key("ts_ns");
        out.integer(counter.tsNs);
        out.key("args");
        out.beginObject();
        out.key("value");
        out.number(counter.value);
        out.endObject();
        out.endObject();
    }
    for (const InstantEvent &instant : trace.instants()) {
        out.beginObject();
        out.key("ph");
        out.string("i");
        out.key("name");
        out.string(instant.name);
        out.key("pid");
        out.integer(0);
        out.key("tid");
        out.integer(instant.tid);
        out.key("ts");
        out.number(static_cast<double>(instant.tsNs) / 1000.0);
        out.key("ts_ns");
        out.integer(instant.tsNs);
        out.key("s");
        out.string("t"); // thread-scoped marker
        out.endObject();
    }
    out.endArray();
    out.key("displayTimeUnit");
    out.string("ns");
    out.endObject();
}

std::int64_t
intOr(const Field *field, std::int64_t def)
{
    return field ? field->asInt() : def;
}

double
doubleOr(const Field *field, double def)
{
    return field ? field->asDouble() : def;
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
timestampNs(const EventFields &event)
{
    if (const Field *ts_ns = event.find(Key::TsNs))
        return ts_ns->asInt();
    return usToNs(event.at(Key::Ts, "ts").asDouble(), "ts");
}

/** Builds a Trace from the events of a walk. */
class TraceSink final : public codec::EventSink
{
  public:
    Trace trace;

    void
    reset(std::size_t events) override
    {
        trace = Trace();
        trace.reserve(events);
    }

    void
    decode(const EventFields &event) override
    {
        const Field *ph = event.find(Key::Ph);
        const std::string_view phase = ph ? ph->asString() : "X";
        if (phase == "C") {
            trace.addCounter(counter(event));
        } else if (phase == "i" || phase == "I") {
            InstantEvent instant;
            instant.name = event.at(Key::Name, "name").asString();
            instant.tsNs = timestampNs(event);
            instant.tid = static_cast<int>(intOr(event.find(Key::Tid), 0));
            trace.addInstant(std::move(instant));
        } else if (phase == "X") {
            // Skip uncategorized events and categories we do not
            // model (python_function, user_annotation...)
            const Field *cat = event.find(Key::Cat);
            const std::string_view name = cat ? cat->asString() : "";
            if (name == "cpu_op" || name == "cuda_runtime" ||
                name == "kernel" || name == "gpu_memcpy")
                trace.add(interval(event));
        }
    }

  private:
    static CounterEvent
    counter(const EventFields &event)
    {
        CounterEvent counter;
        counter.name = event.at(Key::Name, "name").asString();
        counter.tsNs = timestampNs(event);
        counter.tid = static_cast<int>(intOr(event.find(Key::Tid), 0));
        if (const Field *value = event.arg(Key::Value)) {
            counter.value = value->asDouble();
        } else if (std::optional<double> first = event.firstNumericArg()) {
            // Kineto-style counters name their series arbitrarily;
            // take the first numeric member.
            counter.value = *first;
        }
        return counter;
    }

    static TraceEvent
    interval(const EventFields &event)
    {
        TraceEvent ev;
        ev.name = event.at(Key::Name, "name").asString();
        ev.kind = kindFromName(std::string(event.at(Key::Cat, "cat").asString()));

        const Field *ts_ns = event.arg(Key::TsNs);
        if (ts_ns) {
            ev.tsBeginNs = ts_ns->asInt();
            ev.durNs = event.argAt(Key::DurNs, "dur_ns").asInt();
        } else {
            ev.tsBeginNs = usToNs(event.at(Key::Ts, "ts").asDouble(), "ts");
            ev.durNs = usToNs(event.at(Key::Dur, "dur").asDouble(), "dur");
        }

        // The "tid" fallback is read, and so checked, even when args
        // carries "thread": a malformed "tid" fails the event either
        // way.
        const std::int64_t tid = intOr(event.find(Key::Tid), 0);
        ev.tid = static_cast<int>(intOr(event.arg(Key::Thread), tid));
        ev.streamId = ev.onGpu()
            ? static_cast<int>(intOr(event.arg(Key::Stream), 0))
            : -1;
        ev.correlationId = static_cast<std::uint64_t>(
            intOr(event.arg(Key::Correlation), 0));
        ev.flops = doubleOr(event.arg(Key::Flops), 0.0);
        ev.bytes = doubleOr(event.arg(Key::Bytes), 0.0);
        checkInterval(ev.tsBeginNs, ev.durNs, ts_ns ? "dur_ns" : "dur");
        return ev;
    }
};

/** The Trace a walk read, once the document-level rules hold. */
Trace
finish(const codec::Document &doc, TraceSink &sink)
{
    // Chrome tracing has two container formats: the object form with
    // a "traceEvents" member, and the legacy bare-array form (which is
    // also what many exporters emit and what truncated captures get
    // repaired into). Both are read.
    if (doc.root == json::Kind::Object) {
        for (const codec::MetaEntry *entry : doc.metaStrings())
            sink.trace.setMeta(entry->key, entry->value);
        if (!doc.events)
            fatal("chrome trace: missing 'traceEvents' member (and "
                  "the document is not a bare event array)");
        if (*doc.events != json::Kind::Array)
            fatal("chrome trace: 'traceEvents' must be an array");
    } else if (doc.root != json::Kind::Array) {
        fatal("chrome trace: top level must be an object with "
              "'traceEvents' or an event array");
    }
    if (doc.eventError)
        fatal(*doc.eventError);
    sink.trace.sortByTime();
    return std::move(sink.trace);
}

constexpr const char *kPrefix = "chrome trace";

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
    json::DomBuilder out;
    encode(out, trace);
    return out.take();
}

std::string
toChromeText(const Trace &trace)
{
    std::string text;
    json::Emitter out(text);
    encode(out, trace);
    return text;
}

void
writeChromeFile(const std::string &path, const Trace &trace)
{
    json::writeTextFile(path, toChromeText(trace));
}

Trace
fromChromeJson(const json::Value &doc)
{
    TraceSink sink;
    return finish(codec::readDom(doc, sink, kPrefix, true), sink);
}

Trace
fromChromeText(const std::string &text)
{
    TraceSink sink;
    return finish(codec::readText(text, sink, kPrefix, true), sink);
}

Trace
readChromeFile(const std::string &path)
{
    return fromChromeText(json::readFile(path));
}

} // namespace skipsim::trace

#include "obs/span.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "json/builder.hh"
#include "json/emitter.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "trace/chrome.hh"
#include "trace/chrome_codec.hh"

namespace skipsim::obs
{

namespace
{

std::int64_t
roundNs(double tNs)
{
    return std::llround(tNs);
}

} // namespace

SpanLog::Journal &
SpanLog::journal(std::size_t id)
{
    if (id >= _journals.size())
        _journals.resize(id + 1);
    return _journals[id];
}

void
SpanLog::openStage(Journal &j, const char *stage, std::int64_t tNs,
                   int replica, std::int64_t stallNs)
{
    j.openStage = stage;
    j.openBeginNs = tNs;
    j.openReplica = replica;
    j.stallNs = std::max<std::int64_t>(0, stallNs);
}

void
SpanLog::closeOpen(Journal &j, std::int64_t tNs)
{
    if (j.openStage.empty())
        return;
    std::int64_t begin = j.openBeginNs;
    if (j.stallNs > 0) {
        // The KV-tier transfer stalls the front of this stage. The
        // raw stall is charged to the admitting iteration *before*
        // duration scaling (clock/slowdown/jitter), so it can outlast
        // the scaled stage — clamp to the stage close to keep the
        // partition exact.
        std::int64_t kv_end = std::min(begin + j.stallNs, tNs);
        Rec kv;
        kv.parentLocal = 0;
        kv.stage = kStageKvFetch;
        kv.beginNs = begin;
        kv.durNs = kv_end - begin;
        kv.replica = j.openReplica;
        j.recs.push_back(std::move(kv));
        begin = kv_end;
        j.stallNs = 0;
    }
    Rec stage;
    stage.parentLocal = 0;
    stage.stage = j.openStage;
    stage.beginNs = begin;
    stage.durNs = tNs - begin;
    stage.replica = j.openReplica;
    int stage_idx = static_cast<int>(j.recs.size());
    j.recs.push_back(std::move(stage));
    for (Rec &kid : j.pendingKids) {
        kid.parentLocal = stage_idx;
        j.recs.push_back(std::move(kid));
    }
    j.pendingKids.clear();
    j.openStage.clear();
}

void
SpanLog::onArrival(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    j = Journal{};
    j.active = true;
    j.arrivalNs = roundNs(tNs);
    j.segStartNs = j.arrivalNs;
    Rec root;
    root.parentLocal = -1;
    root.stage = kStageRequest;
    root.beginNs = j.arrivalNs;
    j.recs.push_back(std::move(root));
    j.segFirstIdx = j.recs.size();
    openStage(j, kStageQueue, j.arrivalNs, -1);
}

void
SpanLog::onRoute(std::size_t id, double tNs, int replica,
                 const std::string &reason)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    j.replica = replica;
    Rec route;
    route.stage = kSpanRoute;
    route.beginNs = t;
    route.replica = replica;
    route.detail = reason;
    j.pendingKids.push_back(std::move(route));
    if (j.openStage == kStageQueue) {
        // The routing decision ends the router queue wait; the route
        // annotation stays a child of the queue stage it concluded.
        closeOpen(j, t);
        openStage(j, kStagePrefillWait, t, replica);
    }
    // Otherwise (a decode-pool re-dispatch mid-handoff) the handoff
    // stage stays open and just gains the route child.
}

void
SpanLog::onAdmit(std::size_t id, double tNs, double stallNs,
                 bool decodeEntry)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    closeOpen(j, t);
    openStage(j, decodeEntry ? kStageDecode : kStagePrefill, t,
              j.replica, roundNs(stallNs));
}

void
SpanLog::onFirstToken(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    closeOpen(j, t);
    openStage(j, kStageDecode, t, j.replica);
}

void
SpanLog::onHandoffStart(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    // Fired at the first-token instant on a prefill-pool replica: the
    // decode stage onFirstToken just opened has recorded nothing yet,
    // so it simply becomes the handoff stage.
    (void)tNs;
    j.openStage = kStageHandoff;
}

void
SpanLog::onDecodeIter(std::size_t id, double beginNs, double endNs,
                      int batch)
{
    Journal &j = journal(id);
    if (!j.active || j.openStage != kStageDecode)
        return;
    Rec iter;
    iter.stage = kSpanDecodeIter;
    iter.beginNs = roundNs(beginNs);
    iter.durNs = roundNs(endNs) - iter.beginNs;
    iter.replica = j.replica;
    iter.detail = strprintf("b=%d", batch);
    j.pendingKids.push_back(std::move(iter));
}

void
SpanLog::onRestart(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    // The attempt's tokens (and any handed-off KV) died with the
    // replica: its stages are unrepresentative of a clean lifecycle,
    // so the whole attempt collapses into one disrupted stage and the
    // partition stays exact across the re-route.
    j.recs.resize(j.segFirstIdx);
    j.pendingKids.clear();
    j.openStage.clear();
    j.stallNs = 0;
    Rec lost;
    lost.parentLocal = 0;
    lost.stage = kStageDisrupted;
    lost.beginNs = j.segStartNs;
    lost.durNs = t - j.segStartNs;
    lost.replica = j.replica;
    j.recs.push_back(std::move(lost));
    j.segStartNs = t;
    j.segFirstIdx = j.recs.size();
    j.replica = -1;
    openStage(j, kStageQueue, t, -1);
}

void
SpanLog::onComplete(std::size_t id, double tNs)
{
    Journal &j = journal(id);
    if (!j.active)
        return;
    std::int64_t t = roundNs(tNs);
    closeOpen(j, t);
    j.recs[0].durNs = t - j.recs[0].beginNs;

    // Seal: global ids are assigned in completion-event order, which
    // the engine's (time, priority, seq) ordering makes a pure
    // function of the spec — never of host threading.
    std::int64_t base = _nextId;
    for (std::size_t i = 0; i < j.recs.size(); ++i) {
        const Rec &rec = j.recs[i];
        Span span;
        span.id = base + static_cast<std::int64_t>(i);
        span.parent = rec.parentLocal < 0
            ? -1
            : base + static_cast<std::int64_t>(rec.parentLocal);
        span.request = static_cast<std::int64_t>(id);
        span.stage = rec.stage;
        span.beginNs = rec.beginNs;
        span.durNs = rec.durNs;
        span.replica = rec.replica;
        span.detail = rec.detail;
        _sealed.push_back(std::move(span));
    }
    _nextId += static_cast<std::int64_t>(j.recs.size());
    ++_sealedRequests;
    j = Journal{}; // journal memory is done; active = false
}

void
SpanLog::setMeta(const std::string &key, const std::string &value)
{
    _meta[key] = value;
}

namespace
{

/**
 * Push the span export of @p spans and @p meta into @p out, a
 * json::Emitter or a json::DomBuilder; see the header comment for the
 * format. skipsimMeta leads with "kind": "spans" unless @p meta sets
 * its own "kind".
 */
template <class Sink>
void
encode(Sink &out, const std::map<std::string, std::string> &meta,
       const std::vector<Span> &spans)
{
    out.beginObject();
    out.key("skipsimMeta");
    out.beginObject();
    const auto kind = meta.find("kind");
    out.key("kind");
    out.string(kind == meta.end() ? "spans" : kind->second);
    for (const auto &[key, value] : meta) {
        if (key == "kind")
            continue;
        out.key(key);
        out.string(value);
    }
    out.endObject();

    // Async "b"/"e" flow events bracket each request root: one
    // Perfetto row per request id.
    auto flow = [&out](const char *ph, const Span &root, std::int64_t ts) {
        out.beginObject();
        out.key("ph");
        out.string(ph);
        out.key("cat");
        out.string("request");
        out.key("id");
        out.number(static_cast<double>(
            static_cast<unsigned long long>(root.request)));
        out.key("name");
        out.string("request");
        out.key("pid");
        out.integer(0);
        out.key("tid");
        out.integer(0);
        out.key("ts");
        out.number(static_cast<double>(ts) / 1000.0);
        out.key("ts_ns");
        out.integer(ts);
        out.endObject();
    };

    out.key("traceEvents");
    out.beginArray();
    for (const Span &span : spans) {
        const bool is_root = span.parent < 0;
        if (is_root)
            flow("b", span, span.beginNs);
        out.beginObject();
        out.key("ph");
        out.string("X");
        out.key("name");
        out.string(span.stage);
        // "cpu_op" keeps the export parseable by trace::readChromeFile
        // (and therefore skipctl validate), which skips unmodeled
        // categories.
        out.key("cat");
        out.string("cpu_op");
        out.key("pid");
        out.integer(0);
        const int tid = span.replica < 0 ? 0 : span.replica + 1;
        out.key("tid");
        out.integer(tid);
        out.key("ts");
        out.number(static_cast<double>(span.beginNs) / 1000.0);
        out.key("dur");
        out.number(static_cast<double>(span.durNs) / 1000.0);
        out.key("args");
        out.beginObject();
        out.key("ts_ns");
        out.integer(span.beginNs);
        out.key("dur_ns");
        out.integer(span.durNs);
        out.key("thread");
        out.integer(tid);
        out.key("span_id");
        out.integer(span.id);
        out.key("parent");
        out.integer(span.parent);
        out.key("request");
        out.integer(span.request);
        out.key("replica");
        out.integer(span.replica);
        if (!span.detail.empty()) {
            out.key("detail");
            out.string(span.detail);
        }
        out.endObject();
        out.endObject();
        if (is_root)
            flow("e", span, span.beginNs + span.durNs);
    }
    out.endArray();
    out.key("displayTimeUnit");
    out.string("ns");
    out.endObject();
}

std::string
encodeText(const std::map<std::string, std::string> &meta,
           const std::vector<Span> &spans)
{
    std::string text;
    json::Emitter out(text);
    encode(out, meta, spans);
    return text;
}

using trace::codec::EventFields;
using trace::codec::Field;
using trace::codec::Key;

/** Collects the spans of a walk. */
class SpanSink final : public trace::codec::EventSink
{
  public:
    SpanFile file;

    void
    reset(std::size_t events) override
    {
        file.spans.clear();
        file.spans.reserve(events);
    }

    void
    decode(const EventFields &event) override
    {
        const Field *ph = event.find(Key::Ph);
        if (!ph || ph->asString() != "X")
            return; // flow events and foreign records
        const Field *id = event.arg(Key::SpanId);
        if (!id)
            return; // an "X" event from another writer
        Span span;
        span.id = id->asInt();
        span.parent = event.argAt(Key::Parent, "parent").asInt();
        span.request = event.argAt(Key::Request, "request").asInt();
        span.stage = event.at(Key::Name, "name").asString();
        span.beginNs = event.argAt(Key::TsNs, "ts_ns").asInt();
        span.durNs = event.argAt(Key::DurNs, "dur_ns").asInt();
        const Field *replica = event.arg(Key::Replica);
        span.replica = replica ? replica->asIntNamed("replica") : -1;
        const Field *detail = event.arg(Key::Detail);
        if (detail)
            span.detail = detail->asString();
        trace::checkInterval(span.beginNs, span.durNs, "dur_ns");
        file.spans.push_back(std::move(span));
    }
};

/** The SpanFile a walk read, once the document-level rules hold. */
SpanFile
finish(const trace::codec::Document &doc, SpanSink &sink)
{
    if (doc.root != json::Kind::Object)
        fatal("span trace: top level must be an object with "
              "'traceEvents'");
    for (const trace::codec::MetaEntry *entry : doc.metaStrings())
        sink.file.meta[entry->key] = entry->value;
    if (!doc.events || *doc.events != json::Kind::Array)
        fatal("span trace: missing 'traceEvents' array");
    if (doc.eventError)
        fatal(*doc.eventError);
    return std::move(sink.file);
}

constexpr const char *kPrefix = "span trace";

} // namespace

json::Value
SpanLog::toChromeJson() const
{
    json::DomBuilder out;
    encode(out, _meta, _sealed);
    return out.take();
}

std::string
SpanLog::toChromeText() const
{
    return encodeText(_meta, _sealed);
}

void
SpanLog::writeChromeFile(const std::string &path) const
{
    json::writeTextFile(path, toChromeText());
}

std::string
toChromeText(const SpanFile &file)
{
    return encodeText(file.meta, file.spans);
}

SpanFile
spansFromChromeJson(const json::Value &doc)
{
    SpanSink sink;
    return finish(trace::codec::readDom(doc, sink, kPrefix, false), sink);
}

SpanFile
spansFromChromeText(const std::string &text)
{
    SpanSink sink;
    return finish(trace::codec::readText(text, sink, kPrefix, false),
                  sink);
}

SpanFile
readSpanFile(const std::string &path)
{
    return spansFromChromeText(json::readFile(path));
}

} // namespace skipsim::obs

#include "obs/span.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "trace/chrome.hh"

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

json::Value
SpanLog::toChromeJson() const
{
    json::Object root;
    json::Object meta;
    meta.set("kind", "spans");
    for (const auto &[key, value] : _meta)
        meta.set(key, value);
    root.set("skipsimMeta", json::Value(std::move(meta)));

    json::Value::Array events;
    events.reserve(_sealed.size() + 2 * _sealedRequests);
    for (const Span &span : _sealed) {
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

std::string
SpanLog::toChromeText() const
{
    return json::write(toChromeJson());
}

void
SpanLog::writeChromeFile(const std::string &path) const
{
    json::writeFile(path, toChromeJson(), false);
}

SpanFile
spansFromChromeJson(const json::Value &doc)
{
    SpanFile out;
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
            Span span;
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

SpanFile
readSpanFile(const std::string &path)
{
    return spansFromChromeJson(json::parseFile(path));
}

} // namespace skipsim::obs

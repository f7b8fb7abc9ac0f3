/**
 * @file
 * Per-request lifecycle spans for the cluster simulator. A SpanLog
 * records, in simulated time, every stage a request passes through on
 * its way from arrival to completion — router queue wait, the routing
 * decision itself, prefill-admission wait, KV-tier fetch stalls,
 * prefill compute, the prefill->decode handoff of a disaggregated
 * fleet, per-iteration decode — as a parent/child span tree rooted at
 * one "request" span per request.
 *
 * The span model has two levels:
 *
 *  - Stage spans (parent = the request root) exactly partition the
 *    request's end-to-end interval: consecutive stages share a
 *    boundary instant, the first begins at arrival and the last ends
 *    at completion, with no overlap and no gap. A fault restart
 *    replaces the aborted attempt's stages with one "disrupted" span
 *    so the partition survives re-routing. check::checkSpans enforces
 *    this.
 *  - Child spans (parent = a stage) annotate without partitioning:
 *    a zero-duration "route" span carrying the chosen replica and the
 *    policy reason, and one "decode_iter" span per decode iteration
 *    the request participated in.
 *
 * Determinism contract: a scenario is simulated single-threaded, so
 * requests seal (complete) in event order — a pure function of the
 * spec and seed via the engine's (time, priority, seq) ordering.
 * Span ids are assigned at seal time in that order, which makes the
 * export byte-identical at any --jobs, the same contract the report
 * and obs JSON already honour. Requests that never complete within
 * the horizon are never sealed and do not appear in the export.
 *
 * The Chrome export writes stage/child spans as "X" events (category
 * "cpu_op" so trace::readChromeFile and skipctl validate parse them;
 * exact nanoseconds ride in args.ts_ns/dur_ns) on one track per
 * replica (tid = replica + 1; tid 0 is the router track), plus a
 * "b"/"e" async pair per request for the per-request flow — Perfetto
 * renders those as one row per request id; our reader skips unknown
 * phases by design. The export and the readers run the trace codec's
 * machinery (json::Emitter out, json::Reader in; see
 * trace/chrome_codec.hh), so no json::Value is built per span on the
 * text paths; toChromeJson and spansFromChromeJson are the same
 * encoder and decoder with a document as output or input.
 */

#ifndef SKIPSIM_OBS_SPAN_HH
#define SKIPSIM_OBS_SPAN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/value.hh"

namespace skipsim::obs
{

/** @name Stage names
 *  Top-level stages partition [arrival, completion]; route and
 *  decode_iter are child annotations.
 *  @{ */
inline constexpr const char *kStageRequest = "request";
inline constexpr const char *kStageQueue = "queue";
inline constexpr const char *kStagePrefillWait = "prefill_wait";
inline constexpr const char *kStageKvFetch = "kv_fetch";
inline constexpr const char *kStagePrefill = "prefill";
inline constexpr const char *kStageHandoff = "handoff";
inline constexpr const char *kStageDecode = "decode";
inline constexpr const char *kStageDisrupted = "disrupted";
inline constexpr const char *kSpanRoute = "route";
inline constexpr const char *kSpanDecodeIter = "decode_iter";
/** @} */

/** One sealed lifecycle span. */
struct Span
{
    /** Globally unique id, assigned in seal order (deterministic). */
    std::int64_t id = 0;

    /** Parent span id; -1 marks a request root. */
    std::int64_t parent = -1;

    /** Request index the span belongs to. */
    std::int64_t request = -1;

    /** Stage name (see the kStage* constants). */
    std::string stage;

    std::int64_t beginNs = 0;
    std::int64_t durNs = 0;

    /** Replica the span is bound to; -1 = router/cluster level. */
    int replica = -1;

    /** Free-form annotation (route reason, decode batch size). */
    std::string detail;
};

/** Per-request lifecycle span recorder; see file comment. */
class SpanLog
{
  public:
    SpanLog() = default;
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** @name Recording hooks (called by the cluster simulator)
     *  @{ */
    /** Request @p id arrived: open the root and the queue stage. */
    void onArrival(std::size_t id, double tNs);

    /** The router picked @p replica (annotated with @p reason). */
    void onRoute(std::size_t id, double tNs, int replica,
                 const std::string &reason);

    /**
     * The replica engine admitted the request. @p stallNs is the
     * synchronous KV-tier transfer charged by the admission; it is
     * carved out of the front of the following stage as a kv_fetch
     * stage, clamped to the stage's close (the stall is charged to
     * the admitting iteration before duration scaling, so the raw
     * stall can outlast the scaled stage). @p decodeEntry marks a
     * decode-pool entry (closes handoff), a plain admission closes
     * prefill_wait.
     */
    void onAdmit(std::size_t id, double tNs, double stallNs,
                 bool decodeEntry);

    /** First token served: prefill closes, decode opens. */
    void onFirstToken(std::size_t id, double tNs);

    /**
     * A prefill-pool replica starts shipping the KV to the decode
     * pool. Fired at the first-token instant; the just-opened decode
     * stage becomes the handoff stage (which later absorbs the lane
     * transfer, decode routing and decode-pool queue wait until
     * onAdmit(decodeEntry=true)).
     */
    void onHandoffStart(std::size_t id, double tNs);

    /** The request decoded one token in iteration [begin, end). */
    void onDecodeIter(std::size_t id, double beginNs, double endNs,
                      int batch);

    /**
     * A fault restarted the request: the current attempt's stages are
     * replaced by one disrupted stage [segment start, @p tNs) and a
     * fresh queue stage opens (the cluster re-dispatches next).
     */
    void onRestart(std::size_t id, double tNs);

    /** Request finished: close decode and the root, seal the spans. */
    void onComplete(std::size_t id, double tNs);
    /** @} */

    /** Exported metadata (skipsimMeta; string values only). */
    void setMeta(const std::string &key, const std::string &value);

    /** Metadata set so far. */
    const std::map<std::string, std::string> &meta() const { return _meta; }

    /** Requests sealed so far. */
    std::size_t requestCount() const { return _sealedRequests; }

    /** All sealed spans, in seal order (roots first per request). */
    const std::vector<Span> &spans() const { return _sealed; }

    /** @name Chrome-trace export; see file comment for the format.
     *  @{ */
    json::Value toChromeJson() const;
    std::string toChromeText() const;
    void writeChromeFile(const std::string &path) const;
    /** @} */

  private:
    /** A recorded span before sealing; parent is a local index. */
    struct Rec
    {
        int parentLocal = -1;
        std::string stage;
        std::int64_t beginNs = 0;
        std::int64_t durNs = 0;
        int replica = -1;
        std::string detail;
    };

    /** One in-flight request's recording state. */
    struct Journal
    {
        bool active = false;
        std::int64_t arrivalNs = 0;

        /** Current attempt's start (arrival, or the last restart). */
        std::int64_t segStartNs = 0;
        /** First rec of the current attempt (restart truncates here). */
        std::size_t segFirstIdx = 1;

        /** Open stage; empty when none (only transiently). */
        std::string openStage;
        std::int64_t openBeginNs = 0;
        int openReplica = -1;
        /** Deferred kv_fetch carved from the open stage's front. */
        std::int64_t stallNs = 0;

        /** Replica the request is currently routed to. */
        int replica = -1;

        /** recs[0] = the root; closed stages append in time order. */
        std::vector<Rec> recs;
        /** Children of the open stage, appended when it closes. */
        std::vector<Rec> pendingKids;
    };

    Journal &journal(std::size_t id);
    /** Close the open stage at @p tNs (kv_fetch carve + kids). */
    void closeOpen(Journal &j, std::int64_t tNs);
    void openStage(Journal &j, const char *stage, std::int64_t tNs,
                   int replica, std::int64_t stallNs = 0);

    std::vector<Journal> _journals;
    std::vector<Span> _sealed;
    std::size_t _sealedRequests = 0;
    std::int64_t _nextId = 0;
    std::map<std::string, std::string> _meta;
};

/** A parsed span export: spans plus the skipsimMeta entries. */
struct SpanFile
{
    std::map<std::string, std::string> meta;
    std::vector<Span> spans;
};

/**
 * Read span Chrome-trace text written by SpanLog (the "X" events
 * carrying args.span_id; flow events and foreign records are
 * ignored), straight from its tokens. A syntax error anywhere wins
 * over a malformed event, as if the text were parsed first.
 * @throws skipsim::FatalError on malformed documents, naming the
 *         event index.
 */
SpanFile spansFromChromeText(const std::string &text);

/** spansFromChromeText() over a parsed document. */
SpanFile spansFromChromeJson(const json::Value &doc);

/** File variant of spansFromChromeText(). */
SpanFile readSpanFile(const std::string &path);

/**
 * Chrome-trace text of a parsed span file: what SpanLog::toChromeText
 * writes for the same spans and metadata.
 */
std::string toChromeText(const SpanFile &file);

} // namespace skipsim::obs

#endif // SKIPSIM_OBS_SPAN_HH

/**
 * @file
 * The continuous-batching replica engine shared by the single-replica
 * server (simulateContinuous) and the cluster simulator
 * (simulateCluster), which instantiates one per replica. Before this
 * existed, both carried their own copy of the same discipline —
 * prefill admission under a KV budget, whole-batch decode iterations,
 * TTFT/TPOT bookkeeping — and the copies had already drifted (the
 * cluster had KV admission control, the single-replica path did not;
 * only the single-replica path had chunked prefill).
 *
 * A ReplicaEngine is a core::Process: it owns the replica's queues and
 * KV accounting, schedules its own iteration-end events on the shared
 * core::Engine, and reports request milestones through callbacks so
 * the host keeps its own notion of a request (the cluster reroutes
 * ids across replicas; the single-replica server just counts).
 *
 * Iteration-end events carry a serial number; halt() (crash
 * modelling) bumps the serial so in-flight completions become no-ops,
 * exactly the cancelled-iteration rule the cluster simulator used.
 */

#ifndef SKIPSIM_SERVING_REPLICA_ENGINE_HH
#define SKIPSIM_SERVING_REPLICA_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "serving/continuous.hh"
#include "stats/summary.hh"

namespace skipsim::serving
{

/** One finished batching iteration, reported via Callbacks. */
struct IterationInfo
{
    double beginNs = 0.0;
    double endNs = 0.0;

    /** Dedicated prefill iteration (non-chunked admission). */
    bool prefill = false;
    /** Sequences prefilled by a dedicated prefill iteration. */
    int prefillBatch = 0;

    /** Active sequences that decoded one token this iteration. */
    int decodeBatch = 0;

    /** A prompt chunk was co-scheduled (chunked-prefill mode). */
    bool chunk = false;
    /** The co-scheduled chunk was the head request's last. */
    bool chunkFinished = false;

    /** Tokens emitted by this iteration (first tokens included). */
    int tokens = 0;

    /**
     * The decoding batch as (id, tokens left) pairs — the engine's
     * live active list, valid only for the duration of the
     * onIteration callback (the decode bookkeeping that follows
     * mutates it). Lets hosts attribute the iteration to individual
     * requests (lifecycle spans) without copying per iteration.
     */
    const std::vector<std::pair<std::size_t, int>> *activeIds = nullptr;
};

/** Continuous-batching engine for one replica; see file comment. */
class ReplicaEngine : private core::Process
{
  public:
    struct Config
    {
        /** Iteration latency model (required). */
        const IterationCostModel *cost = nullptr;

        /** Maximum concurrently decoding sequences. */
        int maxActive = 0;

        /** Prompt length of every request (tokens). */
        int promptLen = 0;

        /** Tokens generated per request (>= 1; prefill emits one). */
        int genTokens = 0;

        /** Chunked-prefill size in tokens; 0 disables chunking. */
        int chunkTokens = 0;

        /**
         * KV-cache footprint reserved per admitted sequence and the
         * replica's KV budget. The defaults (0 bytes against an
         * unbounded capacity) disable KV admission control.
         */
        double kvPerSeqBytes = 0.0;
        double kvCapacityBytes = std::numeric_limits<double>::infinity();

        /** No iteration starts at or past this instant. */
        double horizonNs = 0.0;

        /** Queue priority of this replica's iteration-end events. */
        int iterPriority = 1;

        /**
         * Share of request @p id's prompt that must actually be
         * prefilled, (0, 1] — below 1 when a prefix-cache hit covers
         * the rest (multi-turn sessions). Prefill iteration cost
         * scales by the admitted batch's mean share; KV stays
         * reserved in full (conservative admission). Unset means
         * every prompt is cold. Ignored when kvAdmit is set (the
         * admission hook returns the residency-gated share).
         */
        std::function<double(std::size_t id)> prefillFrac;

        /** Outcome of an external KV admission (see kvAdmit). */
        struct KvAdmission
        {
            bool admitted = false;

            /** Synchronous transfer time (KV paging/prefix fetch)
             *  added to the admitting iteration's duration, ns. */
            double stallNs = 0.0;

            /** Residency-gated prefill share for this request,
             *  (0, 1]; decode entrants ignore it. */
            double prefillShare = 1.0;
        };

        /**
         * External KV admission (a two-tier store): when set, it
         * replaces the internal kvPerSeqBytes/kvCapacityBytes budget
         * check — the hook reserves the sequence's KV, pages other
         * entries out to make room, and reports the stall to charge.
         * kvRelease must be set with it; chunked prefill is not
         * supported with an external store.
         */
        std::function<KvAdmission(std::size_t id, double nowNs,
                                  bool decodeEntry)>
            kvAdmit;

        /** Release request @p id's KV reservation (completion). */
        std::function<void(std::size_t id, double nowNs)> kvRelease;

        /**
         * Prefill-pool mode (disaggregated serving): sequences
         * complete right after their first token — the host ships the
         * KV to a decode pool — instead of joining the decode batch.
         */
        bool prefillOnly = false;
    };

    /**
     * Host hooks, all optional. Milestone callbacks fire inside
     * iteration-end processing, in admission order per iteration;
     * onIteration fires first (before any milestone), matching the
     * span-then-bookkeeping order of the pre-refactor cluster.
     */
    struct Callbacks
    {
        /** @p count sequences were admitted at @p nowNs. */
        std::function<void(std::size_t count, double nowNs)> onAdmit;

        /**
         * Request @p id was admitted (fired per request, right after
         * the admission decision). @p stallNs is the synchronous
         * KV-tier transfer the admission charged (0 without an
         * external store); @p decodeEntry marks a decode-pool entry
         * joining the batch directly. Used for lifecycle spans.
         */
        std::function<void(std::size_t id, double nowNs,
                           double stallNs, bool decodeEntry)>
            onAdmitRequest;

        /** Request @p id got its first token (TTFT measured). */
        std::function<void(std::size_t id, double ttftNs, double nowNs)>
            onFirstToken;

        /** Request @p id finished generating (KV already released). */
        std::function<void(std::size_t id, double nowNs)> onComplete;

        /** One iteration finished (reported before milestones). */
        std::function<void(const IterationInfo &)> onIteration;

        /**
         * Map a base iteration latency to simulated time — clock
         * scaling, fault slowdown, timing jitter. Identity when unset.
         * Called once per started iteration, so a host drawing jitter
         * here keeps its RNG stream position a pure function of the
         * iteration sequence.
         */
        std::function<double(double baseNs)> scaleDuration;
    };

    /** @p engine runs this replica's iteration-end events. */
    ReplicaEngine(core::Engine &engine, const Config &config,
                  Callbacks callbacks);

    /**
     * Queue request @p id (arrived at @p arrivalNs) for admission.
     * Does not start an iteration: call maybeStart() afterwards. A
     * halted replica still queues — those requests sink, exactly like
     * dispatches to a crashed-but-undetected replica.
     */
    void enqueue(std::size_t id, double arrivalNs);

    /**
     * Queue request @p id for decode-pool entry (disaggregated
     * serving): its prefill (and first token) happened elsewhere, so
     * on admission it joins the decode batch directly with
     * genTokens - 1 tokens left and never reports a first token here.
     */
    void enqueueDecode(std::size_t id, double arrivalNs);

    /**
     * Start the next iteration if the replica is idle, not halted,
     * before the horizon, and has admissible or active work.
     */
    void maybeStart(double nowNs);

    /**
     * Crash the replica: cancel the in-flight iteration (its end
     * event becomes a no-op) and refuse further starts.
     */
    void halt();

    /**
     * Evict every queued and in-progress request — pending first,
     * then prefilling, then active (the stranding order faults rely
     * on) — releasing all KV. @return the evicted ids.
     */
    std::vector<std::size_t> evictAll();

    std::size_t pendingCount() const
    {
        return _pending.size() + _pendingDecode.size();
    }
    std::size_t activeCount() const { return _active.size(); }
    std::size_t prefillingCount() const { return _prefilling.size(); }
    bool chunkHeadInFlight() const { return _headChunksLeft > 0; }
    bool busy() const { return _busy; }
    bool halted() const { return _halted; }

    double kvBytes() const { return _kvBytes; }
    double peakKvBytes() const { return _peakKvBytes; }

    /** Busy time, after scaleDuration. */
    double busyNs() const { return _busyNs; }
    std::size_t tokensEmitted() const { return _tokensEmitted; }

    /** Decode batch sizes, one sample per decoding iteration. */
    const stats::Summary &activeSizes() const { return _activeSizes; }

    /**
     * Iteration latencies: every iteration in chunked mode (a chunk
     * delays every co-scheduled decode), decode iterations otherwise.
     */
    const stats::Summary &iterLatency() const { return _iterLatency; }

  private:
    void onIterEnd(double tNs, std::uint64_t serial);
    /** @return the scaled iteration duration. */
    double startIteration(double nowNs, double baseNs);
    void completeSeq(std::size_t id, double nowNs);

    Config _cfg;
    Callbacks _cb;

    std::deque<std::pair<std::size_t, double>> _pending;
    std::deque<std::pair<std::size_t, double>> _pendingDecode;
    std::vector<std::pair<std::size_t, double>> _prefilling;
    /** Residency-gated prefill shares, parallel to _prefilling
     *  (kvAdmit mode only). */
    std::vector<double> _prefillShares;
    std::vector<std::pair<std::size_t, int>> _active;

    /** Synchronous KV transfer time accrued by admissions since the
     *  last iteration start; added to the next iteration's base. */
    double _pendingStallNs = 0.0;

    /** Chunked-prefill head-of-line request; arrival < 0 when none. */
    std::size_t _headId = 0;
    double _headArrivalNs = -1.0;
    int _headChunksLeft = 0;
    bool _iterChunkSched = false;

    bool _busy = false;
    bool _halted = false;
    std::uint64_t _serial = 0;
    double _iterBeginNs = 0.0;

    double _kvBytes = 0.0;
    double _peakKvBytes = 0.0;
    double _busyNs = 0.0;
    std::size_t _tokensEmitted = 0;
    stats::Summary _activeSizes;
    stats::Summary _iterLatency;
};

} // namespace skipsim::serving

#endif // SKIPSIM_SERVING_REPLICA_ENGINE_HH

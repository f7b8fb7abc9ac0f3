/**
 * @file
 * The continuous-batching replica engine shared by the single-replica
 * server (simulateContinuous) and the cluster simulator
 * (simulateCluster), which instantiates one per replica: prefill
 * admission, whole-batch decode iterations, chunked prefill and
 * TTFT/TPOT bookkeeping, written once.
 *
 * A ReplicaEngine is passive: it owns the replica's queues, schedules
 * nothing, and calls its ReplicaHost directly, with its replica index,
 * for KV admission and release, iteration scaling and request
 * milestones, so the host keeps its own notion of a request (the
 * cluster reroutes ids across replicas; the single-replica server
 * just counts). The host delivers each iteration end (iterEndNs())
 * back to finishIteration(). KV memory belongs to the host: every
 * admission goes through ReplicaHost::admit, which reserves the
 * sequence's KV (a flat budget or a two-tier store), may refuse, and
 * returns the share of the prompt left to prefill. The default host
 * admits up to maxActive and prefills every prompt in full.
 */

#ifndef SKIPSIM_SERVING_REPLICA_ENGINE_HH
#define SKIPSIM_SERVING_REPLICA_ENGINE_HH

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "serving/continuous.hh"
#include "stats/summary.hh"

namespace skipsim::serving
{

/** One finished batching iteration, reported to ReplicaHost. */
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

    /** Tokens emitted by this iteration (first tokens included). */
    int tokens = 0;

    /**
     * The decoding batch as (id, tokens left) pairs: the engine's live
     * active list, valid only during onIteration. Lets hosts attribute
     * the iteration to requests (lifecycle spans) without a copy.
     */
    const std::vector<std::pair<std::size_t, int>> *activeIds = nullptr;
};

/**
 * What a ReplicaEngine calls: its host, implemented once per server
 * (the cluster, the single-replica recorder). Every method receives
 * the calling engine's replica index. The defaults admit everything
 * with share 1 and no stall, release nothing, scale by identity, and
 * ignore milestones.
 *
 * Call order: onAdmit follows each accepted admit, in queue order. At
 * an iteration end onIteration fires first, then the milestones in
 * batch order; release precedes onComplete for every completion.
 * scaleDuration runs once per started iteration, so a host drawing
 * jitter there keeps its RNG stream position a pure function of the
 * iteration sequence.
 */
class ReplicaHost
{
  public:
    /** Outcome of a KV admission (see admit). */
    struct KvAdmission
    {
        bool admitted = false;

        /** Synchronous transfer time (KV paging/prefix fetch) added
         *  to the admitting iteration's duration, ns. */
        double stallNs = 0.0;

        /**
         * Share of the prompt left to prefill, below 1 when a
         * prefix-cache hit covers the rest; the prefill iteration
         * scales by the batch's mean share, each clamped to
         * [0.05, 1]. Decode entrants ignore it.
         */
        double prefillShare = 1.0;
    };

    // Engines hold the host's address: it is neither copied nor moved.
    ReplicaHost() = default;
    ReplicaHost(const ReplicaHost &) = delete;
    ReplicaHost &operator=(const ReplicaHost &) = delete;

    /**
     * Reserve request @p id's KV (paging other entries out to make
     * room, if the host tiers its store), or refuse and leave it
     * queued until a release. @p decodeEntry marks a decode-pool
     * entry joining the batch directly. A chunked replica accepts
     * only a stall of 0 and a share of 1: chunked prefill does not
     * compose with KV admission.
     */
    virtual KvAdmission
    admit(std::size_t /*replica*/, std::size_t /*id*/, double /*nowNs*/,
          bool /*decodeEntry*/)
    {
        return {true};
    }

    /** Release request @p id's KV reservation (completion). */
    virtual void
    release(std::size_t /*replica*/, std::size_t /*id*/, double /*nowNs*/)
    {
    }

    /**
     * Request @p id was admitted, charging @p stallNs of synchronous
     * KV transfer. Used for lifecycle spans and queue-depth probes.
     */
    virtual void
    onAdmit(std::size_t /*replica*/, std::size_t /*id*/, double /*nowNs*/,
            double /*stallNs*/, bool /*decodeEntry*/)
    {
    }

    /** One iteration finished (reported before milestones). */
    virtual void
    onIteration(std::size_t /*replica*/, const IterationInfo & /*info*/)
    {
    }

    /** Request @p id got its first token (TTFT measured). */
    virtual void
    onFirstToken(std::size_t /*replica*/, std::size_t /*id*/,
                 double /*ttftNs*/, double /*nowNs*/)
    {
    }

    /** Request @p id finished generating (KV already released). */
    virtual void
    onComplete(std::size_t /*replica*/, std::size_t /*id*/,
               double /*nowNs*/)
    {
    }

    /**
     * Map a base iteration latency (pending stall included) to
     * simulated time — clock scaling, fault slowdown, timing jitter.
     */
    virtual double
    scaleDuration(std::size_t /*replica*/, double baseNs)
    {
        return baseNs;
    }
};

/** Continuous-batching engine for one replica; see file comment. */
class ReplicaEngine
{
  public:
    struct Config
    {
        /** Iteration latency model (required); its promptLen() is
         *  every request's prompt length. */
        const IterationCostModel *cost = nullptr;

        /** Maximum concurrently decoding sequences. */
        int maxActive = 0;

        /** Tokens generated per request (>= 1; prefill emits one). */
        int genTokens = 0;

        /** Chunked-prefill size in tokens; 0 disables chunking. */
        int chunkTokens = 0;

        /** No iteration starts at or past this instant. */
        double horizonNs = 0.0;

        /**
         * Prefill-pool mode (disaggregated serving): sequences
         * complete right after their first token — the host ships the
         * KV to a decode pool — instead of joining the decode batch.
         */
        bool prefillOnly = false;
    };

    /**
     * Replica @p index of @p host, which must outlive the engine.
     * @throws skipsim::FatalError on an invalid @p config.
     */
    ReplicaEngine(const Config &config, ReplicaHost &host,
                  std::size_t index = 0);

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
     * @return whether an iteration started; it ends at iterEndNs().
     */
    bool maybeStart(double nowNs);

    /**
     * The in-flight iteration ended at @p tNs (its iterEndNs()):
     * report it, advance its sequences, then maybeStart(). A no-op on
     * a halted replica. @return whether the next iteration started.
     */
    bool finishIteration(double tNs);

    /** End of the in-flight iteration (meaningful while busy()). */
    double iterEndNs() const { return _iterEndNs; }

    /**
     * Crash the replica, permanently: cancel the in-flight iteration
     * (finishIteration ignores its end) and refuse further starts.
     */
    void halt();

    /**
     * Evict every queued and in-progress request — pending first,
     * then prefilling, then active (the stranding order faults rely
     * on) — without releasing their KV: the host drops its
     * reservations itself. @return the evicted ids.
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

    /** Busy time, after ReplicaHost::scaleDuration. */
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
    /**
     * Admit request @p id through the host, charging its stall and
     * reporting onAdmit. @return its prefill share, or nothing when
     * the host refuses.
     * @throws skipsim::FatalError when a chunked replica's host
     *         charges a stall or a share other than 1.
     */
    std::optional<double> admit(std::size_t id, double nowNs,
                                bool decodeEntry);
    /** @return the scaled iteration duration. */
    double startIteration(double nowNs, double baseNs);
    void completeSeq(std::size_t id, double nowNs);

    Config _cfg;
    ReplicaHost &_host;
    std::size_t _index;

    std::deque<std::pair<std::size_t, double>> _pending;
    std::deque<std::pair<std::size_t, double>> _pendingDecode;
    std::vector<std::pair<std::size_t, double>> _prefilling;
    /** Admitted prefill shares, parallel to _prefilling. */
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
    double _iterBeginNs = 0.0;
    double _iterEndNs = 0.0;

    double _busyNs = 0.0;
    std::size_t _tokensEmitted = 0;
    stats::Summary _activeSizes;
    stats::Summary _iterLatency;

    /** Cost of one prompt chunk, priced once; 0 when not chunking. */
    double _chunkNs = 0.0;
};

} // namespace skipsim::serving

#endif // SKIPSIM_SERVING_REPLICA_ENGINE_HH

/**
 * @file
 * Tests for continuous (iteration-level) batching: the iteration cost
 * model, conservation of requests/tokens, the latency advantage over
 * static batching at moderate load, degenerate configurations, the
 * arrival walk held to the event-driven loop it replaced, and the
 * passive replica engine driven directly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/sweep.hh"
#include "check/event_continuous.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "serving/continuous.hh"
#include "serving/replica_engine.hh"
#include "serving/server_sim.hh"
#include "workload/model_config.hh"

namespace skipsim::serving
{
namespace
{

const workload::ModelConfig kModel = workload::gpt2();
const hw::Platform kPlatform = hw::platforms::gh200();

IterationCostModel &
costModel()
{
    static IterationCostModel model(kModel, kPlatform, 256);
    return model;
}

ContinuousConfig
config(double rate, int max_active = 32, int gen = 8)
{
    ContinuousConfig c;
    c.arrivalRatePerSec = rate;
    c.horizonSec = 10.0;
    c.maxActive = max_active;
    c.genTokens = gen;
    return c;
}

// ------------------------------------------------------------- cost model

TEST(IterationCost, PrefillDominatesDecode)
{
    EXPECT_GT(costModel().prefillNs(1), costModel().decodeNs(1));
    EXPECT_GT(costModel().prefillNs(8), costModel().decodeNs(8));
}

TEST(IterationCost, MonotoneInBatch)
{
    EXPECT_LE(costModel().prefillNs(1), costModel().prefillNs(64));
    EXPECT_LE(costModel().decodeNs(1),
              costModel().decodeNs(64) * 1.05);
}

TEST(IterationCost, InterpolatesAndExtrapolates)
{
    double b8 = costModel().prefillNs(8);
    double b16 = costModel().prefillNs(16);
    double b12 = costModel().prefillNs(12);
    EXPECT_GE(b12, std::min(b8, b16));
    EXPECT_LE(b12, std::max(b8, b16));
    EXPECT_GE(costModel().prefillNs(128), costModel().prefillNs(64));
    EXPECT_THROW(costModel().prefillNs(0), FatalError);
    EXPECT_THROW(IterationCostModel(kModel, kPlatform, 0), FatalError);
}

TEST(IterationCost, TailNeverFallsPastTheGrid)
{
    // BERT's decode curve on AMD+A100 falls slightly from batch 32 to
    // 64; past the grid that falling slope is clamped at 0.
    IterationCostModel bert(workload::modelByName("Bert-Base-Uncased"),
                            hw::platforms::amdA100(), 128);
    EXPECT_LT(bert.decodeNs(64), bert.decodeNs(32));
    EXPECT_GE(bert.decodeNs(128), bert.decodeNs(64));
    EXPECT_GE(bert.prefillNs(128), bert.prefillNs(64));
}

// ------------------------------------------------------------- simulation

TEST(Continuous, ConservesRequests)
{
    ContinuousResult result =
        simulateContinuous(costModel(), config(20.0));
    EXPECT_GT(result.completed, 0u);
    // Everything that arrived is either done or counted unfinished.
    EXPECT_GT(result.completed + result.unfinished, 100u);
    EXPECT_GT(result.tokensPerSec, 0.0);
    EXPECT_LE(result.p50TtftNs, result.p99TtftNs);
}

TEST(Continuous, SingleTokenRequestsCompleteAtPrefill)
{
    ContinuousResult result =
        simulateContinuous(costModel(), config(20.0, 32, 1));
    EXPECT_GT(result.completed, 0u);
    EXPECT_DOUBLE_EQ(result.meanTpotNs, 0.0); // no decode iterations

    // Chunked, every iteration is a prompt chunk: there is no decode
    // batch to average, so meanActive reads 0.
    ContinuousConfig chunked = config(20.0, 32, 1);
    chunked.chunkTokens = 64;
    ContinuousResult c = simulateContinuous(costModel(), chunked);
    EXPECT_GT(c.completed, 0u);
    EXPECT_DOUBLE_EQ(c.meanActive, 0.0);
}

TEST(Continuous, ActiveSetGrowsWithLoad)
{
    ContinuousResult light =
        simulateContinuous(costModel(), config(10.0));
    ContinuousResult heavy =
        simulateContinuous(costModel(), config(500.0));
    EXPECT_GT(heavy.meanActive, light.meanActive);
    EXPECT_GT(heavy.tokensPerSec, light.tokensPerSec);
}

TEST(Continuous, CapacityCapRespected)
{
    ContinuousResult result =
        simulateContinuous(costModel(), config(2000.0, 4));
    EXPECT_LE(result.meanActive, 4.0 + 1e-9);
}

TEST(Continuous, DeterministicGivenSeed)
{
    ContinuousResult a = simulateContinuous(costModel(), config(50.0));
    ContinuousResult b = simulateContinuous(costModel(), config(50.0));
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p99TtftNs, b.p99TtftNs);
}

TEST(Continuous, TtftBoundedWithinCapacity)
{
    // Within decode capacity (demand = rate x genTokens tokens/s must
    // stay under maxActive / decodeNs(maxActive)), requests never wait
    // behind a full static batch: p99 TTFT stays within a few
    // iteration times of the prefill cost.
    double capacity_tps =
        32.0 / (costModel().decodeNs(32) / 1e9);
    double rate = 0.3 * capacity_tps / 8.0; // 30% utilization
    ContinuousResult result =
        simulateContinuous(costModel(), config(rate));
    // Only the in-flight tail at the horizon may be unfinished.
    EXPECT_LE(result.unfinished, 2u * 32u);
    EXPECT_LT(result.p99TtftNs,
              8.0 * costModel().prefillNs(32));
}

TEST(Continuous, OverloadLeavesWorkUnfinished)
{
    double capacity_tps =
        32.0 / (costModel().decodeNs(32) / 1e9);
    double rate = 4.0 * capacity_tps / 8.0; // 4x overload
    ContinuousResult result =
        simulateContinuous(costModel(), config(rate));
    EXPECT_GT(result.unfinished, 0u);
    // Throughput saturates near the decode capacity.
    EXPECT_LT(result.tokensPerSec, 1.3 * capacity_tps);
}

TEST(Continuous, InvalidConfigsThrow)
{
    EXPECT_THROW(simulateContinuous(costModel(), config(0.0)),
                 FatalError);
    EXPECT_THROW(simulateContinuous(costModel(), config(10.0, 0)),
                 FatalError);
    ContinuousConfig bad = config(10.0);
    bad.genTokens = 0;
    EXPECT_THROW(simulateContinuous(costModel(), bad), FatalError);
    bad = config(10.0);
    bad.horizonSec = 0.0;
    EXPECT_THROW(simulateContinuous(costModel(), bad), FatalError);

    // Non-finite rates and horizons would never end the arrival draw.
    const double inf = std::numeric_limits<double>::infinity();
    for (double v : {inf, std::nan("")}) {
        EXPECT_THROW(simulateContinuous(costModel(), config(v)),
                     FatalError);
        bad = config(10.0);
        bad.horizonSec = v;
        EXPECT_THROW(simulateContinuous(costModel(), bad), FatalError);
    }

    // A negative chunk size is an error, not an unchunked run.
    bad = config(10.0);
    bad.chunkTokens = -1;
    try {
        simulateContinuous(costModel(), bad);
        ADD_FAILURE() << "accepted chunkTokens -1";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("chunkTokens"),
                  std::string::npos)
            << err.what();
    }
    ReplicaEngine::Config rc;
    rc.cost = &costModel();
    rc.maxActive = 4;
    rc.genTokens = 4;
    rc.chunkTokens = -1;
    ReplicaHost host;
    EXPECT_THROW(ReplicaEngine(rc, host), FatalError);
}

TEST(Continuous, RunawayArrivalCountsHitTheWorkBudget)
{
    try {
        simulateContinuous(costModel(), config(1e12));
        ADD_FAILURE() << "accepted 1e12 req/s";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "arrivalRatePerSec * horizonSec"),
                  std::string::npos)
            << err.what();
    }
    ContinuousConfig bad = config(10.0);
    bad.horizonSec = 1e12;
    EXPECT_THROW(simulateContinuous(costModel(), bad), FatalError);
}

TEST(Continuous, MatchesTheEventDrivenOracle)
{
    // The arrival walk against the event-driven loop it replaced:
    // every result field bit for bit, and the obs JSON and spans byte
    // for byte. The grid spans idle to heavy overload, one-slot
    // batches, single-token requests, chunks of one token, of a whole
    // prompt and of one token more, and a horizon too short for most
    // runs to see a request.
    bool saw_empty = false;
    bool saw_unfinished = false;
    bool saw_chunked = false;
    for (double rate : {0.5, 40.0, 400.0, 4000.0})
        for (int max_active : {1, 4, 32})
            for (int gen : {1, 3, 16})
                for (int chunk : {0, 1, 96, 256, 257})
                    for (double horizon : {0.01, 0.2})
                        for (std::uint64_t seed : {1u, 7u}) {
                            ContinuousConfig c =
                                config(rate, max_active, gen);
                            c.chunkTokens = chunk;
                            c.horizonSec = horizon;
                            c.seed = seed;
                            SCOPED_TRACE(testing::Message()
                                         << "rate " << rate
                                         << ", max active " << max_active
                                         << ", gen " << gen << ", chunk "
                                         << chunk << ", horizon "
                                         << horizon << ", seed " << seed);
                            EXPECT_EQ(check::diffContinuous(costModel(), c),
                                      "");
                            ContinuousResult r =
                                simulateContinuous(costModel(), c);
                            saw_empty |= r.completed == 0 &&
                                r.unfinished == 0 && r.p50TtftNs == 0.0;
                            saw_unfinished |= r.unfinished > 0;
                            saw_chunked |= chunk > 0 && r.completed > 0;
                        }
    EXPECT_TRUE(saw_empty);
    EXPECT_TRUE(saw_unfinished);
    EXPECT_TRUE(saw_chunked);
}

TEST(Continuous, AnArrivalOnAnIterationEndJoinsTheIterationItStarts)
{
    // Request 1 arrives exactly as request 0's prefill ends. The walk
    // handles the arrival before the iteration end, so the iteration
    // that end starts prefills request 1 (its TTFT is one batch-1
    // prefill) rather than decoding request 0 ahead of it.
    const double prefill = costModel().prefillNs(1);
    const std::vector<double> arrivals = {0.0, prefill};
    ContinuousConfig c = config(1.0, 4, 4);
    c.horizonSec = 1.0;
    ContinuousResult r = walkContinuous(costModel(), c, arrivals);
    EXPECT_EQ(r.completed, 2u);
    EXPECT_EQ(r.p50TtftNs, prefill);
    EXPECT_EQ(r.p99TtftNs, prefill);
    // The event-driven loop breaks the tie the same way, bit for bit.
    EXPECT_EQ(check::diffContinuous(costModel(), c, arrivals), "");
}

// ---------------------------------------------------------- replica engine

ReplicaEngine::Config
engineConfig(int max_active = 4)
{
    ReplicaEngine::Config c;
    c.cost = &costModel();
    c.maxActive = max_active;
    c.genTokens = 4;
    c.horizonNs = 1e12;
    return c;
}

/** A host admitting request id with share shares[id]. */
struct ShareHost : ReplicaHost
{
    std::vector<double> shares;
    /** Duration of the last finished iteration. */
    double iterNs = -1.0;

    KvAdmission
    admit(std::size_t, std::size_t id, double, bool) override
    {
        return {true, 0.0, shares[id]};
    }

    void
    onIteration(std::size_t, const IterationInfo &info) override
    {
        EXPECT_TRUE(info.prefill);
        iterNs = info.endNs - info.beginNs;
    }
};

TEST(ReplicaEngine, RefusedAdmissionKeepsTheRequestQueued)
{
    struct RefusingHost : ReplicaHost
    {
        int asked = 0;
        int admitted = 0;

        KvAdmission
        admit(std::size_t, std::size_t, double, bool) override
        {
            ++asked;
            return {};
        }

        void
        onAdmit(std::size_t, std::size_t, double, double, bool) override
        {
            ++admitted;
        }
    } host;
    ReplicaEngine replica(engineConfig(), host);
    replica.enqueue(0, 0.0);
    EXPECT_FALSE(replica.maybeStart(0.0)); // no iteration to end
    EXPECT_EQ(host.asked, 1);
    EXPECT_EQ(host.admitted, 0);
    EXPECT_EQ(replica.pendingCount(), 1u);
    EXPECT_EQ(replica.prefillingCount(), 0u);
    EXPECT_FALSE(replica.busy());
}

TEST(ReplicaEngine, HookShareScalesThePrefillClampedBelow)
{
    // Iteration durations for one prefill batch with the given shares.
    auto prefill_ns = [](const std::vector<double> &shares) {
        ShareHost host;
        host.shares = shares;
        ReplicaEngine replica(engineConfig(), host);
        for (std::size_t id = 0; id < shares.size(); ++id)
            replica.enqueue(id, 0.0);
        EXPECT_TRUE(replica.maybeStart(0.0));
        const double end = replica.iterEndNs();
        replica.finishIteration(end);
        EXPECT_DOUBLE_EQ(host.iterNs, end);
        return host.iterNs;
    };
    const IterationCostModel &cost = costModel();
    EXPECT_DOUBLE_EQ(prefill_ns({1.0}), cost.prefillNs(1));
    EXPECT_DOUBLE_EQ(prefill_ns({0.5}), cost.prefillNs(1) * 0.5);
    // 0.01 clamps to 0.05; the batch scales by its mean share.
    EXPECT_DOUBLE_EQ(prefill_ns({0.01}), cost.prefillNs(1) * 0.05);
    EXPECT_DOUBLE_EQ(prefill_ns({0.5, 0.01}),
                     cost.prefillNs(2) * ((0.5 + 0.05) / 2.0));
}

TEST(ReplicaEngine, WithoutAHookAdmitsUpToMaxActive)
{
    // Only onAdmit is overridden: admission is the default host's.
    struct AdmitLog : ReplicaHost
    {
        std::vector<std::size_t> admitted;

        void
        onAdmit(std::size_t, std::size_t id, double, double stall_ns,
                bool decode_entry) override
        {
            admitted.push_back(id);
            EXPECT_EQ(stall_ns, 0.0);
            EXPECT_FALSE(decode_entry);
        }
    } host;
    ReplicaEngine replica(engineConfig(3), host);
    for (std::size_t id = 0; id < 5; ++id)
        replica.enqueue(id, 0.0);
    EXPECT_TRUE(replica.maybeStart(0.0));
    EXPECT_EQ(host.admitted, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(replica.prefillingCount(), 3u);
    EXPECT_EQ(replica.pendingCount(), 2u);
    EXPECT_TRUE(replica.busy());
    EXPECT_FALSE(replica.maybeStart(0.0)); // one iteration at a time
}

TEST(ReplicaEngine, ConstructorRejectsHookMisuse)
{
    ReplicaHost plain;
    ReplicaEngine::Config chunked = engineConfig();
    chunked.chunkTokens = 16;
    ReplicaEngine::Config pool = chunked;
    pool.prefillOnly = true;
    EXPECT_THROW(ReplicaEngine(pool, plain), FatalError);

    // Chunked prefill does not compose with KV admission: the engine
    // constructs, and the first admission with a share below 1 (or a
    // stall) throws.
    ShareHost half;
    half.shares = {0.5};
    ReplicaEngine replica(chunked, half);
    replica.enqueue(0, 0.0);
    EXPECT_THROW(replica.maybeStart(0.0), FatalError);

    struct StallHost : ReplicaHost
    {
        KvAdmission
        admit(std::size_t, std::size_t, double, bool) override
        {
            return {true, 10.0, 1.0};
        }
    } stall;
    ReplicaEngine stalled(chunked, stall);
    stalled.enqueue(0, 0.0);
    EXPECT_THROW(stalled.maybeStart(0.0), FatalError);

    // Full share and no stall is the default host: chunking runs.
    ReplicaEngine fine(chunked, plain);
    fine.enqueue(0, 0.0);
    EXPECT_TRUE(fine.maybeStart(0.0));
}

TEST(ReplicaEngine, HaltedReplicaIgnoresItsInFlightIterationEnd)
{
    struct CountingHost : ReplicaHost
    {
        int fired = 0;

        void
        onIteration(std::size_t, const IterationInfo &) override
        {
            ++fired;
        }

        void
        onFirstToken(std::size_t, std::size_t, double, double) override
        {
            ++fired;
        }

        void
        onComplete(std::size_t, std::size_t, double) override
        {
            ++fired;
        }
    } host;
    ReplicaEngine replica(engineConfig(), host);
    replica.enqueue(0, 0.0);
    ASSERT_TRUE(replica.maybeStart(0.0));
    const double end = replica.iterEndNs();
    const std::size_t tokens = replica.tokensEmitted();

    replica.halt();
    EXPECT_FALSE(replica.finishIteration(end));
    EXPECT_EQ(host.fired, 0);
    EXPECT_EQ(replica.tokensEmitted(), tokens);
    EXPECT_FALSE(replica.busy());
    // The crash is permanent: the queued prefill never starts again.
    EXPECT_FALSE(replica.maybeStart(end));
    EXPECT_EQ(replica.prefillingCount(), 1u);
}

TEST(ReplicaEngine, CallsItsHostInContractOrder)
{
    // A host that logs every call. Admission charges a stall of
    // 100 (id + 1) ns, refuses request 2 the first time it is asked,
    // and doubles every iteration's duration.
    struct RecordingHost : ReplicaHost
    {
        std::vector<std::string> log;
        std::vector<double> scaled; ///< bases passed to scaleDuration
        bool refused2 = false;

        KvAdmission
        admit(std::size_t replica, std::size_t id, double,
              bool) override
        {
            EXPECT_EQ(replica, 7u);
            log.push_back("admit " + std::to_string(id));
            if (id == 2 && !refused2) {
                refused2 = true;
                return {};
            }
            return {true, 100.0 * static_cast<double>(id + 1), 1.0};
        }

        void
        release(std::size_t, std::size_t id, double) override
        {
            log.push_back("release " + std::to_string(id));
        }

        void
        onAdmit(std::size_t, std::size_t id, double, double stall_ns,
                bool) override
        {
            EXPECT_EQ(stall_ns, 100.0 * static_cast<double>(id + 1));
            log.push_back("onAdmit " + std::to_string(id));
        }

        void
        onIteration(std::size_t, const IterationInfo &info) override
        {
            log.push_back(info.prefill ? "prefill" : "decode");
        }

        void
        onFirstToken(std::size_t, std::size_t id, double, double) override
        {
            log.push_back("first " + std::to_string(id));
        }

        void
        onComplete(std::size_t, std::size_t id, double) override
        {
            log.push_back("complete " + std::to_string(id));
        }

        double
        scaleDuration(std::size_t, double base_ns) override
        {
            log.push_back("scale");
            scaled.push_back(base_ns);
            return 2.0 * base_ns;
        }
    } host;

    ReplicaEngine::Config c = engineConfig(3);
    c.genTokens = 2;
    ReplicaEngine replica(c, host, 7);
    for (std::size_t id = 0; id < 3; ++id)
        replica.enqueue(id, 0.0);
    int iterations = 0;
    for (bool busy = replica.maybeStart(0.0); busy; ++iterations) {
        const double end = replica.iterEndNs();
        busy = replica.finishIteration(end);
    }

    const std::vector<std::string> expected = {
        // Queue order; request 2 is refused, so no onAdmit.
        "admit 0", "onAdmit 0", "admit 1", "onAdmit 1", "admit 2",
        "scale",
        // Iteration first, then first tokens; 2 is asked again.
        "prefill", "first 0", "first 1", "admit 2", "onAdmit 2",
        "scale",
        "prefill", "first 2", "scale",
        // Every completion releases its KV first.
        "decode", "release 0", "complete 0", "release 1",
        "complete 1", "release 2", "complete 2"};
    EXPECT_EQ(host.log, expected);
    EXPECT_EQ(iterations, 3);

    // Once per started iteration, each with its pending stall added.
    const IterationCostModel &cost = costModel();
    const std::vector<double> bases = {cost.prefillNs(2) + 300.0,
                                       cost.prefillNs(1) + 300.0,
                                       cost.decodeNs(3)};
    EXPECT_EQ(host.scaled, bases);
    // The engine runs on the host's durations.
    EXPECT_DOUBLE_EQ(replica.busyNs(),
                     2.0 * (bases[0] + bases[1] + bases[2]));
}

} // namespace
} // namespace skipsim::serving

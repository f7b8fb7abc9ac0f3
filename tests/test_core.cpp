/**
 * @file
 * Core engine tests. Two halves:
 *
 *  1. Golden-output contract: the sim / serving / continuous / cluster
 *     engines must reproduce the byte-identical outputs recorded in
 *     tests/data/golden_*.json before the port onto skipsim::core.
 *     The cluster golden is additionally checked at --jobs 1 and
 *     --jobs 8 (exec::Pool fan-out), extending the determinism
 *     contract from PRs 1-3 across the refactor. Regenerate with
 *     SKIPSIM_REGOLD=1 (writes into tests/data/) — only legitimate
 *     when a change intentionally alters simulation semantics.
 *
 *  2. Unit tests of the core primitives themselves (EventQueue
 *     ordering under colliding timestamps, Clock, RngStreams,
 *     FifoResource, Engine loop).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sweep.hh"
#include "check/closure_queue.hh"
#include "check/invariants.hh"
#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/clock.hh"
#include "core/engine.hh"
#include "core/event_queue.hh"
#include "core/resource.hh"
#include "core/rng_stream.hh"
#include "exec/pool.hh"
#include "hw/catalog.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "obs/collector.hh"
#include "serving/continuous.hh"
#include "serving/latency_model.hh"
#include "serving/server_sim.hh"
#include "sim/simulator.hh"
#include "trace/chrome.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

#include "start_line.hh"

#ifndef SKIPSIM_TESTS_DATA_DIR
#define SKIPSIM_TESTS_DATA_DIR "tests/data"
#endif

using namespace skipsim;

namespace
{

std::string
goldenPath(const std::string &name)
{
    return std::string(SKIPSIM_TESTS_DATA_DIR) + "/" + name;
}

bool
regoldRequested()
{
    const char *env = std::getenv("SKIPSIM_REGOLD");
    return env != nullptr && *env != '\0';
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Compare @p produced against the golden file (or rewrite it). */
void
checkGolden(const std::string &name, const std::string &produced)
{
    const std::string path = goldenPath(name);
    if (regoldRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << produced;
        SUCCEED() << "regolded " << path;
        return;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << path
        << " (record with SKIPSIM_REGOLD=1)";
    // Byte-identical, not approximately equal: the refactored engines
    // must reproduce the pre-port generative process exactly.
    EXPECT_EQ(expected, produced) << "golden mismatch: " << name;
}

// ------------------------------------------------------------------ sim

/**
 * The simulator golden runs with jitter enabled so the trace pins the
 * RNG draw order (one gaussian per jittered duration), not just the
 * deterministic arithmetic.
 */
std::string
simGoldenText()
{
    workload::BuildOptions opts;
    opts.batch = 2;
    opts.seqLen = 128;
    workload::OperatorGraph graph =
        workload::buildPrefillGraph(workload::modelByName("GPT2"), opts);

    sim::SimOptions sim_opts;
    sim_opts.seed = 7;
    sim_opts.jitter = true;
    sim::Simulator simulator(hw::platforms::gh200(), sim_opts);
    sim::SimResult result = simulator.run(graph);

    // Summary scalars ride along as trace meta so the golden stays one
    // valid Chrome-trace document (skipctl validate re-parses it). The
    // kernel count and busy time are read off the trace, the way
    // skip::computeMetrics derives them.
    std::size_t num_kernels = 0;
    double gpu_busy_ns = 0.0;
    for (const trace::TraceEvent &ev : result.trace.events()) {
        if (ev.kind == trace::EventKind::Kernel) {
            ++num_kernels;
            gpu_busy_ns += static_cast<double>(ev.durNs);
        }
    }
    result.trace.setMeta("wall_ns", std::to_string(result.wallNs));
    result.trace.setMeta("num_kernels", std::to_string(num_kernels));
    result.trace.setMeta("gpu_busy_ns", std::to_string(gpu_busy_ns));
    return trace::toChromeText(result.trace);
}

TEST(GoldenOutputs, SimTraceByteIdentical)
{
    const std::string text = simGoldenText();
    checkGolden("golden_sim_trace.json", text);
    // Byte-identity freezes one output; the semantic invariants must
    // hold on the re-parsed document too (causality, stream FIFO,
    // correlation bijection, non-negative queue depth).
    check::TraceCheckReport report =
        check::validateTrace(trace::fromChromeText(text));
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_GT(report.pairsChecked, 0u);
}

// -------------------------------------------------------------- serving

analysis::SweepResult
linearSweep(double base_ns, double slope_ns)
{
    analysis::SweepResult sweep;
    sweep.modelName = "synthetic";
    sweep.platformName = "test";
    for (int batch : {1, 2, 4, 8, 16, 32}) {
        analysis::SweepPoint point;
        point.batch = batch;
        point.metrics.ilNs = base_ns + slope_ns * batch;
        sweep.points.push_back(point);
    }
    return sweep;
}

json::Value
servingResultJson(const serving::ServingResult &result)
{
    json::Object doc;
    doc.set("completed",
            static_cast<unsigned long long>(result.completed));
    doc.set("throughput_rps", result.throughputRps);
    doc.set("p50_latency_ns", result.p50LatencyNs);
    doc.set("p95_latency_ns", result.p95LatencyNs);
    doc.set("p99_latency_ns", result.p99LatencyNs);
    doc.set("mean_latency_ns", result.meanLatencyNs);
    doc.set("p50_ttft_ns", result.p50TtftNs);
    doc.set("mean_batch", result.meanBatch);
    doc.set("utilization", result.utilization);
    doc.set("left_in_queue",
            static_cast<unsigned long long>(result.leftInQueue));
    return json::Value(std::move(doc));
}

TEST(GoldenOutputs, ServingResultAndObsByteIdentical)
{
    serving::LatencyModel latency(linearSweep(2e6, 1e5));
    serving::ServingConfig config;
    config.arrivalRatePerSec = 200.0;
    config.horizonSec = 2.0;
    config.maxBatch = 8;

    obs::Collector collector(50.0);
    serving::ServingResult result =
        serving::simulateServing(latency, config, &collector);

    json::Object doc;
    doc.set("result", servingResultJson(result));
    doc.set("obs", collector.toJson());
    checkGolden("golden_serving.json",
                json::write(json::Value(std::move(doc))) + "\n");
}

// ----------------------------------------------------------- continuous

json::Value
continuousResultJson(const serving::ContinuousResult &result)
{
    json::Object doc;
    doc.set("completed",
            static_cast<unsigned long long>(result.completed));
    doc.set("p50_ttft_ns", result.p50TtftNs);
    doc.set("p99_ttft_ns", result.p99TtftNs);
    doc.set("mean_tpot_ns", result.meanTpotNs);
    doc.set("tokens_per_sec", result.tokensPerSec);
    doc.set("mean_active", result.meanActive);
    doc.set("unfinished",
            static_cast<unsigned long long>(result.unfinished));
    return json::Value(std::move(doc));
}

TEST(GoldenOutputs, ContinuousResultAndObsByteIdentical)
{
    serving::IterationCostModel cost(workload::modelByName("GPT2"),
                                     hw::platforms::gh200(), 64);

    serving::ContinuousConfig config;
    config.arrivalRatePerSec = 100.0;
    config.horizonSec = 1.0;
    config.maxActive = 8;
    config.genTokens = 4;

    obs::Collector plain_obs(50.0);
    serving::ContinuousResult plain =
        serving::simulateContinuous(cost, config, &plain_obs);

    // Sarathi-style chunked prefill exercises the mixed
    // chunk+decode iteration path.
    serving::ContinuousConfig chunked_config = config;
    chunked_config.chunkTokens = 16;
    obs::Collector chunked_obs(50.0);
    serving::ContinuousResult chunked =
        serving::simulateContinuous(cost, chunked_config, &chunked_obs);

    json::Object doc;
    doc.set("plain", continuousResultJson(plain));
    doc.set("plain_obs", plain_obs.toJson());
    doc.set("chunked", continuousResultJson(chunked));
    doc.set("chunked_obs", chunked_obs.toJson());
    checkGolden("golden_continuous.json",
                json::write(json::Value(std::move(doc))) + "\n");
}

// -------------------------------------------------------------- cluster

/**
 * A heterogeneous two-replica fleet with opt-in service jitter and all
 * three fault kinds, swept over three arrival rates: the widest
 * behavioral surface of the cluster engine in one golden.
 */
cluster::ClusterSpec
goldenClusterSpec()
{
    cluster::ClusterSpec spec;
    spec.model = workload::modelByName("GPT2");

    cluster::ReplicaSpec fast;
    fast.platform = hw::platforms::gh200();
    fast.maxActive = 16;
    spec.replicas.push_back(fast);

    cluster::ReplicaSpec slow;
    slow.platform = hw::platforms::intelH100();
    slow.maxActive = 16;
    slow.maxQueue = 64;
    spec.replicas.push_back(slow);

    spec.rates = {40.0, 60.0, 80.0};
    spec.horizonSec = 3.0;
    spec.promptLen = 128;
    spec.genTokens = 8;
    spec.sessions = 16;
    spec.jitterFrac = 0.05;

    cluster::FaultSpec crash;
    crash.atSec = 1.0;
    crash.replica = 0;
    crash.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(crash);

    cluster::FaultSpec slowdown;
    slowdown.atSec = 0.5;
    slowdown.replica = 1;
    slowdown.kind = cluster::FaultKind::Slowdown;
    slowdown.factor = 1.5;
    spec.faults.push_back(slowdown);

    cluster::FaultSpec partition;
    partition.atSec = 0.25;
    partition.replica = 1;
    partition.kind = cluster::FaultKind::Partition;
    partition.healSec = 0.75;
    spec.faults.push_back(partition);
    return spec;
}

/** Run the golden rate sweep with @p jobs workers; report + obs JSON. */
std::string
clusterSweepText(const cluster::ClusterSpec &spec,
                 const cluster::CostCache &costs, int jobs)
{
    const std::size_t n = spec.scenarioCount();
    std::vector<cluster::ClusterResult> results(n);
    std::vector<std::unique_ptr<obs::Collector>> collectors(n);
    for (std::size_t i = 0; i < n; ++i)
        collectors[i] = std::make_unique<obs::Collector>(100.0);

    exec::Pool pool(jobs);
    testutil::StartLine line(pool, n);
    pool.run(n, [&](std::size_t i) {
        line.arrive();
        results[i] = cluster::simulateCluster(spec.scenarioAt(i), costs,
                                              collectors[i].get());
    });

    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        out += json::write(results[i].toJson()) + "\n";
        out += json::write(collectors[i]->toJson()) + "\n";
    }
    return out;
}

TEST(GoldenOutputs, ClusterRateSweepByteIdenticalAtJobs1And8)
{
    cluster::ClusterSpec spec = goldenClusterSpec();
    cluster::CostCache costs;
    costs.build(spec);

    const std::string serial = clusterSweepText(spec, costs, 1);
    checkGolden("golden_cluster_sweep.json", serial);
    if (regoldRequested())
        return;
    // The same sweep fanned across 8 workers must match the golden
    // byte-for-byte too: scenario seeds are pure functions of
    // (baseSeed, index), never of event interleaving or host threads.
    EXPECT_EQ(serial, clusterSweepText(spec, costs, 8));
}

// ------------------------------------------------------- core primitives

/**
 * Regression for the latent ordering hazard the core queue closes:
 * events colliding on the timestamp must pop by priority, and events
 * colliding on (timestamp, priority) must pop in scheduling order —
 * never in heap-internal order, which std::priority_queue leaves
 * unspecified for ties.
 */
TEST(CoreEventQueue, CollidingTimestampsPopDeterministically)
{
    core::EventQueue queue;
    // Same instant throughout; priorities and push order interleaved
    // adversarially (descending priority, then a second wave at each
    // priority to force (time, priority) collisions). The payload
    // tags each push.
    queue.schedule(100.0, 2, 0, 0, 20);
    queue.schedule(100.0, 1, 0, 0, 10);
    queue.schedule(100.0, 0, 0, 0, 0);
    queue.schedule(100.0, 2, 0, 0, 21);
    queue.schedule(100.0, 1, 0, 0, 11);
    queue.schedule(100.0, 0, 0, 0, 1);
    // A later timestamp with the lowest priority still pops last.
    queue.schedule(100.5, 0, 0, 0, 99);

    std::vector<std::uint64_t> order;
    while (!queue.empty())
        order.push_back(queue.pop().payload);
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{0, 1, 10, 11, 20, 21, 99}));
}

TEST(CoreEventQueue, PopReturnsTheTypedRecord)
{
    core::EventQueue queue;
    queue.schedule(5.0, 3, 7, 42, 0xdeadbeefcafeULL);
    queue.schedule(1.0, 0, 2, 9, 17);
    core::Event first = queue.pop();
    EXPECT_EQ(first.timeNs, 1.0);
    EXPECT_EQ(first.priority, 0);
    EXPECT_EQ(first.seq, 1u);
    EXPECT_EQ(first.kind, 2u);
    EXPECT_EQ(first.target, 9u);
    EXPECT_EQ(first.payload, 17u);
    // The freed slot is reused; the record stays the one pushed.
    queue.schedule(2.0, 0, 4, 1, 2);
    core::Event second = queue.pop();
    EXPECT_EQ(second.kind, 4u);
    EXPECT_EQ(second.seq, 2u);
    core::Event third = queue.pop();
    EXPECT_EQ(third.kind, 7u);
    EXPECT_EQ(third.target, 42u);
    EXPECT_EQ(third.payload, 0xdeadbeefcafeULL);
    EXPECT_TRUE(queue.empty());
}

TEST(CoreEventQueue, TimeOrdersBeforePriority)
{
    core::EventQueue queue;
    queue.schedule(2.0, 0, 0);
    queue.schedule(1.0, 5, 0);
    EXPECT_EQ(queue.nextTimeNs(), 1.0);
    EXPECT_EQ(queue.nextPriority(), 5);
    EXPECT_EQ(queue.size(), 2u);
    queue.clear();
    EXPECT_TRUE(queue.empty());
}

/** The message of the PanicError @p fn throws ("" when none). */
template <typename Fn>
std::string
panicMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const PanicError &err) {
        return err.what();
    }
    return "";
}

TEST(CoreEventQueue, EmptyAccessorsPanicInsteadOfUb)
{
    core::EventQueue queue;
    EXPECT_EQ(panicMessage([&] { queue.nextTimeNs(); }),
              "core::EventQueue: nextTimeNs on empty queue");
    EXPECT_EQ(panicMessage([&] { queue.nextPriority(); }),
              "core::EventQueue: nextPriority on empty queue");
    EXPECT_EQ(panicMessage([&] { queue.pop(); }),
              "core::EventQueue: pop from empty queue");
    // Draining and re-emptying hits the same guards, not stale state.
    queue.schedule(1.0, 0, 0);
    queue.pop();
    EXPECT_THROW(queue.nextTimeNs(), PanicError);
    EXPECT_THROW(queue.pop(), PanicError);
    EXPECT_EQ(panicMessage([&] { queue.schedule(std::nan(""), 0, 0); }),
              "core::EventQueue: NaN event time");
    EXPECT_TRUE(queue.empty());
}

/**
 * The key heap against the closure heap it replaced: seeded push/pop/
 * clear sequences with colliding times and priorities pop the same
 * (time, priority, seq) order and the same records from both.
 */
TEST(CoreEventQueue, MatchesClosureQueueOracle)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::string problem = check::diffEventQueues(seed, 2000);
        EXPECT_TRUE(problem.empty()) << problem;
    }
}

/**
 * The two-level pending set against the same oracle: keyed-slot
 * pushes (never to a taken slot) interleave with heap pushes on
 * colliding times and priorities, slots re-key right after they pop,
 * and every pop must be the closure heap's.
 */
TEST(CoreEventQueue, KeyedSlotsMatchClosureQueueOracle)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::string problem = check::diffKeyedEventQueues(seed, 2000);
        EXPECT_TRUE(problem.empty()) << problem;
    }
}

TEST(CoreEventQueue, SlotHoldsOnePendingEvent)
{
    core::EventQueue queue(3);
    queue.scheduleSlot(1, 5.0, 0, 0, 0, 1);
    EXPECT_EQ(panicMessage([&] { queue.scheduleSlot(1, 6.0, 0, 0); }),
              "core::EventQueue: slot 1 already holds a pending event");
    EXPECT_EQ(panicMessage([&] { queue.scheduleSlot(3, 6.0, 0, 0); }),
              "core::EventQueue: slot 3 out of range (3 slots)");
    EXPECT_EQ(panicMessage([&] { queue.scheduleSlot(0, std::nan(""), 0,
                                                    0); }),
              "core::EventQueue: NaN event time");
    // The refused pushes took no push serial and left one event.
    EXPECT_EQ(queue.size(), 1u);
    queue.schedule(5.0, 0, 0, 0, 2);
    core::Event first = queue.pop();
    EXPECT_EQ(first.payload, 1u);
    EXPECT_EQ(first.seq, 0u);
    EXPECT_EQ(queue.pop().seq, 1u);
    // Popped, the slot takes a new event, re-keyed at once or later.
    queue.scheduleSlot(1, 1.0, 0, 0, 0, 3);
    queue.scheduleSlot(0, 0.5, 0, 0, 0, 4);
    EXPECT_EQ(queue.pop().payload, 4u);
    queue.scheduleSlot(2, 0.75, 0, 0, 0, 5);
    EXPECT_EQ(queue.pop().payload, 5u);
    EXPECT_EQ(queue.pop().payload, 3u);
    EXPECT_TRUE(queue.empty());
}

TEST(CoreEngine, PeakPendingCountsLiveSlots)
{
    core::Engine engine(2);
    engine.at(3.0, 0, 0);
    engine.atSlot(0, 1.0, 0, 1, 0);
    engine.atSlot(1, 2.0, 0, 1, 1);
    EXPECT_EQ(engine.peakPending(), 3u);
    // Each slot event re-schedules its slot once: the pending set
    // never grows past three, and each popped slot is counted free.
    std::vector<std::uint32_t> slots;
    engine.run([&](const core::Event &ev) {
        if (ev.kind != 1)
            return;
        slots.push_back(ev.target);
        if (slots.size() <= 2)
            engine.atSlot(ev.target, ev.timeNs + 10.0, 0, 1, ev.target);
    });
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{0, 1, 0, 1}));
    EXPECT_EQ(engine.peakPending(), 3u);
    EXPECT_EQ(engine.processed(), 5u);
}

TEST(CoreClock, AdvancesMonotonically)
{
    core::Clock clock;
    EXPECT_EQ(clock.nowNs(), 0.0);
    clock.advanceTo(5.0);
    clock.advanceBy(2.5);
    EXPECT_EQ(clock.nowNs(), 7.5);
    clock.advanceTo(7.5); // same instant is fine
    EXPECT_THROW(clock.advanceTo(7.0), PanicError);
    EXPECT_THROW(clock.advanceBy(-1.0), PanicError);
}

TEST(CoreRngStreams, StreamsFollowTheMixSeedContract)
{
    core::RngStreams streams(1234);
    // The published per-entity seeding contract: stream i draws as
    // Rng(mixSeed(base, i)) — reproducible and order-independent.
    Rng expected(mixSeed(1234, 3));
    Rng stream3 = streams.stream(3);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(stream3.next(), expected.next());

    // Named streams hash stably and decorrelate from numeric ones.
    EXPECT_EQ(core::streamId("arrivals"), core::streamId("arrivals"));
    EXPECT_NE(core::streamId("arrivals"), core::streamId("jitter"));
    Rng named_a = streams.stream("arrivals");
    Rng named_b = streams.stream("arrivals");
    EXPECT_EQ(named_a.next(), named_b.next());
}

TEST(CoreFifoResource, SerializesBackToBackWork)
{
    core::FifoResource stream;
    EXPECT_FALSE(stream.everUsed());
    // Idle stream: work starts at its earliest feasible time.
    EXPECT_EQ(stream.startFor(10.0, 3.0), 10.0);
    stream.occupyUntil(25.0);
    EXPECT_TRUE(stream.everUsed());
    EXPECT_EQ(stream.freeNs(), 25.0);
    // Backed-up stream: the gap applies after the previous occupant.
    EXPECT_EQ(stream.startFor(12.0, 3.0), 28.0);
    // A late-arriving request beyond the backlog is not delayed.
    EXPECT_EQ(stream.startFor(40.0, 3.0), 40.0);
}

TEST(CoreEngine, RunsEventsInOrderWithPreEventHook)
{
    core::Engine engine;
    std::vector<std::pair<char, double>> log;

    // Kinds are the host's own; the payload carries the tag.
    enum Kind : core::EventKind
    {
        Record,
        Spawn,
    };
    engine.at(10.0, 1, Spawn);
    engine.at(10.0, 0, Record, 0, 'b');

    EXPECT_EQ(engine.run([&](const core::Event &ev) {
        // The host's pre-event step (the cluster flushes its probe
        // boundaries here) runs first, with the clock already at the
        // event.
        log.emplace_back('h', engine.nowNs());
        if (ev.kind == Record) {
            log.emplace_back(static_cast<char>(ev.payload), ev.timeNs);
            return;
        }
        log.emplace_back('a', ev.timeNs);
        // The host schedules follow-ups through the same engine.
        engine.at(engine.nowNs() + 5.0, 0, Record, 0, 'c');
    }),
              3u);
    EXPECT_EQ(engine.nowNs(), 15.0);
    EXPECT_EQ(engine.processed(), 3u);

    // Priority 0 beats priority 1 at t=10; the hook precedes each
    // handler with the event's own timestamp.
    const std::vector<std::pair<char, double>> expected{
        {'h', 10.0}, {'b', 10.0}, {'h', 10.0},
        {'a', 10.0}, {'h', 15.0}, {'c', 15.0}};
    EXPECT_EQ(log, expected);
}

TEST(CoreEngine, CountsPeakPendingPerKind)
{
    // The engine counts its whole queue; a host that needs one kind's
    // peak counts it itself (the cluster's pending arrivals).
    core::Engine engine;
    std::size_t pending_other = 0;
    std::size_t peak_other = 0;
    auto other_at = [&](double t) {
        engine.at(t, 0, 1);
        peak_other = std::max(peak_other, ++pending_other);
    };
    auto dispatch = [&](const core::Event &ev) {
        if (ev.kind == 1)
            --pending_other;
    };
    for (int i = 0; i < 3; ++i)
        engine.at(static_cast<double>(i), 0, 0);
    other_at(0.5);
    EXPECT_EQ(engine.run(dispatch), 4u);
    other_at(10.0);
    EXPECT_EQ(engine.run(dispatch), 1u);
    EXPECT_EQ(engine.peakPending(), 4u);
    EXPECT_EQ(peak_other, 1u);
    EXPECT_EQ(pending_other, 0u);
    EXPECT_EQ(engine.processed(), 5u);
}

} // namespace

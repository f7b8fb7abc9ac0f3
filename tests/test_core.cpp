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

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sweep.hh"
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
    // valid Chrome-trace document (skipctl validate re-parses it).
    result.trace.setMeta("wall_ns", std::to_string(result.wallNs));
    result.trace.setMeta("num_kernels",
                         std::to_string(result.numKernels));
    result.trace.setMeta("gpu_busy_ns",
                         std::to_string(result.gpuBusyNs));
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
    config.promptLen = 64;
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
    pool.run(n, [&](std::size_t i) {
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
    std::vector<int> order;
    auto record = [&order](int tag) {
        return [&order, tag](double) { order.push_back(tag); };
    };
    // Same instant throughout; priorities and push order interleaved
    // adversarially (descending priority, then a second wave at each
    // priority to force (time, priority) collisions).
    queue.schedule(100.0, 2, record(20));
    queue.schedule(100.0, 1, record(10));
    queue.schedule(100.0, 0, record(0));
    queue.schedule(100.0, 2, record(21));
    queue.schedule(100.0, 1, record(11));
    queue.schedule(100.0, 0, record(1));
    // A later timestamp with the lowest priority still pops last.
    queue.schedule(100.5, 0, record(99));

    while (!queue.empty()) {
        core::Event ev = queue.pop();
        ev.fn(ev.timeNs);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21, 99}));
}

TEST(CoreEventQueue, TimeOrdersBeforePriority)
{
    core::EventQueue queue;
    queue.schedule(2.0, 0, nullptr);
    queue.schedule(1.0, 5, nullptr);
    EXPECT_EQ(queue.nextTimeNs(), 1.0);
    EXPECT_EQ(queue.nextPriority(), 5);
    EXPECT_EQ(queue.size(), 2u);
    queue.clear();
    EXPECT_TRUE(queue.empty());
}

TEST(CoreEventQueue, EmptyAccessorsPanicInsteadOfUb)
{
    core::EventQueue queue;
    EXPECT_THROW(queue.nextTimeNs(), PanicError);
    EXPECT_THROW(queue.nextPriority(), PanicError);
    EXPECT_THROW(queue.pop(), PanicError);
    // Draining and re-emptying hits the same guards, not stale state.
    queue.schedule(1.0, 0, nullptr);
    queue.pop();
    EXPECT_THROW(queue.nextTimeNs(), PanicError);
    EXPECT_THROW(queue.pop(), PanicError);
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
    engine.onBeforeEvent(
        [&](double t) { log.emplace_back('h', t); });

    engine.at(10.0, 1, [&](double t) {
        log.emplace_back('a', t);
        // Handlers schedule follow-ups through the same engine.
        engine.after(5.0, 0, [&](double t2) {
            log.emplace_back('c', t2);
        });
    });
    engine.at(10.0, 0, [&](double t) { log.emplace_back('b', t); });

    EXPECT_EQ(engine.runUntil(10.0), 2u);
    EXPECT_EQ(engine.nowNs(), 10.0);
    EXPECT_FALSE(engine.idle());
    EXPECT_EQ(engine.run(), 1u);
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(engine.processed(), 3u);

    // Priority 0 beats priority 1 at t=10; the hook precedes each
    // handler with the event's own timestamp.
    const std::vector<std::pair<char, double>> expected{
        {'h', 10.0}, {'b', 10.0}, {'h', 10.0},
        {'a', 10.0}, {'h', 15.0}, {'c', 15.0}};
    EXPECT_EQ(log, expected);
}

} // namespace

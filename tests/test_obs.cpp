/**
 * @file
 * Observability tests: metrics registry (keys, instruments, JSON
 * shape), the simulated-time probe collector and its determinism
 * contract (one collector per simulation, byte-identical obs JSON at
 * any worker count), trace probes, serving/continuous/cluster probe
 * wiring, and harness self-tracing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/sweep.hh"
#include "cluster/cluster.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "exec/pool.hh"
#include "hw/catalog.hh"
#include "json/writer.hh"
#include "obs/collector.hh"
#include "obs/harness.hh"
#include "obs/metrics.hh"
#include "obs/openmetrics.hh"
#include "obs/trace_probe.hh"
#include "serving/continuous.hh"
#include "serving/latency_model.hh"
#include "serving/server_sim.hh"
#include "trace/chrome.hh"
#include "workload/model_config.hh"

#include "start_line.hh"

using namespace skipsim;

namespace
{

/** A synthetic sweep with latency(batch) = base + slope * batch. */
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

/** A small, fast-to-simulate cluster scenario. */
cluster::ClusterSpec
smallClusterSpec(int replicas = 2)
{
    cluster::ClusterSpec spec;
    spec.model = workload::modelByName("GPT2");
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::byName("GH200");
    replica.maxActive = 16;
    spec.replicas.assign(static_cast<std::size_t>(replicas), replica);
    spec.arrivalRatePerSec = 60.0;
    spec.horizonSec = 3.0;
    spec.promptLen = 128;
    spec.genTokens = 8;
    spec.sessions = 16;
    return spec;
}

/** The series named @p key exported by @p collector, or nullptr. */
const obs::Series *
findSeries(const obs::Collector &collector, const std::string &key)
{
    for (const obs::Series *series : collector.series()) {
        if (obs::metricKey(series->name, series->labels) == key)
            return series;
    }
    return nullptr;
}

// ------------------------------------------------------------- metricKey

TEST(MetricKey, PlainNameAndSortedLabels)
{
    EXPECT_EQ(obs::metricKey("serving.queue_depth", {}),
              "serving.queue_depth");
    EXPECT_EQ(obs::metricKey("cluster.kv_bytes",
                             {{"replica", "1"}, {"policy", "rr"}}),
              "cluster.kv_bytes{policy=\"rr\",replica=\"1\"}");
}

TEST(MetricKey, RejectsEmptyNames)
{
    EXPECT_THROW(obs::metricKey("", {}), FatalError);
    EXPECT_THROW(obs::metricKey("x", {{"", "v"}}), FatalError);
}

// -------------------------------------------------------------- registry

TEST(Registry, CountersGaugesHistograms)
{
    obs::Registry registry;
    registry.counter("requests").add();
    registry.counter("requests").add(2.0);
    EXPECT_DOUBLE_EQ(registry.counter("requests").value(), 3.0);

    registry.gauge("depth").set(7.0);
    EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), 7.0);

    obs::Histogram &hist =
        registry.histogram("lat_ms", {1.0, 10.0, 100.0});
    hist.observe(0.5);
    hist.observe(5.0);
    hist.observe(1e9); // overflow bucket
    EXPECT_EQ(hist.count(), 3u);
    std::vector<std::uint64_t> buckets = hist.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 1u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[2], 0u);
    EXPECT_EQ(buckets[3], 1u);
    EXPECT_EQ(registry.size(), 3u);
}

TEST(Registry, LabeledInstrumentsAreDistinct)
{
    obs::Registry registry;
    registry.counter("routed", {{"replica", "0"}}).add();
    registry.counter("routed", {{"replica", "1"}}).add(5.0);
    EXPECT_DOUBLE_EQ(
        registry.counter("routed", {{"replica", "0"}}).value(), 1.0);
    EXPECT_DOUBLE_EQ(
        registry.counter("routed", {{"replica", "1"}}).value(), 5.0);
}

TEST(Registry, TypeAndBoundsMismatchesThrow)
{
    obs::Registry registry;
    registry.counter("x").add();
    EXPECT_THROW(registry.gauge("x"), FatalError);
    registry.histogram("h", {1.0, 2.0});
    EXPECT_THROW(registry.histogram("h", {1.0, 3.0}), FatalError);
    EXPECT_THROW(obs::Histogram({2.0, 1.0}), FatalError);
}

TEST(Registry, JsonDumpIsKeySorted)
{
    obs::Registry registry;
    registry.counter("b").add(2.0);
    registry.counter("a").add(1.0);
    registry.gauge("g").set(4.0);
    registry.histogram("h", {10.0}).observe(3.0);
    json::Value doc = registry.toJson();
    const auto &counters = doc.asObject().at("counters").asObject();
    EXPECT_DOUBLE_EQ(counters.at("a").asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(counters.at("b").asDouble(), 2.0);
    const auto &hist = doc.asObject().at("histograms").asObject()
        .at("h").asObject();
    EXPECT_EQ(hist.at("count").asInt(), 1);
    EXPECT_DOUBLE_EQ(hist.at("sum").asDouble(), 3.0);
    const auto &buckets = hist.at("buckets").asArray();
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_EQ(buckets[1].asObject().at("le").asString(), "+inf");
}

// ---------------------------------------------------------------- ticker

TEST(Ticker, VisitsEveryBoundaryOnce)
{
    obs::Ticker tick(100);
    std::vector<std::int64_t> seen;
    tick.advanceTo(250.0, [&](std::int64_t t) { seen.push_back(t); });
    tick.advanceTo(250.0, [&](std::int64_t t) { seen.push_back(t); });
    tick.advanceTo(400.0, [&](std::int64_t t) { seen.push_back(t); });
    EXPECT_EQ(seen, (std::vector<std::int64_t>{100, 200, 300, 400}));
    EXPECT_EQ(tick.nextNs(), 500);
}

TEST(Ticker, DisabledTickerNeverFires)
{
    obs::Ticker tick(0);
    EXPECT_FALSE(tick.enabled());
    tick.advanceTo(1e12, [](std::int64_t) { FAIL(); });
}

// ------------------------------------------------------------- collector

TEST(Collector, RejectsNonPositiveIntervals)
{
    EXPECT_THROW(obs::Collector(0.0), FatalError);
    EXPECT_THROW(obs::Collector(-1.0), FatalError);
}

TEST(Collector, SeriesSortAndJsonShape)
{
    obs::Collector collector(1.0); // 1 ms -> 1e6 ns
    collector.sample("b.metric", {}, 1000000, 2.0);
    collector.sample("a.metric", {{"replica", "0"}}, 1000000, 1.0);
    collector.sample("a.metric", {{"replica", "0"}}, 2000000, 3.0);
    EXPECT_EQ(collector.sampleCount(), 3u);

    std::vector<const obs::Series *> series = collector.series();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0]->name, "a.metric"); // key-sorted
    ASSERT_EQ(series[0]->points.size(), 2u);
    EXPECT_EQ(series[0]->points[1].tNs, 2000000);
    EXPECT_DOUBLE_EQ(series[0]->points[1].value, 3.0);

    json::Value doc = collector.toJson();
    EXPECT_DOUBLE_EQ(doc.asObject().at("interval_ms").asDouble(), 1.0);
    const auto &arr = doc.asObject().at("series").asArray();
    ASSERT_EQ(arr.size(), 2u);
    EXPECT_EQ(arr[0].asObject().at("name").asString(), "a.metric");
}

TEST(Collector, TraceExportCarriesAllThreePhases)
{
    obs::Collector collector(1.0);
    collector.span("iteration", 0, 100, 50);
    collector.sample("depth", {{"replica", "1"}}, 1000000, 4.0);
    collector.instant("fault.crash", 1, 500);
    trace::Trace exported = collector.toTrace();
    EXPECT_EQ(exported.events().size(), 1u);
    ASSERT_EQ(exported.counters().size(), 1u);
    // Labels fold into the counter name so each series gets its own
    // Perfetto counter track.
    EXPECT_EQ(exported.counters()[0].name, "depth{replica=\"1\"}");
    EXPECT_EQ(exported.instants().size(), 1u);

    // And the export survives our own chrome round trip.
    trace::Trace parsed =
        trace::fromChromeText(trace::toChromeText(exported));
    EXPECT_EQ(parsed.events().size(), 1u);
    EXPECT_EQ(parsed.counters().size(), 1u);
    EXPECT_EQ(parsed.instants().size(), 1u);
}

// ----------------------------------------------------------- trace probe

TEST(TraceProbe, QueueDepthAndBusyFractions)
{
    // One op covering [0, 1ms); launch at [0, 10us) whose kernel runs
    // [500us, 900us): the launch queue holds 1 from 10us to 500us.
    trace::Trace synthetic;
    trace::TraceEvent op;
    op.kind = trace::EventKind::Operator;
    op.name = "aten::linear";
    op.tsBeginNs = 0;
    op.durNs = 1000000;
    synthetic.add(op);
    trace::TraceEvent launch;
    launch.kind = trace::EventKind::Runtime;
    launch.name = "cudaLaunchKernel";
    launch.tsBeginNs = 0;
    launch.durNs = 10000;
    launch.correlationId = 1;
    synthetic.add(launch);
    trace::TraceEvent kernel;
    kernel.kind = trace::EventKind::Kernel;
    kernel.name = "gemm";
    kernel.tsBeginNs = 500000;
    kernel.durNs = 400000;
    kernel.streamId = 7;
    kernel.correlationId = 1;
    synthetic.add(kernel);
    synthetic.sortByTime();

    obs::Collector collector(0.1); // 100 us boundaries
    obs::probeTrace(synthetic, collector);

    EXPECT_DOUBLE_EQ(
        collector.metrics().counter("trace.kernels").value(), 1.0);
    EXPECT_DOUBLE_EQ(
        collector.metrics().counter("trace.launches").value(), 1.0);
    EXPECT_DOUBLE_EQ(collector.metrics().counter("trace.ops").value(),
                     1.0);

    const obs::Series *queue =
        findSeries(collector, "trace.launch_queue_depth");
    ASSERT_NE(queue, nullptr);
    ASSERT_GE(queue->points.size(), 9u);
    // 100us..400us: launched but not yet running.
    EXPECT_DOUBLE_EQ(queue->points[0].value, 1.0);
    EXPECT_DOUBLE_EQ(queue->points[3].value, 1.0);
    // 500us onward the kernel is executing.
    EXPECT_DOUBLE_EQ(queue->points[4].value, 0.0);

    const obs::Series *gpu = findSeries(collector, "trace.gpu_busy");
    ASSERT_NE(gpu, nullptr);
    // Window (500us, 600us] is fully inside the kernel.
    EXPECT_DOUBLE_EQ(gpu->points[5].value, 1.0);
    EXPECT_DOUBLE_EQ(gpu->points[0].value, 0.0);
    const obs::Series *cpu = findSeries(collector, "trace.cpu_busy");
    ASSERT_NE(cpu, nullptr);
    EXPECT_DOUBLE_EQ(cpu->points[0].value, 1.0);
}

// -------------------------------------------------------- serving probes

TEST(ServingObs, RecordsQueueBatchAndThroughputSeries)
{
    serving::LatencyModel latency(linearSweep(2e6, 1e5));
    serving::ServingConfig config;
    config.arrivalRatePerSec = 200.0;
    config.horizonSec = 2.0;
    config.maxBatch = 8;
    obs::Collector collector(50.0);

    serving::ServingResult with_obs =
        serving::simulateServing(latency, config, &collector);
    serving::ServingResult without =
        serving::simulateServing(latency, config);

    // Probes never perturb the simulation.
    EXPECT_EQ(with_obs.completed, without.completed);
    EXPECT_DOUBLE_EQ(with_obs.p99LatencyNs, without.p99LatencyNs);

    for (const char *name :
         {"serving.queue_depth", "serving.batch_inflight",
          "serving.throughput_rps", "serving.ttft_ms"}) {
        const obs::Series *series = findSeries(collector, name);
        ASSERT_NE(series, nullptr) << name;
        EXPECT_EQ(series->points.size(), 40u) << name; // 2s / 50ms
    }

    obs::Registry &metrics = collector.metrics();
    EXPECT_DOUBLE_EQ(
        metrics.counter("serving.requests_completed").value(),
        static_cast<double>(with_obs.completed));
    EXPECT_GT(metrics.counter("serving.batches").value(), 0.0);

    // Dispatched batches appear as duration spans.
    trace::Trace exported = collector.toTrace();
    EXPECT_GT(exported.events().size(), 0u);
    EXPECT_GT(exported.counters().size(), 0u);
}

TEST(ContinuousObs, RecordsIterationSpansAndTokenSeries)
{
    serving::IterationCostModel cost(workload::modelByName("GPT2"),
                                     hw::platforms::byName("GH200"),
                                     64);
    serving::ContinuousConfig config;
    config.arrivalRatePerSec = 100.0;
    config.horizonSec = 1.0;
    config.maxActive = 8;
    config.genTokens = 4;
    obs::Collector collector(50.0);

    serving::ContinuousResult with_obs =
        serving::simulateContinuous(cost, config, &collector);
    serving::ContinuousResult without =
        serving::simulateContinuous(cost, config);
    EXPECT_EQ(with_obs.completed, without.completed);
    EXPECT_DOUBLE_EQ(with_obs.tokensPerSec, without.tokensPerSec);

    for (const char *name :
         {"continuous.queue_depth", "continuous.batch_active",
          "continuous.tokens_per_sec", "continuous.ttft_ms"}) {
        ASSERT_NE(findSeries(collector, name), nullptr) << name;
    }
    EXPECT_GT(
        collector.metrics().counter("continuous.tokens").value(), 0.0);
    EXPECT_GT(
        collector.metrics().counter("continuous.iterations").value(),
        0.0);
    EXPECT_GT(collector.toTrace().events().size(), 0u);
}

// --------------------------------------------------------- cluster probes

TEST(ClusterObs, SeriesCoverReplicasAndFaultMarkersAppear)
{
    cluster::ClusterSpec spec = smallClusterSpec(2);
    cluster::FaultSpec crash;
    crash.atSec = 1.0;
    crash.replica = 0;
    crash.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(crash);

    obs::Collector collector(100.0);
    cluster::ClusterResult result =
        cluster::simulateCluster(spec, &collector);

    for (const char *name :
         {"cluster.queue_depth{replica=\"0\"}",
          "cluster.queue_depth{replica=\"1\"}",
          "cluster.batch_active{replica=\"0\"}",
          "cluster.kv_bytes{replica=\"1\"}",
          "cluster.outstanding{replica=\"0\"}",
          "cluster.throughput_rps", "cluster.ttft_ms",
          "cluster.rerouted_total"}) {
        const obs::Series *series = findSeries(collector, name);
        ASSERT_NE(series, nullptr) << name;
        EXPECT_EQ(series->points.size(), 30u) << name; // 3s / 100ms
    }

    // KV bytes were actually reserved at some boundary.
    const obs::Series *kv =
        findSeries(collector, "cluster.kv_bytes{replica=\"1\"}");
    double peak = 0.0;
    for (const obs::SeriesPoint &point : kv->points)
        peak = std::max(peak, point.value);
    EXPECT_GT(peak, 0.0);

    // The crash leaves its markers and the registry its totals.
    trace::Trace exported = collector.toTrace();
    bool saw_fault = false;
    bool saw_detect = false;
    for (const trace::InstantEvent &marker : exported.instants()) {
        saw_fault |= marker.name == "fault.crash";
        saw_detect |= marker.name == "fault.detected";
    }
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_detect);
    EXPECT_GT(exported.events().size(), 0u); // iteration spans
    EXPECT_DOUBLE_EQ(
        collector.metrics()
            .counter("cluster.requests_offered")
            .value(),
        static_cast<double>(result.offered));
    EXPECT_DOUBLE_EQ(
        collector.metrics().counter("cluster.rerouted").value(),
        static_cast<double>(result.rerouted));
}

TEST(ClusterObs, TieredKvBytesSampleHbmResidentBytes)
{
    // Under a two-tier store the engine reserves nothing itself: the
    // series must follow the store's pinned + retained HBM bytes,
    // which the replica's peak gauge maxes over.
    cluster::ClusterSpec spec = smallClusterSpec(2);
    spec.kvTier.policy = kv::OffloadPolicy::LruBySession;
    spec.kvTier.hostCapacityGiB = 1.0;

    obs::Collector collector(100.0);
    cluster::ClusterResult result =
        cluster::simulateCluster(spec, &collector);

    for (std::size_t r = 0; r < 2; ++r) {
        const std::string replica = std::to_string(r);
        const obs::Series *kv = findSeries(
            collector, "cluster.kv_bytes{replica=\"" + replica + "\"}");
        ASSERT_NE(kv, nullptr) << r;
        const double peak = collector.metrics()
                                .gauge("cluster.replica_peak_kv_bytes",
                                       {{"replica", replica}})
                                .value();
        EXPECT_DOUBLE_EQ(peak, result.replicas[r].peakKvBytes);
        double most = 0.0;
        for (const obs::SeriesPoint &point : kv->points) {
            EXPECT_LE(point.value, peak) << r << " @ " << point.tNs;
            most = std::max(most, point.value);
        }
        EXPECT_GT(most, 0.0) << r;
    }
}

TEST(ClusterObs, ResultUnchangedByProbes)
{
    cluster::ClusterSpec spec = smallClusterSpec(2);
    obs::Collector collector(100.0);
    cluster::ClusterResult with_obs =
        cluster::simulateCluster(spec, &collector);
    cluster::ClusterResult without = cluster::simulateCluster(spec);
    EXPECT_EQ(json::write(with_obs.toJson()),
              json::write(without.toJson()));
}

TEST(ClusterObs, ObsJsonByteIdenticalAcrossWorkerCounts)
{
    // The acceptance-criteria check: the same rate-sweep spec fanned
    // across 1 and 8 workers must export byte-identical obs JSON.
    cluster::ClusterSpec spec = smallClusterSpec(2);
    spec.rates = {40.0, 60.0, 80.0};
    cluster::FaultSpec crash;
    crash.atSec = 1.5;
    crash.replica = 1;
    crash.kind = cluster::FaultKind::Crash;
    spec.faults.push_back(crash);

    cluster::CostCache costs;
    costs.build(spec);

    auto run_with_jobs = [&](int jobs) {
        std::size_t n = spec.scenarioCount();
        std::vector<std::unique_ptr<obs::Collector>> collectors(n);
        for (std::size_t i = 0; i < n; ++i)
            collectors[i] = std::make_unique<obs::Collector>(100.0);
        exec::Pool pool(jobs);
        testutil::StartLine line(pool, n);
        pool.run(n, [&](std::size_t i) {
            line.arrive();
            cluster::simulateCluster(spec.scenarioAt(i), costs,
                                     collectors[i].get());
        });
        std::string out;
        for (const auto &collector : collectors)
            out += json::write(collector->toJson()) + "\n";
        return out;
    };

    std::string serial = run_with_jobs(1);
    std::string parallel = run_with_jobs(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("cluster.queue_depth"), std::string::npos);
    EXPECT_NE(serial.find("cluster.kv_bytes"), std::string::npos);
    EXPECT_NE(serial.find("cluster.batch_active"), std::string::npos);
}

TEST(ClusterObs, WindowedRatesCoverTheHorizonBoundaryExactly)
{
    // The horizon (3 s) is an exact multiple of the interval (500 ms):
    // the last sampled window must end exactly at the horizon — no
    // boundary past it (iterations draining past the horizon are not
    // sampled), no boundary skipped, no duplicate at the edge.
    cluster::ClusterSpec spec = smallClusterSpec(2);
    obs::Collector collector(500.0);
    cluster::ClusterResult result =
        cluster::simulateCluster(spec, &collector);

    const obs::Series *tput =
        findSeries(collector, "cluster.throughput_rps");
    ASSERT_NE(tput, nullptr);
    const std::int64_t interval_ns = collector.intervalNs();
    ASSERT_EQ(tput->points.size(), 6u); // 3s / 500ms
    for (std::size_t i = 0; i < tput->points.size(); ++i)
        EXPECT_EQ(tput->points[i].tNs,
                  static_cast<std::int64_t>(i + 1) * interval_ns);
    EXPECT_EQ(tput->points.back().tNs,
              static_cast<std::int64_t>(spec.horizonSec * 1e9));

    // Each point is a per-window rate: value * window length is the
    // window's completion count, and the windows tile [0, horizon],
    // so the sum counts completions up to the horizon — never more
    // than the run completed in total (drain completions past the
    // horizon fall outside every window).
    double window_sec = static_cast<double>(interval_ns) / 1e9;
    double windowed = 0.0;
    for (const obs::SeriesPoint &point : tput->points) {
        EXPECT_GE(point.value, 0.0);
        windowed += point.value * window_sec;
    }
    EXPECT_GT(windowed, 0.0);
    EXPECT_LE(windowed,
              static_cast<double>(result.completed) + 1e-9);
}

TEST(Registry, HistogramBucketEdgeValues)
{
    // A value exactly on a bucket's upper bound belongs to that
    // bucket (Prometheus "le" semantics); past the last bound it
    // overflows into +inf.
    obs::Histogram hist({1.0, 2.0, 4.0});
    hist.observe(1.0);           // == first bound -> bucket 0
    hist.observe(2.0);           // == second bound -> bucket 1
    hist.observe(4.0);           // == last bound -> bucket 2
    hist.observe(4.0000000001);  // just past -> +inf
    hist.observe(0.5);           // below first bound -> bucket 0

    std::vector<std::uint64_t> counts = hist.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u); // +inf overflow
    EXPECT_EQ(hist.count(), 5u);
}

// ----------------------------------------------------------- openmetrics

TEST(OpenMetrics, ExpositionShapeAndRoundTrip)
{
    obs::Registry registry;
    registry.counter("cluster.requests_offered").add(25.0);
    registry.counter("cluster.replica_routed", {{"replica", "1"}})
        .add(13.0);
    registry.gauge("cluster.peak_kv_bytes", {{"replica", "0"}})
        .set(84934656.0);
    obs::Histogram &hist =
        registry.histogram("cluster.ttft_ms", {1.0, 10.0});
    hist.observe(0.5);
    hist.observe(5.0);
    hist.observe(50.0);

    std::string text = obs::toOpenMetrics(registry);

    // Names sanitize to [a-zA-Z0-9_:], counters carry _total, the
    // histogram expands to cumulative buckets + sum + count, and the
    // exposition terminates with # EOF.
    EXPECT_NE(text.find("# TYPE cluster_requests_offered counter"),
              std::string::npos);
    EXPECT_NE(text.find("cluster_requests_offered_total 25"),
              std::string::npos);
    EXPECT_NE(
        text.find("cluster_replica_routed_total{replica=\"1\"} 13"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE cluster_ttft_ms histogram"),
              std::string::npos);
    EXPECT_NE(text.find("cluster_ttft_ms_bucket{le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("cluster_ttft_ms_bucket{le=\"10\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("cluster_ttft_ms_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("cluster_ttft_ms_count 3"),
              std::string::npos);
    EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);

    // Round trip: every sample line re-parses to the value written.
    std::vector<obs::OpenMetricsSample> samples =
        obs::parseOpenMetrics(text);
    auto value_of = [&samples](const std::string &name,
                               const obs::Labels &labels) {
        for (const obs::OpenMetricsSample &s : samples) {
            if (s.name == name && s.labels == labels)
                return s.value;
        }
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(value_of("cluster_requests_offered_total", {}),
                     25.0);
    EXPECT_DOUBLE_EQ(value_of("cluster_replica_routed_total",
                              {{"replica", "1"}}),
                     13.0);
    EXPECT_DOUBLE_EQ(value_of("cluster_peak_kv_bytes",
                              {{"replica", "0"}}),
                     84934656.0);
    EXPECT_DOUBLE_EQ(value_of("cluster_ttft_ms_bucket",
                              {{"le", "+Inf"}}),
                     3.0);
    EXPECT_DOUBLE_EQ(value_of("cluster_ttft_ms_sum", {}), 55.5);

    // Determinism: a registry populated in a different order exposes
    // byte-identical text (instruments render key-sorted).
    obs::Registry reordered;
    obs::Histogram &hist2 =
        reordered.histogram("cluster.ttft_ms", {1.0, 10.0});
    hist2.observe(50.0);
    hist2.observe(5.0);
    hist2.observe(0.5);
    reordered.gauge("cluster.peak_kv_bytes", {{"replica", "0"}})
        .set(84934656.0);
    reordered.counter("cluster.replica_routed", {{"replica", "1"}})
        .add(13.0);
    reordered.counter("cluster.requests_offered").add(25.0);
    EXPECT_EQ(text, obs::toOpenMetrics(reordered));
}

// --------------------------------------------------------------- cli flags

TEST(RunFlags, RejectsNonPositiveObsInterval)
{
    auto parse = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "test");
        CliArgs args(static_cast<int>(argv.size()), argv.data());
        return parseRunFlags(args);
    };
    // Regression: 0 and negative intervals used to construct a
    // Collector that fataled later (or div-by-zero'd a window rate);
    // now the flag itself is rejected up front, naming the flag.
    try {
        parse({"--obs-interval-ms", "0"});
        FAIL() << "interval 0 accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("--obs-interval-ms"),
                  std::string::npos);
    }
    EXPECT_THROW(parse({"--obs-interval-ms=-5"}), FatalError);
    EXPECT_DOUBLE_EQ(parse({"--obs-interval-ms", "2.5"}).obsIntervalMs,
                     2.5);
    EXPECT_DOUBLE_EQ(parse({}).obsIntervalMs, 100.0);
}

TEST(RunFlags, ObsFormatValidated)
{
    auto parse = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "test");
        CliArgs args(static_cast<int>(argv.size()), argv.data());
        return parseRunFlags(args);
    };
    EXPECT_EQ(parse({}).obsFormat, "json");
    EXPECT_EQ(parse({"--obs-format", "openmetrics"}).obsFormat,
              "openmetrics");
    EXPECT_THROW(parse({"--obs-format", "xml"}), FatalError);
}

// -------------------------------------------------------- harness tracer

TEST(HarnessTracer, RecordsSpansAndDerivesInflightCounter)
{
    obs::HarnessTracer tracer;
    {
        auto span = tracer.scope("point 0");
    }
    {
        auto span = tracer.scope("point 1");
        tracer.instant("checkpoint");
    }
    EXPECT_EQ(tracer.spanCount(), 2u);

    trace::Trace built = tracer.build();
    ASSERT_EQ(built.events().size(), 2u);
    EXPECT_TRUE(built.validate().empty());
    EXPECT_EQ(built.instants().size(), 1u);
    // Span edges derive the harness.inflight counter.
    ASSERT_GE(built.counters().size(), 2u);
    for (const trace::CounterEvent &counter : built.counters())
        EXPECT_EQ(counter.name, "harness.inflight");

    // The rendered chrome trace parses back through our own reader.
    trace::Trace parsed =
        trace::fromChromeText(trace::toChromeText(built));
    EXPECT_EQ(parsed.events().size(), 2u);
    EXPECT_EQ(parsed.instants().size(), 1u);
    EXPECT_GE(parsed.counters().size(), 2u);
}

TEST(HarnessTracer, TracksPoolWorkersSeparately)
{
    obs::HarnessTracer tracer;
    exec::Pool pool(4);
    testutil::StartLine line(pool, 16);
    pool.run(16, [&](std::size_t i) {
        line.arrive();
        auto span = tracer.scope("task " + std::to_string(i));
    });
    EXPECT_EQ(tracer.spanCount(), 16u);
    trace::Trace built = tracer.build();
    EXPECT_TRUE(built.validate().empty());
}

} // namespace

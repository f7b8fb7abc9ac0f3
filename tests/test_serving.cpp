/**
 * @file
 * Tests for the serving layer (latency model + dynamic-batching
 * simulation), the operator breakdown and the ASCII timeline renderer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "analysis/sweep.hh"
#include "check/event_batcher.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "serving/latency_model.hh"
#include "serving/server_sim.hh"
#include "skip/op_breakdown.hh"
#include "skip/profile.hh"
#include "trace/timeline.hh"

namespace skipsim
{
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

// ----------------------------------------------------------- latency model

TEST(LatencyModel, InterpolatesAndExtrapolates)
{
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    EXPECT_NEAR(model.latencyNs(1), 1.1e6, 1.0);
    EXPECT_NEAR(model.latencyNs(3), 1.3e6, 1.0);   // interpolated
    EXPECT_NEAR(model.latencyNs(64), 7.4e6, 1e3);  // extrapolated
    EXPECT_EQ(model.maxMeasuredBatch(), 32);
    EXPECT_EQ(model.modelName(), "synthetic");
}

TEST(LatencyModel, RejectsDegenerateInputs)
{
    analysis::SweepResult sweep;
    sweep.points.resize(1);
    sweep.points[0].batch = 1;
    EXPECT_THROW(serving::LatencyModel{sweep}, FatalError);

    serving::LatencyModel model(linearSweep(1e6, 1e5));
    EXPECT_THROW(model.latencyNs(0), FatalError);
}

TEST(LatencyModel, WorksOnRealSweep)
{
    analysis::SweepResult sweep = analysis::runBatchSweep(
        workload::gpt2(), hw::platforms::gh200(), {1, 4, 16}, 256);
    serving::LatencyModel model(sweep);
    EXPECT_GT(model.latencyNs(1), 0.0);
    EXPECT_GE(model.latencyNs(64), model.latencyNs(16));
}

// ------------------------------------------------------------- serving sim

serving::ServingConfig
config(double rate, int max_batch = 32, double wait_ns = 5e6)
{
    serving::ServingConfig c;
    c.arrivalRatePerSec = rate;
    c.horizonSec = 20.0;
    c.maxBatch = max_batch;
    c.maxWaitNs = wait_ns;
    return c;
}

TEST(ServingSim, LowLoadServesSinglesFast)
{
    // 5 rps against a ~1.1 ms service: no queueing, batch ~1, latency
    // ~ service + batching wait.
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    serving::ServingResult result =
        serving::simulateServing(model, config(5.0, 32, 0.0));
    EXPECT_GT(result.completed, 50u);
    EXPECT_NEAR(result.meanBatch, 1.0, 0.1);
    EXPECT_LT(result.p50LatencyNs, 1.5e6);
    EXPECT_LT(result.utilization, 0.05);
    EXPECT_EQ(result.leftInQueue, 0u);
}

TEST(ServingSim, HighLoadFormsBatches)
{
    // 5000 rps: batches grow toward the cap and utilization rises.
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    serving::ServingResult low =
        serving::simulateServing(model, config(50.0));
    serving::ServingResult high =
        serving::simulateServing(model, config(5000.0));
    EXPECT_GT(high.meanBatch, 4.0 * low.meanBatch);
    EXPECT_GT(high.utilization, low.utilization);
    EXPECT_GT(high.throughputRps, 10.0 * low.throughputRps);
}

TEST(ServingSim, OverloadLeavesQueueBehind)
{
    // Service capacity ~ maxBatch / latency(maxBatch): 4 / 1.4ms ~
    // 2850 rps. Offer 4x that.
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    serving::ServingResult result =
        serving::simulateServing(model, config(12000.0, 4));
    EXPECT_GT(result.leftInQueue, 0u);
    EXPECT_GT(result.utilization, 0.95);
    EXPECT_LT(result.throughputRps, 4000.0);
}

TEST(ServingSim, MaxWaitBoundsBatchingDelay)
{
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    // Long wait allows batching even at modest load.
    serving::ServingResult patient =
        serving::simulateServing(model, config(2000.0, 32, 20e6));
    serving::ServingResult eager_cfg =
        serving::simulateServing(model, config(2000.0, 32, 0.0));
    EXPECT_GT(patient.meanBatch, eager_cfg.meanBatch);
}

TEST(ServingSim, DeterministicGivenSeed)
{
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    serving::ServingResult a =
        serving::simulateServing(model, config(500.0));
    serving::ServingResult b =
        serving::simulateServing(model, config(500.0));
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p99LatencyNs, b.p99LatencyNs);
}

TEST(ServingSim, PercentilesOrdered)
{
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    serving::ServingResult result =
        serving::simulateServing(model, config(2000.0));
    EXPECT_LE(result.p50LatencyNs, result.p95LatencyNs);
    EXPECT_LE(result.p95LatencyNs, result.p99LatencyNs);
    EXPECT_GT(result.meanLatencyNs, 0.0);
}

TEST(ServingSim, TtftSharesTheLatencyVocabulary)
{
    // One forward pass serves the whole request in this sim, so TTFT
    // (arrival -> first decode step) coincides with end-to-end
    // latency; the fields exist so single-instance and cluster
    // reports read the same.
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    serving::ServingResult result =
        serving::simulateServing(model, config(2000.0));
    EXPECT_GT(result.p50TtftNs, 0.0);
    EXPECT_LE(result.p50TtftNs, result.p95TtftNs);
    EXPECT_LE(result.p95TtftNs, result.p99TtftNs);
    EXPECT_DOUBLE_EQ(result.p50TtftNs, result.p50LatencyNs);
    EXPECT_DOUBLE_EQ(result.p99TtftNs, result.p99LatencyNs);
}

TEST(ServingSim, InvalidConfigsThrow)
{
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    EXPECT_THROW(serving::simulateServing(model, config(0.0)),
                 FatalError);
    EXPECT_THROW(serving::simulateServing(model, config(10.0, 0)),
                 FatalError);
    serving::ServingConfig bad = config(10.0);
    bad.horizonSec = 0.0;
    EXPECT_THROW(serving::simulateServing(model, bad), FatalError);
    bad = config(10.0);
    bad.maxWaitNs = -1.0;
    EXPECT_THROW(serving::simulateServing(model, bad), FatalError);

    // Non-finite rates and horizons would never end the arrival draw;
    // a non-finite wait would poison the dispatch instants.
    const double inf = std::numeric_limits<double>::infinity();
    for (double v : {inf, std::nan("")}) {
        EXPECT_THROW(serving::simulateServing(model, config(v)),
                     FatalError);
        bad = config(10.0);
        bad.horizonSec = v;
        EXPECT_THROW(serving::simulateServing(model, bad), FatalError);
        bad = config(10.0);
        bad.maxWaitNs = v;
        EXPECT_THROW(serving::simulateServing(model, bad), FatalError);
    }
}

TEST(ServingSim, RunawayArrivalCountsHitTheWorkBudget)
{
    // `skipctl serve --rate 1e12` used to generate arrivals until
    // killed: finite, but 2^32+ expected arrivals.
    serving::LatencyModel model(linearSweep(1e6, 1e5));
    try {
        serving::simulateServing(model, config(1e12));
        ADD_FAILURE() << "accepted 1e12 req/s";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "arrivalRatePerSec * horizonSec"),
                  std::string::npos)
            << err.what();
    }
    serving::ServingConfig bad = config(10.0);
    bad.horizonSec = 1e12;
    EXPECT_THROW(serving::simulateServing(model, bad), FatalError);
}

TEST(ServingSim, MatchesTheEventDrivenOracle)
{
    // The closed-form walk against the event-driven batcher it
    // replaced, every result field bit for bit. The grid spans idle
    // to heavy overload, waits of 0 and 1 ns, batches of 1 and
    // INT_MAX, and a horizon too short for most runs to see a request.
    const std::pair<double, double> latencies[] = {
        {1e6, 1e5}, {2e4, 0.0}, {5e6, 2e6}};
    const int max_batches[] = {1, 2, 8,
                               std::numeric_limits<int>::max()};
    const double waits[] = {0.0, 1.0, 1e3, 5e6, 1e12};
    bool saw_empty = false;
    bool saw_backlog = false;
    bool saw_cut_batch = false;
    for (const auto &[base, slope] : latencies) {
        serving::LatencyModel model(linearSweep(base, slope));
        for (double rate : {0.5, 50.0, 2000.0, 50000.0})
            for (int max_batch : max_batches)
                for (double wait : waits)
                    for (double horizon : {1e-3, 0.25})
                        for (std::uint64_t seed : {1u, 7u}) {
                            serving::ServingConfig c =
                                config(rate, max_batch, wait);
                            c.horizonSec = horizon;
                            c.seed = seed;
                            SCOPED_TRACE(testing::Message()
                                         << "latency " << base << "+"
                                         << slope << "b, rate " << rate
                                         << ", max batch " << max_batch
                                         << ", wait " << wait
                                         << ", horizon " << horizon
                                         << ", seed " << seed);
                            EXPECT_EQ(check::diffServing(model, c), "");
                            serving::ServingResult r =
                                serving::simulateServing(model, c);
                            saw_empty |=
                                r.completed == 0 && r.leftInQueue == 0;
                            saw_backlog |= r.leftInQueue > 0;
                            // Busy time reaching the horizon means the
                            // last batch ran past it.
                            saw_cut_batch |= r.utilization == 1.0;
                        }
    }
    EXPECT_TRUE(saw_empty);
    EXPECT_TRUE(saw_backlog);
    EXPECT_TRUE(saw_cut_batch);
}

// ------------------------------------------------------------ op breakdown

TEST(OpBreakdown, AttributesCpuAndGpu)
{
    skip::ProfileResult run = skip::profilePrefill(
        workload::bertBaseUncased(), hw::platforms::intelH100(), 1, 256);
    skip::DependencyGraph dep = skip::DependencyGraph::build(run.trace);
    skip::OpBreakdown breakdown = skip::computeOpBreakdown(dep);

    ASSERT_FALSE(breakdown.byOp.empty());
    EXPECT_GT(breakdown.totalCpuNs, 0.0);

    // aten::linear dominates BERT's CPU time (6 calls x 12 layers).
    EXPECT_EQ(breakdown.byOp.front().opName, "aten::linear");
    EXPECT_EQ(breakdown.byOp.front().count, 73u); // 72 + pooler
    EXPECT_GT(breakdown.byOp.front().gpuNs, 0.0);
    EXPECT_EQ(breakdown.byOp.front().kernelLaunches, 73u);

    // Sorted by CPU time descending.
    for (std::size_t i = 1; i < breakdown.byOp.size(); ++i) {
        EXPECT_GE(breakdown.byOp[i - 1].cpuNs,
                  breakdown.byOp[i].cpuNs);
    }

    // Launch counts over all ops equal the kernel total.
    std::size_t launches = 0;
    for (const auto &stat : breakdown.byOp)
        launches += stat.kernelLaunches;
    EXPECT_EQ(launches, run.metrics.numKernels);
}

TEST(OpBreakdown, RenderAndJson)
{
    skip::ProfileResult run = skip::profilePrefill(
        workload::gpt2(), hw::platforms::gh200(), 1, 128);
    skip::DependencyGraph dep = skip::DependencyGraph::build(run.trace);
    skip::OpBreakdown breakdown = skip::computeOpBreakdown(dep);

    std::string text = breakdown.render(5);
    EXPECT_NE(text.find("Operator"), std::string::npos);

    json::Value doc = breakdown.toJson();
    EXPECT_EQ(doc.asObject().at("ops").asArray().size(),
              breakdown.byOp.size());
}

// ---------------------------------------------------------------- timeline

TEST(Timeline, RendersThreeRows)
{
    skip::ProfileResult run = skip::profilePrefill(
        workload::gpt2(), hw::platforms::intelH100(), 1, 128);
    trace::TimelineOptions opts;
    opts.width = 60;
    std::string out = trace::renderTimeline(run.trace, opts);
    EXPECT_NE(out.find("CPU ops"), std::string::npos);
    EXPECT_NE(out.find("CUDA API"), std::string::npos);
    EXPECT_NE(out.find("GPU"), std::string::npos);
    // Four lines: header + three rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Timeline, CpuBoundRunShowsBusyCpuSparseGpu)
{
    skip::ProfileResult run = skip::profilePrefill(
        workload::bertBaseUncased(), hw::platforms::gh200(), 1);
    trace::TimelineOptions opts;
    opts.width = 50;
    std::string out = trace::renderTimeline(run.trace, opts);

    auto row_of = [&](const std::string &label) {
        std::size_t pos = out.find(label);
        std::size_t bar = out.find('|', pos);
        return out.substr(bar + 1, opts.width);
    };
    auto busy_cols = [](const std::string &row) {
        std::size_t n = 0;
        for (char c : row) {
            if (c == '#' || c == '+')
                ++n;
        }
        return n;
    };
    EXPECT_GT(busy_cols(row_of("CPU ops")),
              2 * busy_cols(row_of("GPU")));
}

TEST(Timeline, InvalidInputsThrow)
{
    trace::Trace empty;
    EXPECT_THROW(trace::renderTimeline(empty), FatalError);

    skip::ProfileResult run = skip::profilePrefill(
        workload::gpt2(), hw::platforms::gh200(), 1, 128);
    trace::TimelineOptions opts;
    opts.width = 0;
    EXPECT_THROW(trace::renderTimeline(run.trace, opts), FatalError);
}

TEST(Timeline, WindowRestrictsRange)
{
    skip::ProfileResult run = skip::profilePrefill(
        workload::gpt2(), hw::platforms::gh200(), 1, 128);
    trace::TimelineOptions opts;
    opts.width = 40;
    opts.beginNs = 0;
    opts.endNs = run.trace.endNs() / 10;
    EXPECT_NO_THROW(trace::renderTimeline(run.trace, opts));

    opts.endNs = opts.beginNs;
    opts.beginNs = 100;
    opts.endNs = 50; // treated as unset -> full trace
    EXPECT_NO_THROW(trace::renderTimeline(run.trace, opts));
}

} // namespace
} // namespace skipsim

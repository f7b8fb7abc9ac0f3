/**
 * @file
 * Tests for continuous (iteration-level) batching: the iteration cost
 * model, conservation of requests/tokens, the latency advantage over
 * static batching at moderate load, and degenerate configurations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/sweep.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "serving/continuous.hh"
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

} // namespace
} // namespace skipsim::serving

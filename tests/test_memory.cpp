/**
 * @file
 * Tests for device-memory accounting (weights/KV/activations) and
 * Sarathi-style chunked prefill in the continuous-batching simulator.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "hw/catalog.hh"
#include "serving/continuous.hh"
#include "workload/memory.hh"
#include "workload/model_config.hh"

namespace skipsim
{
namespace
{

// ---------------------------------------------------------------- memory

TEST(Memory, WeightsMatchParamCount)
{
    workload::ModelConfig model = workload::llama32_1b();
    workload::MemoryFootprint fp =
        workload::estimateMemory(model, 1, 512);
    // FP16 weights: ~2 bytes per parameter.
    EXPECT_NEAR(fp.weightsBytes, model.paramsM() * 1e6 * 2.0, 1.0);
}

TEST(Memory, KvCacheGqaAware)
{
    // Llama-3.2-1B: 2 (K,V) x 16 layers x 8 kv heads x 64 dims x 2B
    // = 32 KiB per token.
    workload::MemoryFootprint fp =
        workload::estimateMemory(workload::llama32_1b(), 1, 1);
    EXPECT_NEAR(fp.kvCacheBytes, 32768.0, 1.0);

    // Full-head GPT2 caches heads/kvHeads = 1x; Llama's GQA shrinks it
    // by heads/kvHeads = 4x relative to a full-head variant.
    workload::ModelConfig full = workload::llama32_1b();
    full.kvHeads = full.heads;
    workload::MemoryFootprint fp_full =
        workload::estimateMemory(full, 1, 1);
    EXPECT_NEAR(fp_full.kvCacheBytes / fp.kvCacheBytes, 4.0, 1e-9);
}

TEST(Memory, ScalesWithBatchAndSeq)
{
    workload::ModelConfig model = workload::gpt2();
    auto kv = [&](int batch, int seq) {
        return workload::estimateMemory(model, batch, seq).kvCacheBytes;
    };
    EXPECT_NEAR(kv(8, 512) / kv(1, 512), 8.0, 1e-9);
    EXPECT_NEAR(kv(1, 1024) / kv(1, 512), 2.0, 1e-9);
    EXPECT_THROW(workload::estimateMemory(model, 0, 1), FatalError);
    EXPECT_THROW(workload::estimateMemory(model, 1, 0), FatalError);
}

TEST(Memory, LlamaFitsTensOfSequencesOnH100)
{
    double hbm = hw::platforms::intelH100().gpu.hbmBytes();
    int n = workload::maxResidentSequences(workload::llama32_1b(), 512,
                                           hbm);
    // 2.5 GB weights, ~33 MB KV per 512-token sequence plus
    // activations: hundreds fit on 80 GiB.
    EXPECT_GT(n, 100);
    EXPECT_LT(n, 20000);
}

TEST(Memory, ZeroWhenWeightsDoNotFit)
{
    EXPECT_EQ(workload::maxResidentSequences(workload::llama2_7b(), 512,
                                             1e9),
              0);
    EXPECT_EQ(workload::maxResidentSequences(workload::gpt2(), 512,
                                             0.0),
              0);
    EXPECT_THROW(workload::maxResidentSequences(workload::gpt2(), 0,
                                                1e9),
                 FatalError);
}

TEST(Memory, LongContextShrinksResidency)
{
    double hbm = hw::platforms::gh200().gpu.hbmBytes();
    int short_ctx = workload::maxResidentSequences(
        workload::llama32_1b(), 512, hbm);
    int long_ctx = workload::maxResidentSequences(
        workload::llama32_1b(), 8192, hbm);
    EXPECT_GT(short_ctx, 4 * long_ctx);
}

// --------------------------------------------------------- chunked prefill

serving::IterationCostModel &
costModel()
{
    static serving::IterationCostModel model(
        workload::gpt2(), hw::platforms::gh200(), 512);
    return model;
}

TEST(ChunkedPrefill, ChunkCostBelowFullPrefill)
{
    EXPECT_LT(costModel().chunkNs(128), costModel().prefillNs(1));
    EXPECT_THROW(costModel().chunkNs(0), FatalError);
}

TEST(ChunkedPrefill, RunsAndConserves)
{
    serving::ContinuousConfig config;
    config.arrivalRatePerSec = 20.0;
    config.horizonSec = 10.0;
    config.maxActive = 16;
    config.genTokens = 8;
    config.chunkTokens = 128;
    serving::ContinuousResult result =
        serving::simulateContinuous(costModel(), config);
    EXPECT_GT(result.completed, 50u);
    EXPECT_GT(result.tokensPerSec, 0.0);
    EXPECT_LE(result.p50TtftNs, result.p99TtftNs);
}

TEST(ChunkedPrefill, BoundsWorstIterationUnderLoad)
{
    // Unchunked: a full 32-wide prefill iteration stalls every active
    // decode; chunked iterations stay near decode + one chunk.
    serving::ContinuousConfig config;
    config.arrivalRatePerSec = 60.0;
    config.horizonSec = 10.0;
    config.maxActive = 32;
    config.genTokens = 16;

    config.chunkTokens = 0;
    serving::ContinuousResult whole =
        serving::simulateContinuous(costModel(), config);
    config.chunkTokens = 128;
    serving::ContinuousResult chunked =
        serving::simulateContinuous(costModel(), config);

    // Both serve the load; the chunked scheduler's mean iteration
    // (token) latency is tighter than whole-prompt stalls allow.
    EXPECT_GT(whole.completed, 0u);
    EXPECT_GT(chunked.completed, 0u);
    EXPECT_LT(chunked.meanTpotNs,
              whole.meanTpotNs + costModel().prefillNs(8));
}

TEST(ChunkedPrefill, DeterministicGivenSeed)
{
    serving::ContinuousConfig config;
    config.arrivalRatePerSec = 30.0;
    config.horizonSec = 5.0;
    config.chunkTokens = 256;
    serving::ContinuousResult a =
        serving::simulateContinuous(costModel(), config);
    serving::ContinuousResult b =
        serving::simulateContinuous(costModel(), config);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p99TtftNs, b.p99TtftNs);
}

} // namespace
} // namespace skipsim

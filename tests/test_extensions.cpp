/**
 * @file
 * Tests for the future-work extensions: autoregressive generation
 * (TTFT/TPOT), energy estimation, the DLRM/GCN workloads, the GB200
 * platform projection, and the custom-workload sweep plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/boundedness.hh"
#include "analysis/energy.hh"
#include "analysis/generation.hh"
#include "analysis/speculative.hh"
#include "analysis/sweep.hh"
#include "common/logging.hh"
#include "hw/catalog.hh"
#include "skip/profile.hh"
#include "workload/future_workloads.hh"

namespace skipsim
{
namespace
{

// ------------------------------------------------------------- generation

TEST(Generation, ProducesAllPhases)
{
    workload::BuildOptions prompt;
    prompt.batch = 2;
    prompt.seqLen = 256;
    analysis::GenerationResult result = analysis::simulateGeneration(
        workload::gpt2(), hw::platforms::intelH100(), prompt, 4);

    EXPECT_GT(result.ttftNs, 0.0);
    ASSERT_EQ(result.stepNs.size(), 4u);
    EXPECT_GT(result.tpotNs(), 0.0);
    EXPECT_NEAR(result.totalNs,
                result.ttftNs + 4.0 * result.tpotNs(),
                result.totalNs * 0.2);
    EXPECT_GT(result.tokensPerSecond(prompt.batch), 0.0);
    EXPECT_GE(result.worstStepNs(), result.tpotNs());
}

TEST(Generation, DecodeStepsCheaperThanPrefill)
{
    workload::BuildOptions prompt;
    prompt.seqLen = 512;
    analysis::GenerationResult result = analysis::simulateGeneration(
        workload::llama32_1b(), hw::platforms::gh200(), prompt, 2);
    EXPECT_LT(result.tpotNs(), result.ttftNs);
}

TEST(Generation, DecodeMoreCpuBoundThanPrefill)
{
    // The decode phase launches the same kernel count for ~1/512 the
    // work: TPOT is dominated by dispatch, so the Grace CPU penalty is
    // at its worst there (the extension's headline observation).
    workload::BuildOptions prompt;
    prompt.seqLen = 256;

    auto run = [&](const hw::Platform &platform) {
        return analysis::simulateGeneration(workload::gpt2(), platform,
                                            prompt, 2);
    };
    analysis::GenerationResult intel = run(hw::platforms::intelH100());
    analysis::GenerationResult gh = run(hw::platforms::gh200());

    double tpot_ratio = gh.tpotNs() / intel.tpotNs();
    EXPECT_GT(tpot_ratio, 2.0); // decode: almost pure CPU-speed ratio
}

TEST(Generation, InvalidTokensThrow)
{
    EXPECT_THROW(analysis::simulateGeneration(
                     workload::gpt2(), hw::platforms::gh200(), {}, 0),
                 FatalError);
}

TEST(Generation, TtftIsTheProfiledPrefill)
{
    // The prefill of a generation is the run skip::profile makes for
    // the same BuildOptions and SimOptions, jittered or not.
    for (const auto &model : {workload::gpt2(), workload::llama32_1b()}) {
        for (const auto &platform : hw::platforms::paperTrio()) {
            for (bool jitter : {false, true}) {
                workload::BuildOptions prompt;
                prompt.batch = 2;
                prompt.seqLen = 128;
                sim::SimOptions sim;
                sim.seed = 7;
                sim.jitter = jitter;
                analysis::GenerationResult gen =
                    analysis::simulateGeneration(model, platform,
                                                 prompt, 1, sim);
                skip::ProfileResult run =
                    skip::profile(model, platform, prompt, sim);
                EXPECT_EQ(gen.ttftNs, run.wallNs)
                    << model.name << " on " << platform.name
                    << " jitter " << jitter;
            }
        }
    }
}

// ----------------------------------------------------------------- energy

TEST(Energy, BreakdownSumsAndScales)
{
    skip::ProfileResult run = skip::profilePrefill(
        workload::bertBaseUncased(), hw::platforms::gh200(), 8);
    analysis::EnergyReport energy = analysis::estimateEnergy(
        run.metrics, hw::platforms::gh200(), 8);

    EXPECT_GT(energy.cpuJoules, 0.0);
    EXPECT_GT(energy.gpuJoules, 0.0);
    EXPECT_NEAR(energy.joulesPerRequest * 8.0, energy.totalJoules(),
                1e-9);
    EXPECT_GT(energy.meanPowerW, 100.0);
    // Mean power cannot exceed the all-busy ceiling.
    hw::Platform gh = hw::platforms::gh200();
    EXPECT_LT(energy.meanPowerW,
              gh.cpu.busyPowerW + gh.gpu.busyPowerW + 1.0);
}

TEST(Energy, LargerBatchCheaperPerRequest)
{
    hw::Platform gh = hw::platforms::gh200();
    auto per_request = [&](int batch) {
        skip::ProfileResult run = skip::profilePrefill(
            workload::bertBaseUncased(), gh, batch);
        return analysis::estimateEnergy(run.metrics, gh, batch)
            .joulesPerRequest;
    };
    EXPECT_LT(per_request(32), per_request(1));
}

TEST(Energy, InvalidBatchThrows)
{
    skip::MetricsReport metrics;
    EXPECT_THROW(analysis::estimateEnergy(
                     metrics, hw::platforms::gh200(), 0),
                 FatalError);
}

// ----------------------------------------------------------- DLRM workload

TEST(Dlrm, GraphShape)
{
    workload::OperatorGraph graph =
        workload::buildDlrmGraph(workload::dlrmRm2(), 64);
    // 3 bottom (gemm+relu) + 26 gathers + 3 interaction + 5 top gemm +
    // 4 relu + sigmoid = 45 kernels.
    EXPECT_EQ(graph.numKernelLaunches(), 45u);
    EXPECT_EQ(graph.numMemcpys(), 1u);
    EXPECT_GT(graph.totalBytes(), 0.0);
    EXPECT_THROW(workload::buildDlrmGraph(workload::dlrmRm2(), 0),
                 FatalError);
}

TEST(Dlrm, DeeplyCpuBoundEvenAtLargeBatch)
{
    // A 45-kernel forward of tiny GEMMs and gathers stays CPU-bound
    // far beyond LLM batch sizes.
    workload::DlrmConfig config = workload::dlrmRm2();
    analysis::SweepResult sweep = analysis::runCustomSweep(
        config.name, hw::platforms::gh200(),
        [&](int batch) {
            return workload::buildDlrmGraph(config, batch);
        },
        {64, 256, 1024});
    auto bound = analysis::classifyBoundedness(sweep);
    EXPECT_EQ(bound.classify(256), analysis::Boundedness::CpuBound);
}

TEST(Dlrm, EmbeddingGathersDominateLaunches)
{
    skip::MetricsReport metrics;
    {
        sim::Simulator simulator(hw::platforms::intelH100());
        sim::SimResult result = simulator.run(
            workload::buildDlrmGraph(workload::dlrmRm2(), 128));
        metrics = skip::computeMetrics(
            skip::DependencyGraph::build(std::move(result.trace)));
    }
    auto top = metrics.topK(1, skip::TopKBy::Count);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].name, "embedding_bag_sum_128");
    EXPECT_EQ(top[0].count, 26u);
}

// ------------------------------------------------------------ GCN workload

TEST(Gcn, GraphShape)
{
    workload::OperatorGraph graph =
        workload::buildGcnGraph(workload::gcnProducts());
    // 3 x (spmm + gemm) + 2 relu + softmax = 9 kernels.
    EXPECT_EQ(graph.numKernelLaunches(), 9u);
    EXPECT_GT(graph.totalFlops(), 1e10);
    EXPECT_THROW(workload::buildGcnGraph(workload::gcnProducts(), 0),
                 FatalError);
}

TEST(Gcn, GpuBoundFromTheStart)
{
    workload::GcnConfig config = workload::gcnProducts();
    analysis::SweepResult sweep = analysis::runCustomSweep(
        config.name, hw::platforms::intelH100(),
        [&](int batch) { return workload::buildGcnGraph(config, batch); },
        {1, 2, 4});
    auto bound = analysis::classifyBoundedness(sweep);
    ASSERT_TRUE(bound.transitionBatch.has_value());
    EXPECT_EQ(*bound.transitionBatch, 1);
}

TEST(Gcn, BandwidthBoundFavoursGh200Immediately)
{
    workload::GcnConfig config = workload::gcnProducts();
    auto latency = [&](const hw::Platform &platform) {
        sim::Simulator simulator(platform);
        return simulator.run(workload::buildGcnGraph(config)).wallNs;
    };
    // SpMM streams edges: the 2x-bandwidth GH200 wins at batch 1,
    // unlike the LLM workloads.
    EXPECT_LT(latency(hw::platforms::gh200()),
              latency(hw::platforms::intelH100()));
}

// ------------------------------------------------------------------ GB200

TEST(Gb200, CatalogEntrySane)
{
    hw::Platform gb = hw::platforms::gb200();
    EXPECT_EQ(gb.coupling, hw::Coupling::CloselyCoupled);
    EXPECT_TRUE(gb.unifiedMemory);
    EXPECT_GT(gb.gpu.fp16Tflops, hw::platforms::gh200().gpu.fp16Tflops);
    EXPECT_GT(gb.gpu.memBwGBs, hw::platforms::gh200().gpu.memBwGBs);
    EXPECT_EQ(hw::platforms::byName("gb200").name, "GB200");
}

TEST(Gb200, ExtendsCpuBoundRegionFurtherThanGh200)
{
    // A faster GPU behind the same CPU widens the CPU-bound region
    // even more (the paper's trend extrapolated one generation).
    auto sweep = [&](const hw::Platform &platform) {
        return analysis::runBatchSweep(workload::bertBaseUncased(),
                                       platform,
                                       {1, 2, 4, 8, 16, 32, 64, 128});
    };
    auto gh = analysis::classifyBoundedness(
        sweep(hw::platforms::gh200()));
    auto gb = analysis::classifyBoundedness(
        sweep(hw::platforms::gb200()));
    ASSERT_TRUE(gh.transitionBatch.has_value());
    if (gb.transitionBatch) {
        EXPECT_GE(*gb.transitionBatch, *gh.transitionBatch);
    }
    EXPECT_GE(gb.lastCpuBoundBatch, gh.lastCpuBoundBatch);
}

// ------------------------------------------------------------- speculative

TEST(Speculative, EagerDecodeGainsNothing)
{
    // Launch-bound eager decode: k draft forwards cost nearly as much
    // as target forwards, so speculation loses (the launch-tax story).
    analysis::SpeculativeConfig config;
    config.draft = workload::tinyLlama1b();
    config.target = workload::llama2_7b();
    config.k = 4;
    workload::BuildOptions context;
    context.seqLen = 256;
    analysis::SpeculativeResult result = analysis::evaluateSpeculative(
        hw::platforms::intelH100(), config, context);
    EXPECT_LT(result.speedup, 1.0);
    EXPECT_GT(result.draftStepNs, 0.3 * result.baselineTpotNs);
}

TEST(Speculative, GraphDecodeRecoversOnFastCpu)
{
    analysis::SpeculativeConfig config;
    config.draft = workload::tinyLlama1b();
    config.target = workload::llama2_7b();
    config.k = 2;
    workload::BuildOptions context;
    context.seqLen = 256;
    context.mode = workload::ExecMode::CompileReduceOverhead;

    analysis::SpeculativeResult intel = analysis::evaluateSpeculative(
        hw::platforms::intelH100(), config, context);
    analysis::SpeculativeResult gh = analysis::evaluateSpeculative(
        hw::platforms::gh200(), config, context);
    // Fast-CPU LC platform benefits; the Grace CPU still gates it.
    EXPECT_GT(intel.speedup, 1.0);
    EXPECT_GT(intel.speedup, gh.speedup);
}

TEST(Speculative, ExpectedTokensFormula)
{
    analysis::SpeculativeConfig config;
    config.draft = workload::gpt2();
    config.target = workload::llama32_1b();
    config.k = 4;
    config.acceptRate = 0.5;
    workload::BuildOptions context;
    context.seqLen = 128;
    analysis::SpeculativeResult result = analysis::evaluateSpeculative(
        hw::platforms::gh200(), config, context);
    // (1 - 0.5^5) / (1 - 0.5) = 1.9375 expected tokens per cycle.
    EXPECT_NEAR(result.expectedTokensPerCycle, 1.9375, 1e-9);
    EXPECT_NEAR(result.cycleNs,
                4.0 * result.draftStepNs + result.verifyNs,
                result.cycleNs * 0.01);
}

TEST(Speculative, InvalidConfigThrows)
{
    analysis::SpeculativeConfig config;
    config.draft = workload::gpt2();
    config.target = workload::llama32_1b();
    config.k = 0;
    EXPECT_THROW(analysis::evaluateSpeculative(hw::platforms::gh200(),
                                               config),
                 FatalError);
    config.k = 2;
    for (double bad : {1.0, -0.1, std::nan(""),
                       std::numeric_limits<double>::infinity()}) {
        config.acceptRate = bad;
        EXPECT_THROW(analysis::evaluateSpeculative(
                         hw::platforms::gh200(), config),
                     FatalError)
            << "acceptRate " << bad;
    }
}

TEST(Speculative, BaselineIsTheFirstGenerationStep)
{
    // Without jitter, the plain-decoding baseline is the first decode
    // step of a generation over the same prompt shape.
    for (const auto &target : {workload::gpt2(), workload::llama32_1b()}) {
        for (const auto &platform : hw::platforms::paperTrio()) {
            workload::BuildOptions context;
            context.seqLen = 128;
            analysis::SpeculativeResult spec =
                analysis::evaluateSpeculative(
                    platform, {workload::gpt2(), target, 2, 0.7},
                    context);
            analysis::GenerationResult gen =
                analysis::simulateGeneration(target, platform, context,
                                             1);
            EXPECT_EQ(spec.baselineTpotNs, gen.stepNs[0])
                << target.name << " on " << platform.name;
        }
    }
}

// ------------------------------------------------------------ custom sweep

TEST(CustomSweep, MatchesModelSweepForLlm)
{
    workload::ModelConfig model = workload::gpt2();
    hw::Platform platform = hw::platforms::amdA100();
    std::vector<int> batches{1, 4};

    analysis::SweepResult via_model =
        analysis::runBatchSweep(model, platform, batches);
    analysis::SweepResult via_custom = analysis::runCustomSweep(
        "GPT2", platform,
        [&](int batch) {
            workload::BuildOptions opts;
            opts.batch = batch;
            return workload::buildPrefillGraph(model, opts);
        },
        batches);

    for (int batch : batches) {
        EXPECT_DOUBLE_EQ(via_custom.at(batch).metrics.ilNs,
                         via_model.at(batch).metrics.ilNs);
        EXPECT_DOUBLE_EQ(via_custom.at(batch).metrics.tklqtNs,
                         via_model.at(batch).metrics.tklqtNs);
    }
    EXPECT_THROW(analysis::runCustomSweep(
                     "x", platform,
                     [&](int) { return workload::OperatorGraph{}; }, {}),
                 FatalError);
}

} // namespace
} // namespace skipsim

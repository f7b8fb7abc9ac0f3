/**
 * @file
 * Unit tests for the workload module: model catalog (Table III),
 * operator-graph builders (kernel counts, FLOP sanity), execution-mode
 * rewrites (FlashAttention2, torch.compile variants), and the
 * compile-time model (Table I structure).
 */

#include <set>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/compile_model.hh"
#include "workload/exec_mode.hh"
#include "workload/model_config.hh"

namespace skipsim::workload
{
namespace
{

BuildOptions
opts(int batch = 1, int seq = 512, ExecMode mode = ExecMode::Eager)
{
    BuildOptions o;
    o.batch = batch;
    o.seqLen = seq;
    o.mode = mode;
    return o;
}

// ----------------------------------------------------------- model catalog

TEST(ModelCatalog, PaperQuartetMatchesTableIII)
{
    auto quartet = paperQuartet();
    ASSERT_EQ(quartet.size(), 4u);
    EXPECT_EQ(quartet[0].name, "Bert-Base-Uncased");
    EXPECT_EQ(quartet[0].family, ModelFamily::EncoderOnly);
    EXPECT_EQ(quartet[1].name, "XLM-Roberta-Base");
    EXPECT_EQ(quartet[1].family, ModelFamily::EncoderOnly);
    EXPECT_EQ(quartet[2].name, "GPT2");
    EXPECT_EQ(quartet[2].family, ModelFamily::DecoderOnly);
    EXPECT_EQ(quartet[3].name, "Llama-3.2-1B");
    EXPECT_EQ(quartet[3].family, ModelFamily::DecoderOnly);
}

TEST(ModelCatalog, ParameterCountsMatchTableIII)
{
    // Table III: 110M / 279M / 137M / 1.24B (within 15%).
    EXPECT_NEAR(bertBaseUncased().paramsM(), 110.0, 110.0 * 0.15);
    EXPECT_NEAR(xlmRobertaBase().paramsM(), 279.0, 279.0 * 0.15);
    EXPECT_NEAR(gpt2().paramsM(), 137.0, 137.0 * 0.15);
    EXPECT_NEAR(llama32_1b().paramsM(), 1240.0, 1240.0 * 0.15);
}

TEST(ModelCatalog, SevenBModelsAreSevenB)
{
    for (const auto &model : sevenBSet()) {
        EXPECT_GT(model.paramsM(), 5500.0) << model.name;
        EXPECT_LT(model.paramsM(), 9000.0) << model.name;
    }
}

TEST(ModelCatalog, GemmaIsTwoB)
{
    EXPECT_NEAR(gemma2b().paramsM(), 2500.0, 800.0);
}

TEST(ModelCatalog, ExtensionModelsSized)
{
    EXPECT_NEAR(phi2().paramsM(), 2780.0, 500.0);
    EXPECT_NEAR(tinyLlama1b().paramsM(), 1100.0, 250.0);
    EXPECT_NEAR(qwen2_15b().paramsM(), 1540.0, 400.0);
    // GQA/MQA configurations are consistent.
    EXPECT_EQ(tinyLlama1b().kvHeads, 4);
    EXPECT_EQ(qwen2_15b().kvHeads, 2);
    EXPECT_EQ(phi2().kvHeads, phi2().heads);
}

TEST(ModelCatalog, HeadDimConsistent)
{
    EXPECT_EQ(bertBaseUncased().headDim(), 64);
    EXPECT_EQ(llama32_1b().headDim(), 64);
}

TEST(ModelCatalog, GqaModelsHaveFewerKvHeads)
{
    EXPECT_LT(llama32_1b().kvHeads, llama32_1b().heads);
    EXPECT_EQ(gpt2().kvHeads, gpt2().heads);
    EXPECT_EQ(falcon7b().kvHeads, 1); // multi-query attention
}

TEST(ModelCatalog, ByNameLookup)
{
    EXPECT_EQ(modelByName("gpt2").name, "GPT2");
    EXPECT_EQ(modelByName("LLAMA-3.2-1B").layers, 16);
    EXPECT_THROW(modelByName("gpt5"), FatalError);
}

TEST(ModelCatalog, AllNamesResolvable)
{
    for (const auto &name : modelNames())
        EXPECT_NO_THROW(modelByName(name));
}

TEST(ExecModes, NamesRoundTrip)
{
    for (ExecMode mode : allExecModes())
        EXPECT_EQ(execModeByName(execModeName(mode)), mode);
    EXPECT_THROW(execModeByName("jit"), FatalError);
}

// ------------------------------------------------------- eager kernel counts

TEST(Builder, BertEagerKernelCount)
{
    // 9 prologue + 12 layers x 24 + 2 pooler = 299 (the XLM-R anchor
    // behind the paper's 6.8x L=256 fusion speedup, Fig. 8).
    OperatorGraph graph = buildPrefillGraph(bertBaseUncased(), opts());
    EXPECT_EQ(graph.numKernelLaunches(), 299u);
    EXPECT_EQ(graph.numMemcpys(), 1u);
}

TEST(Builder, XlmRobertaSameStructureAsBert)
{
    OperatorGraph graph = buildPrefillGraph(xlmRobertaBase(), opts());
    EXPECT_EQ(graph.numKernelLaunches(), 299u);
}

TEST(Builder, Gpt2EagerKernelCount)
{
    // 3 prologue + 12 layers x 33 + 6 epilogue = 405 (the GPT2 anchor
    // behind the paper's 2.7x L=256 fusion speedup, Fig. 8).
    OperatorGraph graph = buildPrefillGraph(gpt2(), opts());
    EXPECT_EQ(graph.numKernelLaunches(), 405u);
}

TEST(Builder, LlamaEagerKernelCount)
{
    // 4 prologue + 16 layers x 35 + 6 epilogue = 570.
    OperatorGraph graph = buildPrefillGraph(llama32_1b(), opts());
    EXPECT_EQ(graph.numKernelLaunches(), 570u);
}

TEST(Builder, KernelCountIndependentOfBatch)
{
    for (int batch : {1, 4, 32}) {
        OperatorGraph graph =
            buildPrefillGraph(gpt2(), opts(batch));
        EXPECT_EQ(graph.numKernelLaunches(), 405u) << batch;
    }
}

TEST(Builder, KernelNamesDependOnBatchForGemms)
{
    auto seq1 = buildPrefillGraph(gpt2(), opts(1)).kernelSequence();
    auto seq8 = buildPrefillGraph(gpt2(), opts(8)).kernelSequence();
    ASSERT_EQ(seq1.size(), seq8.size());
    bool gemm_differs = false;
    for (std::size_t i = 0; i < seq1.size(); ++i) {
        if (startsWith(seq1[i], "gemm_") && seq1[i] != seq8[i])
            gemm_differs = true;
    }
    EXPECT_TRUE(gemm_differs);
}

TEST(Builder, SequenceDeterministicAcrossBuilds)
{
    auto a = buildPrefillGraph(gpt2(), opts()).kernelSequence();
    auto b = buildPrefillGraph(gpt2(), opts()).kernelSequence();
    EXPECT_EQ(a, b);
}

TEST(Builder, FirstKernelIsUniqueAnchor)
{
    // The word-embedding gather is the unique chain anchor that makes
    // the prologue-rooted long chain deterministic (PS = 1).
    auto seq = buildPrefillGraph(gpt2(), opts()).kernelSequence();
    std::size_t count = 0;
    for (const auto &name : seq) {
        if (name == seq.front())
            ++count;
    }
    EXPECT_EQ(count, 1u);
}

// -------------------------------------------------------------- flop sanity

TEST(Builder, FlopsScaleLinearlyWithBatch)
{
    double f1 = buildPrefillGraph(gpt2(), opts(1)).totalFlops();
    double f8 = buildPrefillGraph(gpt2(), opts(8)).totalFlops();
    EXPECT_NEAR(f8 / f1, 8.0, 0.2);
}

TEST(Builder, FlopsMatchTwoParamsTokensRule)
{
    // Prefill FLOPs ~ 2 * params * tokens for weight GEMMs (attention
    // adds the rest), so the total must be within ~2x of that rule.
    ModelConfig model = llama32_1b();
    OperatorGraph graph = buildPrefillGraph(model, opts());
    double expected = 2.0 * model.paramsM() * 1e6 * 512;
    EXPECT_GT(graph.totalFlops(), 0.6 * expected);
    EXPECT_LT(graph.totalFlops(), 2.5 * expected);
}

TEST(Builder, BiggerModelMoreFlops)
{
    double small = buildPrefillGraph(gpt2(), opts()).totalFlops();
    double large = buildPrefillGraph(llama2_7b(), opts()).totalFlops();
    EXPECT_GT(large, 10.0 * small);
}

TEST(Builder, CpuCostScaleMultiplies)
{
    BuildOptions base = opts();
    BuildOptions scaled = opts();
    scaled.cpuCostScale = 2.0;
    double cpu1 =
        buildPrefillGraph(gpt2(), base).totalCpuNs();
    double cpu2 =
        buildPrefillGraph(gpt2(), scaled).totalCpuNs();
    EXPECT_NEAR(cpu2 / cpu1, 2.0, 1e-9);
}

TEST(Builder, InvalidOptionsThrow)
{
    EXPECT_THROW(buildPrefillGraph(gpt2(), opts(0)), FatalError);
    EXPECT_THROW(buildPrefillGraph(gpt2(), opts(1, 0)), FatalError);
}

// ------------------------------------------------------------ FlashAttention

TEST(Builder, FlashAttentionReducesKernels)
{
    OperatorGraph eager = buildPrefillGraph(bertBaseUncased(), opts());
    OperatorGraph fa2 = buildPrefillGraph(
        bertBaseUncased(), opts(1, 512, ExecMode::FlashAttention2));
    // Encoder: 9 attention kernels fuse into 1 per layer.
    EXPECT_EQ(fa2.numKernelLaunches(),
              eager.numKernelLaunches() - 12u * 8u);
}

TEST(Builder, FlashAttentionEmitsFlashKernel)
{
    OperatorGraph fa2 = buildPrefillGraph(
        llama32_1b(), opts(1, 512, ExecMode::FlashAttention2));
    std::size_t flash = 0;
    for (const auto &name : fa2.kernelSequence()) {
        if (startsWith(name, "flash_fwd_kernel"))
            ++flash;
    }
    EXPECT_EQ(flash, 16u); // one per layer
}

TEST(Builder, FlashAttentionCutsBytes)
{
    // FA2 avoids materializing the S x S score matrix.
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts(8));
    OperatorGraph fa2 =
        buildPrefillGraph(gpt2(), opts(8, 512,
                                       ExecMode::FlashAttention2));
    EXPECT_LT(fa2.totalBytes(), eager.totalBytes());
}

TEST(Builder, FlashAttentionKeepsGemmFlops)
{
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts());
    OperatorGraph fa2 = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::FlashAttention2));
    EXPECT_NEAR(fa2.totalFlops() / eager.totalFlops(), 1.0, 0.1);
}

// ------------------------------------------------------------ compile modes

TEST(Builder, CompileDefaultFusesAndDropsCopies)
{
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts());
    OperatorGraph compiled = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileDefault));
    EXPECT_LT(compiled.numKernelLaunches(),
              eager.numKernelLaunches() / 2);
    for (const auto &name : compiled.kernelSequence())
        EXPECT_FALSE(startsWith(name, "copy_")) << name;
}

TEST(Builder, CompileDefaultEmitsTritonKernels)
{
    OperatorGraph compiled = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileDefault));
    bool triton = false;
    for (const auto &name : compiled.kernelSequence()) {
        if (startsWith(name, "triton_fused_"))
            triton = true;
    }
    EXPECT_TRUE(triton);
}

TEST(Builder, CompileDefaultKeepsGemms)
{
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts());
    OperatorGraph compiled = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileDefault));
    auto count_gemms = [](const OperatorGraph &g) {
        std::size_t n = 0;
        for (const auto &name : g.kernelSequence()) {
            if (startsWith(name, "gemm_") || startsWith(name, "bmm_"))
                ++n;
        }
        return n;
    };
    EXPECT_EQ(count_gemms(compiled), count_gemms(eager));
}

TEST(Builder, CompileDefaultSavesBytes)
{
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts());
    OperatorGraph compiled = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileDefault));
    EXPECT_LT(compiled.totalBytes(), eager.totalBytes());
}

TEST(Builder, ReduceOverheadIsOneGraphLaunch)
{
    OperatorGraph graph = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileReduceOverhead));
    EXPECT_EQ(graph.numKernelLaunches(), 1u);
    auto seq = graph.kernelSequence();
    ASSERT_EQ(seq.size(), 1u);
    EXPECT_EQ(seq[0], "cuda_graph_exec");
}

TEST(Builder, ReduceOverheadPreservesWork)
{
    OperatorGraph def = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileDefault));
    OperatorGraph ro = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileReduceOverhead));
    EXPECT_NEAR(ro.totalFlops(), def.totalFlops(), 1.0);
    EXPECT_NEAR(ro.totalBytes(), def.totalBytes(), 1.0);
}

TEST(Builder, MaxAutotuneSpeedsGemms)
{
    OperatorGraph ro = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileReduceOverhead));
    OperatorGraph ma = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileMaxAutotune));
    // Autotuned GEMMs are modeled as fewer effective FLOPs.
    EXPECT_LT(ma.totalFlops(), ro.totalFlops());
}

TEST(Builder, CompiledCpuCostWellBelowEager)
{
    // Compiled modes keep the wrapper/guard cost but shed per-op
    // dispatch, landing well under eager's framework time.
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts());
    OperatorGraph ro = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileReduceOverhead));
    EXPECT_LT(ro.totalCpuNs(), eager.totalCpuNs() / 2.0);
    OperatorGraph def = buildPrefillGraph(
        gpt2(), opts(1, 512, ExecMode::CompileDefault));
    EXPECT_LT(def.totalCpuNs(), eager.totalCpuNs());
}

// --------------------------------------------------------- nullKernel graph

TEST(Builder, NullKernelGraphShape)
{
    OperatorGraph graph = buildNullKernelGraph(100);
    EXPECT_EQ(graph.numKernelLaunches(), 100u);
    EXPECT_EQ(graph.numOps(), 100u);
    EXPECT_DOUBLE_EQ(graph.totalFlops(), 0.0);
    EXPECT_THROW(buildNullKernelGraph(0), FatalError);
}

// --------------------------------------------------------- decode extension

TEST(Builder, DecodeStepUsesSequenceLengthOne)
{
    OperatorGraph decode =
        buildDecodeStepGraph(gpt2(), opts(), 512);
    OperatorGraph prefill = buildPrefillGraph(gpt2(), opts());
    EXPECT_EQ(decode.numKernelLaunches(),
              prefill.numKernelLaunches());
    EXPECT_LT(decode.totalFlops(), prefill.totalFlops() / 50.0);
}

TEST(Builder, DecodeStepScalesWithContext)
{
    OperatorGraph short_ctx =
        buildDecodeStepGraph(gpt2(), opts(), 128);
    OperatorGraph long_ctx =
        buildDecodeStepGraph(gpt2(), opts(), 4096);
    EXPECT_GT(long_ctx.totalFlops(), short_ctx.totalFlops());
    EXPECT_THROW(buildDecodeStepGraph(gpt2(), opts(), 0), FatalError);
}

TEST(Builder, CompiledDecodeCoversTheKvCache)
{
    // The decode rule resizes the eager stream before compilation, so
    // a compiled step prices its attention over the whole KV cache:
    // fusion sums FLOPs and the layout copies it drops carry none.
    const ModelConfig model = llama2_7b();
    const sim::Simulator simulator(hw::platforms::intelH100());
    for (ExecMode mode :
         {ExecMode::CompileDefault, ExecMode::CompileReduceOverhead,
          ExecMode::CompileMaxAutotune}) {
        const BuildOptions compiled = opts(8, 512, mode);
        const std::string at = execModeName(mode);
        // Max-autotune divides GEMM and attention FLOPs by its speedup.
        if (mode != ExecMode::CompileMaxAutotune) {
            for (int ctx : {1, 512, 4096}) {
                double eager =
                    buildDecodeStepGraph(model, opts(8), ctx).totalFlops();
                EXPECT_NEAR(
                    buildDecodeStepGraph(model, compiled, ctx).totalFlops(),
                    eager, 1e-12 * eager)
                    << at << " context " << ctx;
            }
        }
        EXPECT_GT(buildDecodeStepGraph(model, compiled, 4096).totalBytes(),
                  buildDecodeStepGraph(model, compiled, 1).totalBytes())
            << at;
        EXPECT_GT(simulator.wallNs(model, compiled, 4096),
                  simulator.wallNs(model, compiled, 1))
            << at;
    }
}

// ----------------------------------------------------------- compile times

TEST(CompileTime, OrderingMatchesTableI)
{
    OperatorGraph eager = buildPrefillGraph(gemma2b(), opts(1, 1024));
    double t_eager = compileTimeNs(ExecMode::Eager, eager, 1.0);
    double t_def = compileTimeNs(ExecMode::CompileDefault, eager, 1.0);
    double t_ro =
        compileTimeNs(ExecMode::CompileReduceOverhead, eager, 1.0);
    double t_ma = compileTimeNs(ExecMode::CompileMaxAutotune, eager, 1.0);
    EXPECT_LT(t_eager, t_def);
    EXPECT_LT(t_def, t_ro);
    EXPECT_LT(t_ro, t_ma);
}

TEST(CompileTime, TableIValuesWithinBand)
{
    // Paper Table I: 0.40644 / 6.2844 / 12.7469 / 387.3 seconds.
    OperatorGraph eager = buildPrefillGraph(gemma2b(), opts(1, 1024));
    EXPECT_NEAR(compileTimeNs(ExecMode::Eager, eager, 1.0) / 1e9,
                0.40644, 0.40644 * 0.15);
    EXPECT_NEAR(compileTimeNs(ExecMode::CompileDefault, eager, 1.0) / 1e9,
                6.2844, 6.2844 * 0.15);
    EXPECT_NEAR(compileTimeNs(ExecMode::CompileReduceOverhead, eager,
                              1.0) / 1e9,
                12.7469, 12.7469 * 0.15);
    EXPECT_NEAR(compileTimeNs(ExecMode::CompileMaxAutotune, eager,
                              1.0) / 1e9,
                387.3, 387.3 * 0.15);
}

TEST(CompileTime, SlowerCpuCompilesSlower)
{
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts());
    double fast = compileTimeNs(ExecMode::CompileDefault, eager, 1.0);
    double slow = compileTimeNs(ExecMode::CompileDefault, eager, 0.5);
    EXPECT_NEAR(slow / fast, 2.0, 1e-9);
    EXPECT_THROW(compileTimeNs(ExecMode::Eager, eager, 0.0), FatalError);
}

TEST(CompileTime, UniqueGemmShapesCounted)
{
    OperatorGraph eager = buildPrefillGraph(gpt2(), opts());
    std::size_t shapes = uniqueGemmShapes(eager);
    // GPT2: c_attn, c_proj, c_fc, mlp c_proj, lm_head + 2 bmm shapes.
    EXPECT_GE(shapes, 5u);
    EXPECT_LE(shapes, 9u);
}

// -------------------------------------------------- parameterized model sweep

class AllModelsBuild : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllModelsBuild, EagerGraphWellFormed)
{
    ModelConfig model = modelByName(GetParam());
    OperatorGraph graph = buildPrefillGraph(model, opts(2, 256));
    EXPECT_GT(graph.numKernelLaunches(), 100u);
    EXPECT_GT(graph.totalFlops(), 0.0);
    EXPECT_GT(graph.totalBytes(), 0.0);
    EXPECT_GT(graph.totalCpuNs(), 0.0);
    EXPECT_EQ(graph.kernelSequence().size(), graph.numKernelLaunches());
}

TEST_P(AllModelsBuild, AllModesBuild)
{
    ModelConfig model = modelByName(GetParam());
    for (ExecMode mode : allExecModes()) {
        OperatorGraph graph =
            buildPrefillGraph(model, opts(1, 128, mode));
        EXPECT_GE(graph.numKernelLaunches(), 1u)
            << execModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, AllModelsBuild,
    ::testing::Values("Bert-Base-Uncased", "XLM-Roberta-Base", "GPT2",
                      "Llama-3.2-1B", "Gemma-2B", "Llama-2-7B",
                      "Mistral-7B", "Qwen-7B", "Falcon-7B", "Phi-2",
                      "TinyLlama-1.1B", "Qwen2-1.5B"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace skipsim::workload

#include "workload/builder.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"

namespace skipsim::workload
{

namespace
{

constexpr double f16 = 2.0;
constexpr double f32 = 4.0;
constexpr double idx64 = 8.0;

using hw::KernelClass;
using hw::KernelWork;

/** @name Kernel work constructors (shapes -> flops/bytes) @{ */

KernelWork
gemmWork(double m, double n, double k)
{
    KernelWork w;
    w.cls = KernelClass::Gemm;
    w.flops = 2.0 * m * n * k;
    w.bytes = f16 * (m * k + k * n + m * n);
    w.rows = m;
    return w;
}

KernelWork
bmmWork(double b, double m, double n, double k)
{
    KernelWork w;
    w.cls = KernelClass::Gemm;
    w.flops = 2.0 * b * m * n * k;
    w.bytes = f16 * b * (m * k + k * n + m * n);
    w.rows = b * m;
    return w;
}

KernelWork
ewWork(double elems, double reads, double writes, double dtype = f16)
{
    KernelWork w;
    w.cls = KernelClass::Elementwise;
    w.flops = elems;
    w.bytes = elems * dtype * (reads + writes);
    return w;
}

KernelWork
castWork(double elems, double from, double to)
{
    KernelWork w;
    w.cls = KernelClass::Elementwise;
    w.flops = elems;
    w.bytes = elems * (from + to);
    return w;
}

KernelWork
softmaxWork(double rows, double cols, double dtype)
{
    KernelWork w;
    w.cls = KernelClass::Softmax;
    w.flops = 5.0 * rows * cols;
    w.bytes = rows * cols * dtype * 2.0;
    return w;
}

KernelWork
normWork(double rows, double width, double dtype)
{
    KernelWork w;
    w.cls = KernelClass::Norm;
    w.flops = 8.0 * rows * width;
    w.bytes = rows * width * dtype * 2.0 + width * 2.0 * f16;
    return w;
}

KernelWork
copyWork(double elems)
{
    KernelWork w;
    w.cls = KernelClass::Copy;
    w.bytes = elems * f16 * 2.0;
    return w;
}

KernelWork
embeddingWork(double rows, double width)
{
    KernelWork w;
    w.cls = KernelClass::Embedding;
    w.bytes = rows * (width * f16 * 2.0 + idx64);
    return w;
}

KernelWork
reduceWork(double in_elems, double out_elems, double dtype)
{
    KernelWork w;
    w.cls = KernelClass::Reduction;
    w.flops = in_elems;
    w.bytes = in_elems * dtype + out_elems * dtype;
    return w;
}

KernelWork
whereWork(double elems)
{
    KernelWork w;
    w.cls = KernelClass::Elementwise;
    w.flops = elems;
    w.bytes = elems * (f16 * 3.0 + 1.0);
    return w;
}

KernelWork
flashAttentionWork(double b, double heads, double s, double hd,
                   double hidden)
{
    KernelWork w;
    w.cls = KernelClass::Attention;
    w.flops = 4.0 * b * heads * s * s * hd; // QK^T and PV matmuls
    // IO-aware: only Q, K, V, O round trips plus the log-sum-exp rows.
    w.bytes = 4.0 * b * s * hidden * f16 + b * heads * s * f32;
    w.rows = b * heads * s;
    return w;
}

/** @} */

std::string
num(double v)
{
    return std::to_string(static_cast<long long>(v));
}

/** Builds one forward-pass graph for a model/options pair. */
class GraphEmitter
{
  public:
    GraphEmitter(const ModelConfig &model, const BuildOptions &opts)
        : m(model), o(opts),
          B(opts.batch), S(opts.seqLen), H(model.hidden),
          I(model.intermediate), NH(model.heads), KVH(model.kvHeads),
          HD(model.headDim()), TP(opts.tensorParallel)
    {
        if (opts.batch <= 0)
            fatal("buildPrefillGraph: batch must be positive");
        if (opts.seqLen <= 0)
            fatal("buildPrefillGraph: seqLen must be positive");
        if (TP < 1)
            fatal("buildPrefillGraph: tensorParallel must be >= 1");
        if (TP > 1) {
            if (model.heads % opts.tensorParallel != 0 ||
                model.intermediate % opts.tensorParallel != 0 ||
                model.vocab % opts.tensorParallel != 0) {
                fatal("buildPrefillGraph: heads, intermediate and vocab "
                      "must be divisible by the tensor-parallel degree");
            }
            // Per-rank shards: attention heads, grouped KV heads
            // (replicated when fewer than the degree) and MLP columns.
            NH /= TP;
            KVH = std::max(1.0, KVH / TP);
            I /= TP;
        }
    }

    OperatorGraph
    buildPrefill()
    {
        OperatorGraph graph;
        emitInputTransfer(graph.roots);
        if (m.family == ModelFamily::EncoderOnly) {
            emitEncoderPrologue(graph.roots);
            for (int i = 0; i < m.layers; ++i)
                emitEncoderLayer(graph.roots);
            emitEncoderEpilogue(graph.roots);
        } else {
            emitDecoderPrologue(graph.roots);
            for (int i = 0; i < m.layers; ++i)
                emitDecoderLayer(graph.roots);
            emitDecoderEpilogue(graph.roots);
        }
        return graph;
    }

  private:
    const ModelConfig &m;
    const BuildOptions &o;
    double B, S, H, I, NH, KVH, HD;
    int TP;

    /** Per-rank attention width (NH_local * head_dim). */
    double attnWidth() const { return NH * HD; }

    /** All-reduce of a [rows, H] activation across the TP group. */
    void
    emitAllReduce(std::vector<OpNode> &ops, double rows) const
    {
        if (TP <= 1)
            return;
        KernelWork w;
        w.cls = KernelClass::Collective;
        // Ring all-reduce wire volume per rank: 2 (TP-1)/TP x payload.
        w.bytes = 2.0 * (TP - 1.0) / TP * rows * H * f16;
        w.flops = rows * H;
        ops.push_back(makeParentOp(
            "c10d::allreduce_", cost(opParentCpuNs),
            {makeKernelOp("nccl::all_reduce", cost(opLeafCpuNs),
                          "nccl_all_reduce_f16", w)}));
    }

    /**
     * Per-instance kernel-variant stream. Real CUDA elementwise and
     * copy kernels are template instantiations selected by pointer
     * alignment and vector width, so the "same" site can run _v4, _v2
     * or _v1 variants across layers. This deterministic stream
     * reproduces that: it is what keeps long kernel chains from being
     * trivially periodic, exactly as in real eager traces.
     */
    mutable Rng variantRng{0x5eedc0dedeadbeefULL};

    std::string
    variantSuffix() const
    {
        std::uint64_t roll = variantRng.below(100);
        if (roll < 92)
            return "_v4";
        if (roll < 98)
            return "_v2";
        return "_v1";
    }

    bool flash() const { return o.mode == ExecMode::FlashAttention2; }

    double
    cost(double base_ns) const
    {
        return base_ns * o.cpuCostScale;
    }

    /** @name Small op factories @{ */

    OpNode
    view(std::string name) const
    {
        return makeCpuOp(std::move(name), cost(opViewCpuNs));
    }

    OpNode
    leaf(std::string op, std::string kernel, KernelWork work) const
    {
        return makeKernelOp(std::move(op), cost(opLeafCpuNs),
                            std::move(kernel), work);
    }

    OpNode
    parent(std::string op, std::vector<OpNode> children) const
    {
        return makeParentOp(std::move(op), cost(opParentCpuNs),
                            std::move(children));
    }

    /** aten::linear -> { aten::t, aten::addmm[gemm] }. */
    OpNode
    linear(double mrows, double k, double n) const
    {
        std::string kname =
            "gemm_f16_" + num(mrows) + "x" + num(n) + "x" + num(k);
        std::vector<OpNode> kids;
        kids.push_back(view("aten::t"));
        kids.push_back(leaf("aten::addmm", kname, gemmWork(mrows, n, k)));
        return parent("aten::linear", std::move(kids));
    }

    /** aten::matmul -> { aten::bmm[gemm] } for 4D attention matmuls. */
    OpNode
    matmulBmm(double batch, double mrows, double n, double k) const
    {
        std::string kname = "bmm_f16_" + num(batch) + "x" + num(mrows) +
            "x" + num(n) + "x" + num(k);
        std::vector<OpNode> kids;
        kids.push_back(view("aten::expand"));
        kids.push_back(
            leaf("aten::bmm", kname, bmmWork(batch, mrows, n, k)));
        return parent("aten::matmul", std::move(kids));
    }

    OpNode
    elementwise(const std::string &aten, const std::string &tag,
                KernelWork work, double elems) const
    {
        (void)elems;
        return leaf(aten, "elementwise_" + tag + variantSuffix(), work);
    }

    OpNode
    contiguous(double elems) const
    {
        std::vector<OpNode> kids;
        kids.push_back(leaf("aten::clone",
                            "copy_f16" + variantSuffix(),
                            copyWork(elems)));
        return parent("aten::contiguous", std::move(kids));
    }

    OpNode
    castTo(double elems, double from, double to) const
    {
        std::string tag = from < to ? "cast_f16f32" : "cast_f32f16";
        return leaf("aten::to", tag + variantSuffix(),
                    castWork(elems, from, to));
    }

    /**
     * LayerNorm (fp32 compute with casts) or RMSNorm (cast + variance
     * reduction + apply). Both expand to 3 kernels, as fp16 HF models
     * upcast normalization to fp32.
     */
    void
    emitNorm(std::vector<OpNode> &ops, double rows) const
    {
        double elems = rows * H;
        if (m.norm == NormKind::LayerNorm) {
            std::vector<OpNode> kids;
            kids.push_back(castTo(elems, f16, f32));
            kids.push_back(leaf("aten::native_layer_norm",
                                "layer_norm_f32",
                                normWork(rows, H, f32)));
            kids.push_back(castTo(elems, f32, f16));
            ops.push_back(parent("aten::layer_norm", std::move(kids)));
        } else {
            ops.push_back(castTo(elems, f16, f32));
            ops.push_back(leaf("aten::mean", "reduce_variance_f32",
                               reduceWork(elems, rows, f32)));
            ops.push_back(elementwise("aten::mul", "rmsnorm_apply_f32",
                                      ewWork(elems, 2, 1, f32), elems));
        }
    }

    /** @} */

    void
    emitInputTransfer(std::vector<OpNode> &ops) const
    {
        // Token ids (+ attention mask for encoders) staged to the GPU.
        double bytes = B * S * idx64;
        if (m.family == ModelFamily::EncoderOnly)
            bytes *= 2.0;
        OpNode node;
        node.name = "aten::to";
        node.cpuNs = cost(opLeafCpuNs);
        KernelLaunch launch;
        launch.kernelName = "memcpy_h2d";
        launch.isMemcpy = true;
        KernelWork w;
        w.cls = KernelClass::Memcpy;
        w.bytes = bytes;
        launch.work.push_back(w);
        node.launches.push_back(std::move(launch));
        ops.push_back(std::move(node));
    }

    // ---------------- Encoder (BERT / XLM-R) ----------------

    void
    emitEncoderPrologue(std::vector<OpNode> &ops) const
    {
        double rows = B * S;
        double elems = rows * H;
        // Embedding gathers are distinct template instantiations per
        // table (word / position / token-type differ in table size).
        auto gather = [&](const char *label, int table) {
            return leaf(std::string("aten::embedding(") + label + ")",
                        "embedding_gather_" + num(table) + "t_" +
                            num(rows) + "x" + num(H),
                        embeddingWork(rows, H));
        };
        ops.push_back(gather("word", m.vocab));
        ops.push_back(gather("position", 512));
        ops.push_back(gather("token_type", 2));
        ops.push_back(elementwise("aten::add", "add_f16",
                                  ewWork(elems, 2, 1), elems));
        ops.push_back(elementwise("aten::add", "add_f16",
                                  ewWork(elems, 2, 1), elems));
        // Embedding LayerNorm runs natively in fp16 in HF BERT.
        ops.push_back(leaf("aten::native_layer_norm", "layer_norm_f16",
                           normWork(rows, H, f16)));
        // Extended attention mask: (1 - mask) * min_value, cast to f16.
        double mask_elems = B * S;
        ops.push_back(elementwise("aten::rsub", "rsub_f32",
                                  ewWork(mask_elems, 1, 1, f32),
                                  mask_elems));
        ops.push_back(elementwise("aten::mul", "mul_f32",
                                  ewWork(mask_elems, 1, 1, f32),
                                  mask_elems));
        ops.push_back(castTo(mask_elems, f32, f16));
    }

    void
    emitEncoderLayer(std::vector<OpNode> &ops) const
    {
        double rows = B * S;
        double hid_elems = rows * H;
        double bheads = B * NH;
        double score_elems = bheads * S * S;

        // Self-attention projections (column-parallel under TP).
        double attn_elems = rows * attnWidth();
        for (const char *label : {"q", "k", "v"}) {
            (void)label;
            ops.push_back(linear(rows, H, attnWidth()));
            ops.push_back(view("aten::view"));
            ops.push_back(view("aten::permute"));
            if (!flash())
                ops.push_back(contiguous(attn_elems));
        }

        if (flash()) {
            ops.push_back(parent(
                "flash_attn::_flash_attn_forward",
                {leaf("flash_attn::fwd",
                      "flash_fwd_kernel_f16_hd" + num(HD),
                      flashAttentionWork(B, NH, S, HD, attnWidth()))}));
            ops.push_back(view("aten::view"));
        } else {
            ops.push_back(matmulBmm(bheads, S, S, HD));
            ops.push_back(elementwise("aten::div", "div_f16",
                                      ewWork(score_elems, 1, 1),
                                      score_elems));
            ops.push_back(elementwise("aten::add", "add_f16",
                                      ewWork(score_elems, 2, 1),
                                      score_elems));
            // BERT keeps softmax in fp16.
            ops.push_back(parent(
                "aten::softmax",
                {leaf("aten::_softmax", "softmax_f16",
                      softmaxWork(bheads * S, S, f16))}));
            ops.push_back(matmulBmm(bheads, S, HD, S));
            ops.push_back(view("aten::permute"));
            ops.push_back(contiguous(attn_elems));
            ops.push_back(view("aten::view"));
        }

        // Output projection (row-parallel) + residual + LN (fp32).
        ops.push_back(linear(rows, attnWidth(), H));
        emitAllReduce(ops, rows);
        ops.push_back(elementwise("aten::add", "add_f16",
                                  ewWork(hid_elems, 2, 1), hid_elems));
        emitNorm(ops, rows);

        // MLP.
        ops.push_back(linear(rows, H, I));
        double mlp_elems = rows * I;
        ops.push_back(elementwise("aten::gelu", "gelu_f16",
                                  ewWork(mlp_elems, 1, 1), mlp_elems));
        ops.push_back(linear(rows, I, H));
        emitAllReduce(ops, rows);
        ops.push_back(elementwise("aten::add", "add_f16",
                                  ewWork(hid_elems, 2, 1), hid_elems));
        emitNorm(ops, rows);
    }

    void
    emitEncoderEpilogue(std::vector<OpNode> &ops) const
    {
        if (!m.pooler)
            return;
        // Pooler: dense over the [CLS] token + tanh.
        ops.push_back(view("aten::select"));
        ops.push_back(linear(B, H, H));
        ops.push_back(elementwise("aten::tanh", "tanh_f16",
                                  ewWork(B * H, 1, 1), B * H));
    }

    // ---------------- Decoder (GPT2 / Llama / Gemma / 7B) -------------

    bool
    gpt2Style() const
    {
        // Learned positions + fused QKV + where-style causal mask.
        return !m.rotary;
    }

    void
    emitDecoderPrologue(std::vector<OpNode> &ops) const
    {
        double rows = B * S;
        double elems = rows * H;
        ops.push_back(leaf("aten::embedding(word)",
                           "embedding_gather_" + num(m.vocab) + "t_" +
                               num(rows) + "x" + num(H),
                           embeddingWork(rows, H)));
        if (gpt2Style()) {
            ops.push_back(
                leaf("aten::embedding(position)",
                     "embedding_gather_1024t_" + num(S) + "x" + num(H),
                     embeddingWork(S, H)));
            ops.push_back(elementwise("aten::add", "add_f16",
                                      ewWork(elems, 2, 1), elems));
        } else {
            // Rotary cache: cos/sin tables for the sequence.
            double rope_elems = S * HD;
            ops.push_back(elementwise("aten::cos", "cos_f32",
                                      ewWork(rope_elems, 1, 1, f32),
                                      rope_elems));
            ops.push_back(elementwise("aten::sin", "sin_f32",
                                      ewWork(rope_elems, 1, 1, f32),
                                      rope_elems));
            // Causal additive mask.
            double mask_elems = S * S;
            ops.push_back(elementwise("aten::full", "fill_f32",
                                      ewWork(mask_elems, 0, 1, f32),
                                      mask_elems));
        }
    }

    void
    emitRope(std::vector<OpNode> &ops, double rows_heads) const
    {
        // rotate_half + q*cos + rot*sin + add, for one of Q or K.
        double elems = rows_heads * HD;
        ops.push_back(parent("aten::cat",
                             {leaf("aten::neg",
                                   "copy_rotate_half" + variantSuffix(),
                                   copyWork(elems))}));
        ops.push_back(elementwise("aten::mul", "mul_f16",
                                  ewWork(elems, 2, 1), elems));
        ops.push_back(elementwise("aten::mul", "mul_f16",
                                  ewWork(elems, 2, 1), elems));
        ops.push_back(elementwise("aten::add", "add_f16",
                                  ewWork(elems, 2, 1), elems));
    }

    void
    emitDecoderLayer(std::vector<OpNode> &ops) const
    {
        double rows = B * S;
        double hid_elems = rows * H;
        double bheads = B * NH;
        double kv_dim = KVH * HD;
        double score_elems = bheads * S * S;
        double score_rows = bheads * S;

        // Pre-attention norm.
        emitNorm(ops, rows);

        double attn_elems = rows * attnWidth();

        // QKV projections.
        if (m.fusedQkv) {
            double qkv_n = attnWidth() + 2.0 * kv_dim;
            std::vector<OpNode> kids;
            kids.push_back(view("aten::view"));
            kids.push_back(leaf("aten::addmm",
                                "gemm_f16_" + num(rows) + "x" +
                                    num(qkv_n) + "x" + num(H),
                                gemmWork(rows, qkv_n, H)));
            ops.push_back(parent("transformers::Conv1D", std::move(kids)));
            ops.push_back(view("aten::split"));
            for (int i = 0; i < 3; ++i)
                ops.push_back(contiguous(
                    rows * (i == 0 ? attnWidth() : kv_dim)));
            ops.push_back(view("aten::view"));
            ops.push_back(contiguous(attn_elems)); // head layout for bmm
        } else {
            ops.push_back(linear(rows, H, attnWidth()));  // Q
            ops.push_back(linear(rows, H, kv_dim));       // K
            ops.push_back(linear(rows, H, kv_dim));       // V
            ops.push_back(view("aten::view"));
            ops.push_back(view("aten::transpose"));
        }

        if (m.rotary) {
            emitRope(ops, bheads * S);
            emitRope(ops, B * KVH * S);
        }

        bool gqa = m.kvHeads < m.heads;

        if (flash()) {
            ops.push_back(parent(
                "flash_attn::_flash_attn_forward",
                {leaf("flash_attn::fwd",
                      "flash_fwd_kernel_f16_hd" + num(HD),
                      flashAttentionWork(B, NH, S, HD, attnWidth()))}));
            ops.push_back(view("aten::view"));
        } else {
            if (gqa) {
                // repeat_kv expands grouped K/V to full head count.
                double kv_elems = B * KVH * S * HD *
                    (static_cast<double>(m.heads) / m.kvHeads);
                ops.push_back(contiguous(kv_elems));
                ops.push_back(contiguous(kv_elems));
            }
            ops.push_back(matmulBmm(bheads, S, S, HD));
            ops.push_back(elementwise("aten::div", "div_f16",
                                      ewWork(score_elems, 1, 1),
                                      score_elems));
            if (gpt2Style()) {
                ops.push_back(elementwise("aten::full_like",
                                          "fill_f16",
                                          ewWork(score_elems, 0, 1),
                                          score_elems));
                ops.push_back(parent(
                    "aten::where",
                    {leaf("aten::_s_where",
                          "elementwise_where_f16" + variantSuffix(),
                          whereWork(score_elems))}));
            } else {
                ops.push_back(elementwise("aten::add", "add_f32",
                                          ewWork(score_elems, 2, 1, f32),
                                          score_elems));
            }
            // Decoder softmax upcasts to fp32 (HF GPT2/Llama).
            ops.push_back(castTo(score_elems, f16, f32));
            ops.push_back(parent(
                "aten::softmax",
                {leaf("aten::_softmax", "softmax_f32",
                      softmaxWork(score_rows, S, f32))}));
            ops.push_back(castTo(score_elems, f32, f16));
            ops.push_back(matmulBmm(bheads, S, HD, S));
            ops.push_back(view("aten::permute"));
            ops.push_back(contiguous(attn_elems));
        }

        // Output projection (row-parallel under TP) + residual.
        if (m.fusedQkv) {
            std::vector<OpNode> kids;
            kids.push_back(view("aten::view"));
            kids.push_back(leaf("aten::addmm",
                                "gemm_f16_" + num(rows) + "x" + num(H) +
                                    "x" + num(attnWidth()),
                                gemmWork(rows, H, attnWidth())));
            ops.push_back(parent("transformers::Conv1D", std::move(kids)));
        } else {
            ops.push_back(linear(rows, attnWidth(), H));
        }
        emitAllReduce(ops, rows);
        ops.push_back(elementwise("aten::add", "add_f16",
                                  ewWork(hid_elems, 2, 1), hid_elems));

        // Pre-MLP norm.
        emitNorm(ops, rows);

        // MLP.
        double mlp_elems = rows * I;
        switch (m.activation) {
          case Activation::Gelu:
            ops.push_back(linear(rows, H, I));
            ops.push_back(elementwise("aten::gelu", "gelu_f16",
                                      ewWork(mlp_elems, 1, 1), mlp_elems));
            ops.push_back(linear(rows, I, H));
            break;
          case Activation::GeluNew: {
            ops.push_back(linear(rows, H, I));
            // tanh-approximated GELU, expanded op-by-op as HF GPT2 does.
            const char *stages[] = {"pow", "mul", "add", "mul",
                                    "tanh", "add", "mul", "mul"};
            for (const char *stage : stages) {
                ops.push_back(elementwise(
                    std::string("aten::") + stage, stage + std::string(
                        "_f16"),
                    ewWork(mlp_elems, 1, 1), mlp_elems));
            }
            ops.push_back(linear(rows, I, H));
            break;
          }
          case Activation::SwiGlu:
          case Activation::GeGlu: {
            ops.push_back(linear(rows, H, I)); // gate
            ops.push_back(linear(rows, H, I)); // up
            const char *act =
                m.activation == Activation::SwiGlu ? "silu" : "gelu";
            ops.push_back(elementwise(std::string("aten::") + act,
                                      act + std::string("_f16"),
                                      ewWork(mlp_elems, 1, 1), mlp_elems));
            ops.push_back(elementwise("aten::mul", "mul_f16",
                                      ewWork(mlp_elems, 2, 1), mlp_elems));
            ops.push_back(linear(rows, I, H)); // down
            break;
          }
        }
        emitAllReduce(ops, rows);
        ops.push_back(elementwise("aten::add", "add_f16",
                                  ewWork(hid_elems, 2, 1), hid_elems));
    }

    void
    emitDecoderEpilogue(std::vector<OpNode> &ops) const
    {
        double rows = B * S;
        emitNorm(ops, rows);
        // LM head over the full sequence (column-parallel under TP),
        // then last-position logits.
        ops.push_back(linear(rows, H, m.vocab / TP));
        if (TP > 1) {
            KernelWork w;
            w.cls = KernelClass::Collective;
            w.bytes = (TP - 1.0) / TP * rows * m.vocab * f16;
            w.flops = 0.0;
            ops.push_back(makeParentOp(
                "c10d::allgather_", cost(opParentCpuNs),
                {makeKernelOp("nccl::all_gather", cost(opLeafCpuNs),
                              "nccl_all_gather_f16", w)}));
        }
        ops.push_back(parent("aten::select",
                             {leaf("aten::clone",
                                   "copy_f16" + variantSuffix(),
                                   copyWork(B * m.vocab))}));
        ops.push_back(leaf("aten::argmax", "reduce_argmax",
                           reduceWork(B * m.vocab, B, f16)));
    }
};

/**
 * Inductor-style compile transform: drop layout copies, fuse runs of
 * memory-bound kernels into Triton kernels (reducing intermediate
 * round trips), optionally capture everything into one CUDA graph, and
 * optionally apply autotuned-GEMM speedups.
 */
class CompileTransform
{
  public:
    CompileTransform(bool cuda_graph, bool autotune)
        : cudaGraph(cuda_graph), autotune(autotune)
    {}

    OperatorGraph
    run(const OperatorGraph &eager, double cpu_cost_scale)
    {
        // 1. Flatten the eager launch list; drop copies; collect memcpys.
        std::vector<KernelLaunch> kernels;
        std::vector<KernelLaunch> memcpys;
        eager.forEachLaunch([&](const KernelLaunch &launch) {
            if (launch.isMemcpy) {
                memcpys.push_back(launch);
                return;
            }
            bool all_copies = true;
            for (const auto &w : launch.work) {
                if (w.cls != KernelClass::Copy)
                    all_copies = false;
            }
            if (all_copies)
                return; // layout copies are compiled away
            kernels.push_back(launch);
        });

        // 2. Fuse consecutive memory-bound kernels.
        std::vector<KernelLaunch> fused = fuseRuns(kernels);

        // 3. Autotune: faster GEMM/attention kernels.
        if (autotune) {
            for (auto &launch : fused) {
                for (auto &w : launch.work) {
                    if (w.cls == KernelClass::Gemm ||
                        w.cls == KernelClass::Attention) {
                        w.flops /= autotuneGemmSpeedup;
                    }
                }
            }
        }

        // 4. Rebuild the operator graph.
        OperatorGraph out;
        for (const auto &mc : memcpys) {
            OpNode node;
            node.name = "aten::to";
            node.cpuNs = opLeafCpuNs * cpu_cost_scale;
            node.launches.push_back(mc);
            out.roots.push_back(std::move(node));
        }

        double wrapper_cpu =
            static_cast<double>(eager.numOps()) * wrapperPerOpCpuNs;

        if (cudaGraph) {
            OpNode node;
            node.name = "CUDAGraph::replay";
            node.cpuNs =
                (graphReplayCpuNs + wrapper_cpu) * cpu_cost_scale;
            KernelLaunch graph_launch;
            graph_launch.kernelName = "cuda_graph_exec";
            for (const auto &launch : fused) {
                for (const auto &w : launch.work)
                    graph_launch.work.push_back(w);
            }
            node.launches.push_back(std::move(graph_launch));
            out.roots.push_back(std::move(node));
        } else {
            OpNode root;
            root.name = "CompiledModule::forward";
            root.cpuNs =
                (compiledRootCpuNs + wrapper_cpu) * cpu_cost_scale;
            for (const auto &launch : fused) {
                OpNode node;
                node.name = "inductor::launch";
                node.cpuNs = opCompiledCpuNs * cpu_cost_scale;
                node.launches.push_back(launch);
                root.children.push_back(std::move(node));
            }
            out.roots.push_back(std::move(root));
        }
        return out;
    }

  private:
    bool cudaGraph;
    bool autotune;

    static constexpr double fusionByteSaving = 0.30; ///< fused-run bytes x
    static constexpr double autotuneGemmSpeedup = 1.15;
    static constexpr double graphReplayCpuNs = 9000.0;
    static constexpr double compiledRootCpuNs = 16000.0;

    /**
     * Per-eager-operator guard/wrapper CPU cost every compiled
     * iteration still pays (Dynamo guards, Python wrapper, static
     * input staging). This is what keeps compiled small-model
     * inference from collapsing to pure GPU time.
     */
    static constexpr double wrapperPerOpCpuNs = 2800.0;

    static bool
    fusable(const KernelLaunch &launch)
    {
        for (const auto &w : launch.work) {
            switch (w.cls) {
              case KernelClass::Elementwise:
              case KernelClass::Softmax:
              case KernelClass::Norm:
              case KernelClass::Reduction:
              case KernelClass::Embedding:
                break;
              default:
                return false;
            }
        }
        return true;
    }

    std::vector<KernelLaunch>
    fuseRuns(const std::vector<KernelLaunch> &kernels)
    {
        std::vector<KernelLaunch> out;
        std::size_t i = 0;
        int fused_id = 0;
        while (i < kernels.size()) {
            if (!fusable(kernels[i])) {
                out.push_back(kernels[i]);
                ++i;
                continue;
            }
            std::size_t j = i;
            KernelWork merged;
            merged.cls = KernelClass::Elementwise;
            while (j < kernels.size() && fusable(kernels[j])) {
                for (const auto &w : kernels[j].work) {
                    merged.flops += w.flops;
                    merged.bytes += w.bytes;
                    if (w.cls == KernelClass::Softmax ||
                        w.cls == KernelClass::Reduction ||
                        w.cls == KernelClass::Norm) {
                        merged.cls = KernelClass::Softmax;
                    }
                }
                ++j;
            }
            if (j - i == 1) {
                out.push_back(kernels[i]);
            } else {
                merged.bytes *= fusionByteSaving;
                KernelLaunch launch;
                launch.kernelName =
                    "triton_fused_" + std::to_string(fused_id++) + "_n" +
                    std::to_string(j - i);
                launch.work.push_back(merged);
                out.push_back(std::move(launch));
            }
            i = j;
        }
        return out;
    }
};

/**
 * Attention matmul and softmax work of a sequence-length-1 graph,
 * resized to cover a KV cache of `ctx` tokens (decode steps).
 */
struct ContextPatch
{
    double b;      ///< batch
    double nh;     ///< attention heads
    double hd;     ///< head dimension
    double ctx;    ///< context tokens
    double hidden; ///< model width

    void
    apply(OpNode &node) const
    {
        for (auto &child : node.children)
            apply(child);
        for (auto &launch : node.launches) {
            for (auto &w : launch.work) {
                if (w.cls == KernelClass::Attention) {
                    w.flops = 4.0 * b * nh * ctx * hd;
                    w.bytes = 2.0 * b * ctx * hidden * 2.0;
                }
            }
            if (contains(launch.kernelName, "bmm_f16_")) {
                for (auto &w : launch.work) {
                    w.flops = 2.0 * b * nh * ctx * hd;
                    w.bytes = 2.0 * b * nh * (ctx * hd + ctx + hd);
                }
            }
            if (contains(launch.kernelName, "softmax_")) {
                for (auto &w : launch.work) {
                    w.flops = 5.0 * b * nh * ctx;
                    w.bytes = b * nh * ctx * 4.0 * 2.0;
                }
            }
        }
    }
};

} // namespace

OperatorGraph
buildPrefillGraph(const ModelConfig &model, const BuildOptions &opts)
{
    switch (opts.mode) {
      case ExecMode::Eager:
      case ExecMode::FlashAttention2: {
        GraphEmitter emitter(model, opts);
        return emitter.buildPrefill();
      }
      case ExecMode::CompileDefault:
      case ExecMode::CompileReduceOverhead:
      case ExecMode::CompileMaxAutotune: {
        BuildOptions eager_opts = opts;
        eager_opts.mode = ExecMode::Eager;
        GraphEmitter emitter(model, eager_opts);
        OperatorGraph eager = emitter.buildPrefill();
        bool cuda_graph = opts.mode != ExecMode::CompileDefault;
        bool autotune = opts.mode == ExecMode::CompileMaxAutotune;
        CompileTransform transform(cuda_graph, autotune);
        return transform.run(eager, opts.cpuCostScale);
      }
    }
    panic("buildPrefillGraph: invalid ExecMode");
}

OperatorGraph
buildDecodeStepGraph(const ModelConfig &model, const BuildOptions &opts,
                     int context_len)
{
    if (context_len <= 0)
        fatal("buildDecodeStepGraph: context_len must be positive");
    // A decode step is a sequence-length-1 forward over a KV cache of
    // context_len tokens. Reuse the prefill emitter with S=1, then the
    // attention matmuls see the full context; we approximate by
    // building with S=1 and adding the KV-sized attention work via a
    // dedicated graph. For the paper's prefill-centric evaluation this
    // is an extension point; the dominant effects (per-token launch
    // overhead, memory-bound attention) are captured.
    BuildOptions step = opts;
    step.seqLen = 1;
    OperatorGraph graph = buildPrefillGraph(model, step);

    const ContextPatch patch{static_cast<double>(opts.batch),
                             static_cast<double>(model.heads),
                             static_cast<double>(model.headDim()),
                             static_cast<double>(context_len),
                             static_cast<double>(model.hidden)};
    for (auto &root : graph.roots)
        patch.apply(root);
    return graph;
}

OperatorGraph
buildNullKernelGraph(int count)
{
    if (count <= 0)
        fatal("buildNullKernelGraph: count must be positive");
    OperatorGraph graph;
    for (int i = 0; i < count; ++i) {
        KernelWork w;
        w.cls = KernelClass::Null;
        // A tight C++ launch loop: negligible framework cost per call.
        graph.roots.push_back(
            makeKernelOp("benchmark::launch_null", 500.0, "nullKernel",
                         w));
    }
    return graph;
}

} // namespace skipsim::workload

#include "workload/builder.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"

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

/** Marks where a kernel name takes its per-instance variant suffix. */
struct Variant
{};

/**
 * Attention matmul and softmax work of a sequence-length-1 pass,
 * resized to cover a KV cache of `ctx` tokens (decode steps), on one
 * tensor-parallel rank. The rule reads only a kernel's stem, so a
 * named stream and a stem-only one are resized alike.
 */
struct ContextPatch
{
    double b;      ///< batch
    double nh;     ///< attention heads on this rank
    double hd;     ///< head dimension
    double ctx;    ///< context tokens
    double width;  ///< attention width on this rank (nh * hd)

    void
    apply(std::string_view kernel, std::span<KernelWork> work) const
    {
        for (auto &w : work) {
            if (w.cls == KernelClass::Attention) {
                w.flops = 4.0 * b * nh * ctx * hd;
                w.bytes = 2.0 * b * ctx * width * 2.0;
            }
        }
        if (kernel.find("bmm_f16_") != std::string_view::npos) {
            for (auto &w : work) {
                w.flops = 2.0 * b * nh * ctx * hd;
                w.bytes = 2.0 * b * nh * (ctx * hd + ctx + hd);
            }
        }
        if (kernel.find("softmax_") != std::string_view::npos) {
            for (auto &w : work) {
                w.flops = 5.0 * b * nh * ctx;
                w.bytes = b * nh * ctx * 4.0 * 2.0;
            }
        }
    }
};

/** Builds the operator tree of a stream in place. */
class TreeSink final : public OpSink
{
  public:
    bool keepsNames() const override { return true; }

    void
    begin(std::string_view name, double cpuNs, double preFraction) override
    {
        std::vector<OpNode> &siblings =
            open.empty() ? graph.roots : open.back()->children;
        OpNode &node = siblings.emplace_back();
        node.name = name;
        node.cpuNs = cpuNs;
        node.preFraction = preFraction;
        open.push_back(&node);
    }

    void
    launch(std::string_view kernel, std::span<const KernelWork> work,
           bool isMemcpy) override
    {
        KernelLaunch &launch = open.back()->launches.emplace_back();
        launch.kernelName = kernel;
        launch.work.assign(work.begin(), work.end());
        launch.isMemcpy = isMemcpy;
    }

    void end() override { open.pop_back(); }

    OperatorGraph take() { return std::move(graph); }

  private:
    OperatorGraph graph;
    /** Open operators, outermost first; each lives in its parent's
     *  children, which grow only while it is closed. */
    std::vector<OpNode *> open;
};

/** Forwards a sequence-length-1 stream with its attention resized. */
class ContextSink final : public OpSink
{
  public:
    ContextSink(OpSink &inner, const ContextPatch &patch)
        : inner(inner), patch(patch)
    {}

    bool keepsNames() const override { return inner.keepsNames(); }

    void
    begin(std::string_view name, double cpuNs, double preFraction) override
    {
        inner.begin(name, cpuNs, preFraction);
    }

    void
    launch(std::string_view kernel, std::span<const KernelWork> work,
           bool isMemcpy) override
    {
        resized.assign(work.begin(), work.end());
        patch.apply(kernel, resized);
        inner.launch(kernel, resized, isMemcpy);
    }

    void end() override { inner.end(); }

    int repeat(int layers) override { return inner.repeat(layers); }

    void endRepeat() override { inner.endRepeat(); }

  private:
    OpSink &inner;
    ContextPatch patch;
    std::vector<KernelWork> resized;
};

/** Streams one forward pass of a model/options pair into a sink. */
class GraphEmitter
{
  public:
    /** @p entry names the builder entry point in error messages. */
    GraphEmitter(const ModelConfig &model, const BuildOptions &opts,
                 std::string_view entry)
        : m(model), o(opts),
          B(opts.batch), S(opts.seqLen), H(model.hidden),
          I(model.intermediate), NH(model.heads), KVH(model.kvHeads),
          HD(model.headDim()), TP(opts.tensorParallel)
    {
        auto reject = [&](std::string_view what) {
            fatal(std::string(entry) + ": " + std::string(what));
        };
        if (opts.batch <= 0)
            reject("batch must be positive");
        if (opts.seqLen <= 0)
            reject("seqLen must be positive");
        if (TP < 1)
            reject("tensorParallel must be >= 1");
        if (TP > 1) {
            if (model.heads % opts.tensorParallel != 0 ||
                model.intermediate % opts.tensorParallel != 0 ||
                model.vocab % opts.tensorParallel != 0) {
                reject("heads, intermediate and vocab must be divisible "
                       "by the tensor-parallel degree");
            }
            // Per-rank shards: attention heads, grouped KV heads
            // (replicated when fewer than the degree) and MLP columns.
            NH /= TP;
            KVH = std::max(1.0, KVH / TP);
            I /= TP;
        }
    }

    /** Emit the pass into @p sink (once per emitter). */
    void
    emit(OpSink &sink)
    {
        out = &sink;
        named = sink.keepsNames();
        emitInputTransfer();
        if (m.family == ModelFamily::EncoderOnly) {
            emitEncoderPrologue();
            for (int i = out->repeat(m.layers); i > 0; --i)
                emitEncoderLayer();
            out->endRepeat();
            emitEncoderEpilogue();
        } else {
            emitDecoderPrologue();
            for (int i = out->repeat(m.layers); i > 0; --i)
                emitDecoderLayer();
            out->endRepeat();
            emitDecoderEpilogue();
        }
    }

    /** This rank's attention resized to a KV cache of @p ctx tokens. */
    ContextPatch
    contextPatch(double ctx) const
    {
        return {B, NH, HD, ctx, attnWidth()};
    }

  private:
    const ModelConfig &m;
    const BuildOptions &o;
    double B, S, H, I, NH, KVH, HD;
    int TP;

    OpSink *out = nullptr;
    bool named = true;        ///< whether the sink reads kernel names
    std::string nameBuf;      ///< the kernel name being formatted

    /** Per-rank attention width (NH_local * head_dim). */
    double attnWidth() const { return NH * HD; }

    /**
     * Per-instance kernel-variant stream. Real CUDA elementwise and
     * copy kernels are template instantiations selected by pointer
     * alignment and vector width, so the "same" site can run _v4, _v2
     * or _v1 variants across layers. This deterministic stream
     * reproduces that: it is what keeps long kernel chains from being
     * trivially periodic, exactly as in real eager traces. Only names
     * draw from it, so a stem-only stream skips the draws.
     */
    Rng variantRng{0x5eedc0dedeadbeefULL};

    const char *
    variantSuffix()
    {
        std::uint64_t roll = variantRng.below(100);
        if (roll < 92)
            return "_v4";
        if (roll < 98)
            return "_v2";
        return "_v1";
    }

    void put(std::string_view text) { nameBuf.append(text); }

    void
    put(double shape)
    {
        char digits[24];
        char *end = std::to_chars(digits, digits + sizeof digits,
                                  static_cast<long long>(shape))
                        .ptr;
        nameBuf.append(digits, end);
    }

    void put(Variant) { nameBuf.append(variantSuffix()); }

    /**
     * A kernel name: @p stem followed by @p tail (text, integer shapes
     * and variant suffixes), formatted only for a sink that keeps
     * names. Any other sink gets the stem alone.
     */
    template <typename... Tail>
    std::string_view
    kernel(std::string_view stem, const Tail &...tail)
    {
        if (!named)
            return stem;
        nameBuf.assign(stem);
        (put(tail), ...);
        return nameBuf;
    }

    bool flash() const { return o.mode == ExecMode::FlashAttention2; }

    double
    cost(double base_ns) const
    {
        return base_ns * o.cpuCostScale;
    }

    /** @name Small op emitters @{ */

    void
    open(std::string_view op, double base_ns)
    {
        out->begin(op, cost(base_ns), defaultPreFraction);
    }

    /** Open a composite op; its children follow, then close(). */
    void open(std::string_view op) { open(op, opParentCpuNs); }

    void close() { out->end(); }

    void
    view(std::string_view op)
    {
        open(op, opViewCpuNs);
        close();
    }

    void
    leaf(std::string_view op, std::string_view kernel_name,
         const KernelWork &work)
    {
        open(op, opLeafCpuNs);
        out->launch(kernel_name, {&work, 1}, false);
        close();
    }

    /** A composite op wrapping one kernel-launching leaf. */
    void
    wrapped(std::string_view parent, std::string_view op,
            std::string_view kernel_name, const KernelWork &work)
    {
        open(parent);
        leaf(op, kernel_name, work);
        close();
    }

    /** aten::linear -> { aten::t, aten::addmm[gemm] }. */
    void
    linear(double mrows, double k, double n)
    {
        open("aten::linear");
        view("aten::t");
        leaf("aten::addmm", kernel("gemm_f16_", mrows, "x", n, "x", k),
             gemmWork(mrows, n, k));
        close();
    }

    /** transformers::Conv1D -> { aten::view, aten::addmm[gemm] }. */
    void
    conv1d(double mrows, double k, double n)
    {
        open("transformers::Conv1D");
        view("aten::view");
        leaf("aten::addmm", kernel("gemm_f16_", mrows, "x", n, "x", k),
             gemmWork(mrows, n, k));
        close();
    }

    /** aten::matmul -> { aten::bmm[gemm] } for 4D attention matmuls. */
    void
    matmulBmm(double batch, double mrows, double n, double k)
    {
        open("aten::matmul");
        view("aten::expand");
        leaf("aten::bmm",
             kernel("bmm_f16_", batch, "x", mrows, "x", n, "x", k),
             bmmWork(batch, mrows, n, k));
        close();
    }

    void
    elementwise(std::string_view aten, std::string_view tag,
                const KernelWork &work)
    {
        leaf(aten, kernel("elementwise_", tag, Variant{}), work);
    }

    void
    contiguous(double elems)
    {
        wrapped("aten::contiguous", "aten::clone",
                kernel("copy_f16", Variant{}), copyWork(elems));
    }

    void
    castTo(double elems, double from, double to)
    {
        leaf("aten::to",
             kernel(from < to ? "cast_f16f32" : "cast_f32f16", Variant{}),
             castWork(elems, from, to));
    }

    /**
     * LayerNorm (fp32 compute with casts) or RMSNorm (cast + variance
     * reduction + apply). Both expand to 3 kernels, as fp16 HF models
     * upcast normalization to fp32.
     */
    void
    emitNorm(double rows)
    {
        double elems = rows * H;
        if (m.norm == NormKind::LayerNorm) {
            open("aten::layer_norm");
            castTo(elems, f16, f32);
            leaf("aten::native_layer_norm", "layer_norm_f32",
                 normWork(rows, H, f32));
            castTo(elems, f32, f16);
            close();
        } else {
            castTo(elems, f16, f32);
            leaf("aten::mean", "reduce_variance_f32",
                 reduceWork(elems, rows, f32));
            elementwise("aten::mul", "rmsnorm_apply_f32",
                        ewWork(elems, 2, 1, f32));
        }
    }

    /** All-reduce of a [rows, H] activation across the TP group. */
    void
    emitAllReduce(double rows)
    {
        if (TP <= 1)
            return;
        KernelWork w;
        w.cls = KernelClass::Collective;
        // Ring all-reduce wire volume per rank: 2 (TP-1)/TP x payload.
        w.bytes = 2.0 * (TP - 1.0) / TP * rows * H * f16;
        w.flops = rows * H;
        wrapped("c10d::allreduce_", "nccl::all_reduce",
                "nccl_all_reduce_f16", w);
    }

    /** @} */

    void
    emitInputTransfer()
    {
        // Token ids (+ attention mask for encoders) staged to the GPU.
        double bytes = B * S * idx64;
        if (m.family == ModelFamily::EncoderOnly)
            bytes *= 2.0;
        KernelWork w;
        w.cls = KernelClass::Memcpy;
        w.bytes = bytes;
        open("aten::to", opLeafCpuNs);
        out->launch("memcpy_h2d", {&w, 1}, true);
        close();
    }

    // ---------------- Encoder (BERT / XLM-R) ----------------

    void
    emitEncoderPrologue()
    {
        double rows = B * S;
        double elems = rows * H;
        // Embedding gathers are distinct template instantiations per
        // table (word / position / token-type differ in table size).
        auto gather = [&](std::string_view op, double table) {
            leaf(op,
                 kernel("embedding_gather_", table, "t_", rows, "x", H),
                 embeddingWork(rows, H));
        };
        gather("aten::embedding(word)", m.vocab);
        gather("aten::embedding(position)", 512);
        gather("aten::embedding(token_type)", 2);
        elementwise("aten::add", "add_f16", ewWork(elems, 2, 1));
        elementwise("aten::add", "add_f16", ewWork(elems, 2, 1));
        // Embedding LayerNorm runs natively in fp16 in HF BERT.
        leaf("aten::native_layer_norm", "layer_norm_f16",
             normWork(rows, H, f16));
        // Extended attention mask: (1 - mask) * min_value, cast to f16.
        double mask_elems = B * S;
        elementwise("aten::rsub", "rsub_f32",
                    ewWork(mask_elems, 1, 1, f32));
        elementwise("aten::mul", "mul_f32", ewWork(mask_elems, 1, 1, f32));
        castTo(mask_elems, f32, f16);
    }

    void
    emitFlashAttention()
    {
        wrapped("flash_attn::_flash_attn_forward", "flash_attn::fwd",
                kernel("flash_fwd_kernel_f16_hd", HD),
                flashAttentionWork(B, NH, S, HD, attnWidth()));
        view("aten::view");
    }

    void
    emitEncoderLayer()
    {
        double rows = B * S;
        double hid_elems = rows * H;
        double bheads = B * NH;
        double score_elems = bheads * S * S;

        // Self-attention projections (column-parallel under TP): Q, K, V.
        double attn_elems = rows * attnWidth();
        for (int i = 0; i < 3; ++i) {
            linear(rows, H, attnWidth());
            view("aten::view");
            view("aten::permute");
            if (!flash())
                contiguous(attn_elems);
        }

        if (flash()) {
            emitFlashAttention();
        } else {
            matmulBmm(bheads, S, S, HD);
            elementwise("aten::div", "div_f16", ewWork(score_elems, 1, 1));
            elementwise("aten::add", "add_f16", ewWork(score_elems, 2, 1));
            // BERT keeps softmax in fp16.
            wrapped("aten::softmax", "aten::_softmax", "softmax_f16",
                    softmaxWork(bheads * S, S, f16));
            matmulBmm(bheads, S, HD, S);
            view("aten::permute");
            contiguous(attn_elems);
            view("aten::view");
        }

        // Output projection (row-parallel) + residual + LN (fp32).
        linear(rows, attnWidth(), H);
        emitAllReduce(rows);
        elementwise("aten::add", "add_f16", ewWork(hid_elems, 2, 1));
        emitNorm(rows);

        // MLP.
        linear(rows, H, I);
        elementwise("aten::gelu", "gelu_f16", ewWork(rows * I, 1, 1));
        linear(rows, I, H);
        emitAllReduce(rows);
        elementwise("aten::add", "add_f16", ewWork(hid_elems, 2, 1));
        emitNorm(rows);
    }

    void
    emitEncoderEpilogue()
    {
        if (!m.pooler)
            return;
        // Pooler: dense over the [CLS] token + tanh.
        view("aten::select");
        linear(B, H, H);
        elementwise("aten::tanh", "tanh_f16", ewWork(B * H, 1, 1));
    }

    // ---------------- Decoder (GPT2 / Llama / Gemma / 7B) -------------

    bool
    gpt2Style() const
    {
        // Learned positions + fused QKV + where-style causal mask.
        return !m.rotary;
    }

    void
    emitDecoderPrologue()
    {
        double rows = B * S;
        double elems = rows * H;
        leaf("aten::embedding(word)",
             kernel("embedding_gather_", m.vocab, "t_", rows, "x", H),
             embeddingWork(rows, H));
        if (gpt2Style()) {
            leaf("aten::embedding(position)",
                 kernel("embedding_gather_1024t_", S, "x", H),
                 embeddingWork(S, H));
            elementwise("aten::add", "add_f16", ewWork(elems, 2, 1));
        } else {
            // Rotary cache: cos/sin tables for the sequence.
            double rope_elems = S * HD;
            elementwise("aten::cos", "cos_f32",
                        ewWork(rope_elems, 1, 1, f32));
            elementwise("aten::sin", "sin_f32",
                        ewWork(rope_elems, 1, 1, f32));
            // Causal additive mask.
            elementwise("aten::full", "fill_f32",
                        ewWork(S * S, 0, 1, f32));
        }
    }

    void
    emitRope(double rows_heads)
    {
        // rotate_half + q*cos + rot*sin + add, for one of Q or K.
        double elems = rows_heads * HD;
        wrapped("aten::cat", "aten::neg",
                kernel("copy_rotate_half", Variant{}), copyWork(elems));
        elementwise("aten::mul", "mul_f16", ewWork(elems, 2, 1));
        elementwise("aten::mul", "mul_f16", ewWork(elems, 2, 1));
        elementwise("aten::add", "add_f16", ewWork(elems, 2, 1));
    }

    void
    emitDecoderLayer()
    {
        double rows = B * S;
        double hid_elems = rows * H;
        double bheads = B * NH;
        double kv_dim = KVH * HD;
        double score_elems = bheads * S * S;
        double score_rows = bheads * S;

        // Pre-attention norm.
        emitNorm(rows);

        double attn_elems = rows * attnWidth();

        // QKV projections.
        if (m.fusedQkv) {
            conv1d(rows, H, attnWidth() + 2.0 * kv_dim);
            view("aten::split");
            for (int i = 0; i < 3; ++i)
                contiguous(rows * (i == 0 ? attnWidth() : kv_dim));
            view("aten::view");
            contiguous(attn_elems); // head layout for bmm
        } else {
            linear(rows, H, attnWidth()); // Q
            linear(rows, H, kv_dim);      // K
            linear(rows, H, kv_dim);      // V
            view("aten::view");
            view("aten::transpose");
        }

        if (m.rotary) {
            emitRope(bheads * S);
            emitRope(B * KVH * S);
        }

        bool gqa = m.kvHeads < m.heads;

        if (flash()) {
            emitFlashAttention();
        } else {
            if (gqa) {
                // repeat_kv expands grouped K/V to full head count.
                double kv_elems = B * KVH * S * HD *
                    (static_cast<double>(m.heads) / m.kvHeads);
                contiguous(kv_elems);
                contiguous(kv_elems);
            }
            matmulBmm(bheads, S, S, HD);
            elementwise("aten::div", "div_f16", ewWork(score_elems, 1, 1));
            if (gpt2Style()) {
                elementwise("aten::full_like", "fill_f16",
                            ewWork(score_elems, 0, 1));
                wrapped("aten::where", "aten::_s_where",
                        kernel("elementwise_where_f16", Variant{}),
                        whereWork(score_elems));
            } else {
                elementwise("aten::add", "add_f32",
                            ewWork(score_elems, 2, 1, f32));
            }
            // Decoder softmax upcasts to fp32 (HF GPT2/Llama).
            castTo(score_elems, f16, f32);
            wrapped("aten::softmax", "aten::_softmax", "softmax_f32",
                    softmaxWork(score_rows, S, f32));
            castTo(score_elems, f32, f16);
            matmulBmm(bheads, S, HD, S);
            view("aten::permute");
            contiguous(attn_elems);
        }

        // Output projection (row-parallel under TP) + residual.
        if (m.fusedQkv)
            conv1d(rows, attnWidth(), H);
        else
            linear(rows, attnWidth(), H);
        emitAllReduce(rows);
        elementwise("aten::add", "add_f16", ewWork(hid_elems, 2, 1));

        // Pre-MLP norm.
        emitNorm(rows);

        // MLP.
        double mlp_elems = rows * I;
        switch (m.activation) {
          case Activation::Gelu:
            linear(rows, H, I);
            elementwise("aten::gelu", "gelu_f16", ewWork(mlp_elems, 1, 1));
            linear(rows, I, H);
            break;
          case Activation::GeluNew: {
            linear(rows, H, I);
            // tanh-approximated GELU, expanded op-by-op as HF GPT2 does.
            static constexpr std::string_view stages[][2] = {
                {"aten::pow", "pow_f16"},   {"aten::mul", "mul_f16"},
                {"aten::add", "add_f16"},   {"aten::mul", "mul_f16"},
                {"aten::tanh", "tanh_f16"}, {"aten::add", "add_f16"},
                {"aten::mul", "mul_f16"},   {"aten::mul", "mul_f16"}};
            for (const auto &[op, tag] : stages)
                elementwise(op, tag, ewWork(mlp_elems, 1, 1));
            linear(rows, I, H);
            break;
          }
          case Activation::SwiGlu:
          case Activation::GeGlu: {
            linear(rows, H, I); // gate
            linear(rows, H, I); // up
            bool silu = m.activation == Activation::SwiGlu;
            elementwise(silu ? "aten::silu" : "aten::gelu",
                        silu ? "silu_f16" : "gelu_f16",
                        ewWork(mlp_elems, 1, 1));
            elementwise("aten::mul", "mul_f16", ewWork(mlp_elems, 2, 1));
            linear(rows, I, H); // down
            break;
          }
        }
        emitAllReduce(rows);
        elementwise("aten::add", "add_f16", ewWork(hid_elems, 2, 1));
    }

    void
    emitDecoderEpilogue()
    {
        double rows = B * S;
        emitNorm(rows);
        // LM head over the full sequence (column-parallel under TP),
        // then last-position logits.
        linear(rows, H, m.vocab / TP);
        if (TP > 1) {
            KernelWork w;
            w.cls = KernelClass::Collective;
            w.bytes = (TP - 1.0) / TP * rows * m.vocab * f16;
            w.flops = 0.0;
            wrapped("c10d::allgather_", "nccl::all_gather",
                    "nccl_all_gather_f16", w);
        }
        wrapped("aten::select", "aten::clone", kernel("copy_f16", Variant{}),
                copyWork(B * m.vocab));
        leaf("aten::argmax", "reduce_argmax",
             reduceWork(B * m.vocab, B, f16));
    }
};

/**
 * Inductor-style compile stage over an eager stream: count the eager
 * operators (each costs the compiled wrapper a guard), drop layout
 * copies, keep memcpys and kernels. flush() fuses runs of memory-bound
 * kernels into Triton kernels (reducing intermediate round trips),
 * optionally applies autotuned-GEMM speedups, and streams the compiled
 * pass into the inner sink: the memcpy roots, then one CUDA-graph
 * replay or a compiled module launching each kernel.
 */
class CompileSink final : public OpSink
{
  public:
    CompileSink(OpSink &inner, const BuildOptions &opts)
        : inner(inner), named(inner.keepsNames()),
          cudaGraph(opts.mode != ExecMode::CompileDefault),
          autotune(opts.mode == ExecMode::CompileMaxAutotune),
          scale(opts.cpuCostScale)
    {}

    bool keepsNames() const override { return named; }

    void begin(std::string_view, double, double) override { ++eagerOps; }

    void
    launch(std::string_view kernel, std::span<const KernelWork> work,
           bool isMemcpy) override
    {
        bool all_copies =
            std::ranges::all_of(work, [](const KernelWork &w) {
                return w.cls == KernelClass::Copy;
            });
        if (!isMemcpy && all_copies)
            return; // layout copies are compiled away
        KernelLaunch &launch =
            (isMemcpy ? memcpys : kernels).emplace_back();
        launch.kernelName = kernel;
        launch.work.assign(work.begin(), work.end());
    }

    void end() override {}

    /** Stream the compiled pass into the inner sink (once). */
    void
    flush()
    {
        std::vector<KernelLaunch> fused = fuseRuns();
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

        for (const auto &mc : memcpys) {
            inner.begin("aten::to", opLeafCpuNs * scale, defaultPreFraction);
            inner.launch(mc.kernelName, mc.work, true);
            inner.end();
        }

        double wrapper_cpu =
            static_cast<double>(eagerOps) * wrapperPerOpCpuNs;

        if (cudaGraph) {
            std::vector<KernelWork> replayed;
            for (const auto &launch : fused)
                replayed.insert(replayed.end(), launch.work.begin(),
                                launch.work.end());
            inner.begin("CUDAGraph::replay",
                        (graphReplayCpuNs + wrapper_cpu) * scale,
                        defaultPreFraction);
            inner.launch("cuda_graph_exec", replayed, false);
            inner.end();
        } else {
            inner.begin("CompiledModule::forward",
                        (compiledRootCpuNs + wrapper_cpu) * scale,
                        defaultPreFraction);
            for (const auto &launch : fused) {
                inner.begin("inductor::launch", opCompiledCpuNs * scale,
                            defaultPreFraction);
                inner.launch(launch.kernelName, launch.work, false);
                inner.end();
            }
            inner.end();
        }
    }

  private:
    OpSink &inner;
    bool named;
    bool cudaGraph;
    bool autotune;
    double scale; ///< cpuCostScale

    std::size_t eagerOps = 0;
    std::vector<KernelLaunch> kernels; ///< eager kernels, copies dropped
    std::vector<KernelLaunch> memcpys;

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

    /** The kept kernels with each fusable run of two or more merged. */
    std::vector<KernelLaunch>
    fuseRuns()
    {
        std::vector<KernelLaunch> out;
        std::size_t i = 0;
        int fused_id = 0;
        while (i < kernels.size()) {
            if (!fusable(kernels[i])) {
                out.push_back(std::move(kernels[i]));
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
                out.push_back(std::move(kernels[i]));
            } else {
                merged.bytes *= fusionByteSaving;
                KernelLaunch &launch = out.emplace_back();
                launch.kernelName = "triton_fused_";
                if (named) {
                    launch.kernelName += std::to_string(fused_id) + "_n" +
                        std::to_string(j - i);
                }
                ++fused_id;
                launch.work.push_back(merged);
            }
            i = j;
        }
        return out;
    }
};

bool
compiled(ExecMode mode, std::string_view entry)
{
    switch (mode) {
      case ExecMode::Eager:
      case ExecMode::FlashAttention2:
        return false;
      case ExecMode::CompileDefault:
      case ExecMode::CompileReduceOverhead:
      case ExecMode::CompileMaxAutotune:
        return true;
    }
    panic(std::string(entry) + ": invalid ExecMode");
}

/**
 * Stream one pass into @p sink: the prefill, or with @p ctx > 0 a
 * decode step, a sequence-length-1 pass over a KV cache of ctx tokens.
 * Every mode runs one pipeline: the emitter, then the decode rule
 * (decode steps), then the compile stage (compile modes), then @p sink.
 */
void
emitPass(const ModelConfig &model, const BuildOptions &opts, int ctx,
         OpSink &sink)
{
    const std::string_view entry =
        ctx > 0 ? "buildDecodeStepGraph" : "buildPrefillGraph";
    std::optional<CompileSink> compile;
    if (compiled(opts.mode, entry))
        compile.emplace(sink, opts);
    OpSink &stage = compile ? static_cast<OpSink &>(*compile) : sink;

    BuildOptions shape = opts;
    if (ctx > 0)
        shape.seqLen = 1;
    GraphEmitter emitter(model, shape, entry);
    std::optional<ContextSink> resized;
    if (ctx > 0)
        resized.emplace(stage, emitter.contextPatch(ctx));
    emitter.emit(resized ? static_cast<OpSink &>(*resized) : stage);
    if (compile)
        compile->flush();
}

} // namespace

void
emitPrefill(const ModelConfig &model, const BuildOptions &opts, OpSink &sink)
{
    emitPass(model, opts, 0, sink);
}

void
emitDecodeStep(const ModelConfig &model, const BuildOptions &opts,
               int context_len, OpSink &sink)
{
    if (context_len <= 0)
        fatal("buildDecodeStepGraph: context_len must be positive");
    emitPass(model, opts, context_len, sink);
}

OperatorGraph
buildPrefillGraph(const ModelConfig &model, const BuildOptions &opts)
{
    TreeSink tree;
    emitPrefill(model, opts, tree);
    return tree.take();
}

OperatorGraph
buildDecodeStepGraph(const ModelConfig &model, const BuildOptions &opts,
                     int context_len)
{
    TreeSink tree;
    emitDecodeStep(model, opts, context_len, tree);
    return tree.take();
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

/**
 * @file
 * The simulator's walk, shared by sim::Simulator and the recorder
 * oracle (check/sim_oracle.hh). A Runner is the operator sink a tree
 * or the builder's emitter streams into; it owns the timing (CPU
 * cursor, GPU stream, jitter draws) and hands each trace event it
 * creates to a recorder, which decides where the event lives and what
 * order the trace ends in.
 *
 * A recorder provides:
 *  - TraceEvent &open(): an operator begins; the walk fills its kind,
 *    name, thread and begin time;
 *  - TraceEvent &close(): the innermost open operator ends; the walk
 *    fills its duration;
 *  - TraceEvent &cpuEvent(): a runtime call is made;
 *  - TraceEvent &gpuEvent(): a kernel or copy is enqueued;
 *  - trace::Trace take(): the recorded trace, in any event order.
 * close(), cpuEvent() and gpuEvent() each create one event, and events
 * take their dense ids in the order they are created: an operator when
 * it closes, a runtime call and then its kernel at launch, the final
 * cudaDeviceSynchronize last. The walk never sets an id. A returned
 * reference is valid until the recorder's next call.
 *
 * The trace-free walk (Runner<NoTrace>) folds a block of N equal
 * layers (workload::OpSink::repeat) when jitter is off, N >= 2 and the
 * stream has been used before the block. It walks the first layer and
 * prices the other N - 1 in closed form. With jitter off a layer adds
 * fixed integer ns to the CPU cursor c, which never waits on the
 * stream, and each stream item i of the layer ends at
 * max(e_i, previous end + gap) + d_i, where e_i is its earliest start.
 * So one layer maps the cursors (c, g) to (c + A, max(g + B, c + C)):
 *  - A is the layer's CPU advance;
 *  - B is the sum of gap + d_i over its stream items;
 *  - C is where the stream would end had it been free at -inf, minus
 *    the layer's starting c.
 * After the first layer, at (c1, g1), the other N - 1 layers give
 *   c = c1 + (N-1)A,
 *   g = max(g1 + (N-1)B, c1 + C + (N-2)max(A, B)),
 * since the later layers' C terms peak at the first or the last layer.
 * Every term is an integer number of ns below 2^53, so the fold is the
 * unfolded walk bit for bit. The stream must be used at the block so
 * that the first layer's first item pays the gap, as every later
 * layer's does. A recording walk never folds: it must emit every
 * event.
 */

#ifndef SKIPSIM_SIM_RUNNER_HH
#define SKIPSIM_SIM_RUNNER_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/jitter.hh"
#include "common/random.hh"
#include "core/clock.hh"
#include "core/resource.hh"
#include "hw/platform.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"
#include "workload/op_graph.hh"

namespace skipsim::sim
{

/** CPU thread id and CUDA stream id recorded in every trace. */
constexpr int kThreadId = 1;
constexpr int kStreamId = 7;

/** The recorder of the trace-free walk: nothing is recorded. */
struct NoTrace
{};

/**
 * Internal execution state for one run: two resources and one walk.
 * The CPU dispatch thread is a core::Clock that never blocks mid-walk;
 * the GPU stream is a core::FifoResource that places each kernel after
 * its predecessor. Every timestamp follows from those two cursors as
 * operators arrive in issue order, so the run needs no scheduled
 * events: cudaDeviceSynchronize simply waits for the stream's free
 * time.
 *
 * @tparam Recorder where the walk's events go (see the file comment).
 *         Every recorder sees the same jitter draws in the same order
 *         on the same cursors, so every walk ends at the same wall time
 *         bit for bit; with NoTrace no TraceEvent is built.
 */
template <typename Recorder>
class Runner final : public workload::OpSink
{
    static constexpr bool kRecords = !std::is_same_v<Recorder, NoTrace>;

  public:
    Runner(const hw::Platform &platform, const SimOptions &opts)
        : p(platform), o(opts), rng(opts.seed)
    {}

    Recorder &recorder() { return rec; }

    /** Wait for the stream to drain, ending the pass. */
    void
    deviceSynchronize()
    {
        std::int64_t begin = cpuNowI();

        // The call returns once the stream has drained: at its free
        // time, no earlier than the call itself.
        double call = static_cast<double>(jitter(p.cpu.syncCallNs));
        double done =
            std::max(cpu.nowNs() + call, stream.freeNs() + call);
        cpu.advanceTo(done);

        if constexpr (kRecords) {
            trace::TraceEvent &rt = rec.cpuEvent();
            rt.kind = trace::EventKind::Runtime;
            rt.name = "cudaDeviceSynchronize";
            rt.tid = kThreadId;
            rt.tsBeginNs = begin;
            rt.durNs = static_cast<std::int64_t>(done) - begin;
        }
    }

    /** End-to-end wall time of the walk, ns. */
    double
    wallNs() const
    {
        return std::max(cpu.nowNs(), stream.freeNs());
    }

    /** The recorded trace, time-ordered. */
    trace::Trace
    takeTrace()
    {
        static_assert(kRecords, "a trace-free walk records no trace");
        trace::Trace out = rec.take();
        out.setMeta("platform", p.name);
        out.sortByTime();
        return out;
    }

    bool keepsNames() const override { return kRecords; }

    /** Pay the operator's pre-dispatch CPU cost. */
    void
    begin(std::string_view name, double cpuNs, double preFraction) override
    {
        double total_cpu = p.cpuOpNs(cpuNs);
        double pre = total_cpu * preFraction;
        open.push_back({cpuNowI(), total_cpu - pre});
        if constexpr (kRecords) {
            trace::TraceEvent &op = rec.open();
            op.kind = trace::EventKind::Operator;
            op.name = name;
            op.tid = kThreadId;
            op.tsBeginNs = open.back().beginNs;
        }
        cpu.advanceBy(static_cast<double>(jitter(pre)));
    }

    /** Pay the post-dispatch CPU cost and record the operator. */
    void
    end() override
    {
        const Frame frame = open.back();
        open.pop_back();
        cpu.advanceBy(static_cast<double>(jitter(frame.postNs)));
        if constexpr (kRecords)
            rec.close().durNs = cpuNowI() - frame.beginNs;
    }

    /** Fold the block when the walk may (see the file comment). */
    int
    repeat(int layers) override
    {
        if (kRecords || o.jitter || layers < 2 || !stream.everUsed())
            return layers;
        fold = {layers, cpu.nowNs(), 0.0, kFreeAtMinusInf};
        return 1;
    }

    /** Price the block's other layers from the one walked. */
    void
    endRepeat() override
    {
        if (fold.layers == 0)
            return;
        const double rest = fold.layers - 1;
        const double a = cpu.nowNs() - fold.cpuBegin;
        const double c = fold.freeEnd - fold.cpuBegin;
        const double g = std::max(
            stream.freeNs() + rest * fold.busy,
            cpu.nowNs() + c + (rest - 1.0) * std::max(a, fold.busy));
        cpu.advanceBy(rest * a);
        stream.occupyUntil(g);
        fold = {};
    }

    void
    launch(std::string_view kernel, std::span<const hw::KernelWork> work,
           bool isMemcpy) override
    {
        if (!isMemcpy) {
            enqueue("cudaLaunchKernel", kernel, work, false, [&] {
                return jitterComponentsNs(
                    rng, hw::kernelDurationNs(p.gpu, work), o.jitterFrac,
                    o.jitter, work.size());
            });
            return;
        }
        // Unified-memory platforms (CC/TC) access host data in place:
        // no staging copy is issued at all.
        if (p.unifiedMemory)
            return;
        enqueue("cudaMemcpyAsync", kernel, work, true, [&] {
            return jitter(
                p.transferNs(totalOf(work, &hw::KernelWork::bytes)));
        });
    }

  private:
    /** An open operator: when it began and what it pays on close. */
    struct Frame
    {
        std::int64_t beginNs = 0;
        double postNs = 0.0;
    };

    static constexpr double kFreeAtMinusInf =
        -std::numeric_limits<double>::infinity();

    /** The layer block being folded: its first layer's A, B and C. */
    struct Fold
    {
        int layers = 0;          ///< N; 0 when no block folds
        double cpuBegin = 0.0;   ///< c at the block's start
        double busy = 0.0;       ///< B: summed gap + duration
        double freeEnd = kFreeAtMinusInf; ///< c0 + C
    };

    const hw::Platform &p;
    const SimOptions &o;
    Rng rng;

    core::Clock cpu;           ///< CPU dispatch-thread cursor
    core::FifoResource stream; ///< in-order GPU stream
    std::vector<Frame> open;   ///< open operators, outermost first

    Recorder rec;
    std::uint64_t nextCorrelation = 1;
    Fold fold;

    /** Sum of one field over a launch's work, in component order. */
    static double
    totalOf(std::span<const hw::KernelWork> work,
            double hw::KernelWork::*field)
    {
        double total = 0.0;
        for (const auto &w : work)
            total += w.*field;
        return total;
    }

    /** CPU cursor as integer ns (exact: only integer ns are added). */
    std::int64_t
    cpuNowI() const
    {
        return static_cast<std::int64_t>(cpu.nowNs());
    }

    /** Jittered duration on the run's RNG stream. */
    std::int64_t
    jitter(double ns)
    {
        return jitterNs(rng, ns, o.jitterFrac, o.jitter);
    }

    /**
     * The runtime call that enqueues a kernel or copy: the CPU is busy
     * for the call, then the stream places the work. @p work_ns draws
     * the work's duration once its start is known.
     */
    template <typename WorkNs>
    void
    enqueue(const char *call, std::string_view kernel,
            std::span<const hw::KernelWork> work, bool isMemcpy,
            WorkNs work_ns)
    {
        std::int64_t call_begin = cpuNowI();
        std::int64_t call_dur = jitter(p.cpu.launchCpuNs);
        cpu.advanceBy(static_cast<double>(call_dur));

        // The work starts after the launch-to-start latency on an idle
        // stream, or at the previous item's end plus the GPU's
        // inter-kernel gap when the stream is backed up: the observed
        // launch-to-start latency t_l stretches into queuing time,
        // exactly what TKLQT accumulates. The gap is drawn only once
        // the stream has been used.
        double earliest = static_cast<double>(
            call_begin + jitter(p.cpu.launchOverheadNs));
        double gap = stream.everUsed()
            ? static_cast<double>(jitter(p.gpu.interKernelGapNs))
            : 0.0;
        std::int64_t start =
            static_cast<std::int64_t>(stream.startFor(earliest, gap));
        std::int64_t dur = work_ns();
        stream.occupyUntil(static_cast<double>(start + dur));
        if (!kRecords && fold.layers != 0) {
            const double d = static_cast<double>(dur);
            fold.busy += gap + d;
            fold.freeEnd = std::max(earliest, fold.freeEnd + gap) + d;
        }

        if constexpr (kRecords) {
            std::uint64_t corr = nextCorrelation++;

            trace::TraceEvent &rt = rec.cpuEvent();
            rt.kind = trace::EventKind::Runtime;
            rt.name = call;
            rt.tid = kThreadId;
            rt.correlationId = corr;
            rt.tsBeginNs = call_begin;
            rt.durNs = call_dur;

            trace::TraceEvent &k = rec.gpuEvent();
            k.tid = kThreadId;
            k.streamId = kStreamId;
            k.correlationId = corr;
            k.tsBeginNs = start;
            k.durNs = dur;
            k.bytes = totalOf(work, &hw::KernelWork::bytes);
            if (isMemcpy) {
                k.kind = trace::EventKind::Memcpy;
                k.name = "Memcpy HtoD";
            } else {
                k.kind = trace::EventKind::Kernel;
                k.name = kernel;
                k.flops = totalOf(work, &hw::KernelWork::flops);
            }
        }
    }
};

} // namespace skipsim::sim

#endif // SKIPSIM_SIM_RUNNER_HH

#include "sim/simulator.hh"

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/jitter.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/clock.hh"
#include "core/resource.hh"
#include "workload/builder.hh"

namespace skipsim::sim
{

namespace
{

/** CPU thread id and CUDA stream id recorded in every trace. */
constexpr int kThreadId = 1;
constexpr int kStreamId = 7;

/**
 * Internal execution state for one run: two resources and one walk.
 * The CPU dispatch thread is a core::Clock that never blocks mid-walk;
 * the GPU stream is a core::FifoResource that places each kernel after
 * its predecessor. Every timestamp follows from those two cursors as
 * operators arrive in issue order (the runner is the OpSink a tree or
 * the builder's emitter streams into), so the run needs no scheduled
 * events: cudaDeviceSynchronize simply waits for the stream's free
 * time.
 *
 * @tparam Record whether the walk records its trace. Both walks make
 *         the same jitter draws in the same order on the same cursors,
 *         so they end at the same wall time bit for bit; without
 *         Record no TraceEvent is built and nothing is sorted.
 */
template <bool Record>
class Runner final : public workload::OpSink
{
  public:
    Runner(const hw::Platform &platform, const SimOptions &opts)
        : p(platform), o(opts), rng(opts.seed)
    {}

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

        if constexpr (Record) {
            trace::TraceEvent rt;
            rt.kind = trace::EventKind::Runtime;
            rt.name = "cudaDeviceSynchronize";
            rt.tid = kThreadId;
            rt.tsBeginNs = begin;
            rt.durNs = static_cast<std::int64_t>(done) - begin;
            out.add(std::move(rt));
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
        static_assert(Record, "a trace-free walk records no trace");
        out.setMeta("platform", p.name);
        out.sortByTime();
        return std::move(out);
    }

    bool keepsNames() const override { return Record; }

    /** Pay the operator's pre-dispatch CPU cost. */
    void
    begin(std::string_view name, double cpuNs, double preFraction) override
    {
        double total_cpu = p.cpuOpNs(cpuNs);
        double pre = total_cpu * preFraction;
        open.push_back({cpuNowI(), total_cpu - pre});
        if constexpr (Record)
            openNames.emplace_back(name);
        cpu.advanceBy(static_cast<double>(jitter(pre)));
    }

    /** Pay the post-dispatch CPU cost and record the operator. */
    void
    end() override
    {
        const Frame frame = open.back();
        open.pop_back();
        cpu.advanceBy(static_cast<double>(jitter(frame.postNs)));

        if constexpr (Record) {
            trace::TraceEvent op;
            op.kind = trace::EventKind::Operator;
            op.name = std::move(openNames.back());
            openNames.pop_back();
            op.tid = kThreadId;
            op.tsBeginNs = frame.beginNs;
            op.durNs = cpuNowI() - frame.beginNs;
            out.add(std::move(op));
        }
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

    const hw::Platform &p;
    const SimOptions &o;
    Rng rng;

    core::Clock cpu;           ///< CPU dispatch-thread cursor
    core::FifoResource stream; ///< in-order GPU stream
    std::vector<Frame> open;   ///< open operators, outermost first
    std::vector<std::string> openNames; ///< their names (Record only)

    trace::Trace out;
    std::uint64_t nextCorrelation = 1;

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
     * Start time for the next kernel: the launch-to-start latency on
     * an idle stream, or the previous kernel's end plus the GPU's
     * inter-kernel scheduling gap when the stream is backed up — the
     * observed launch-to-start latency t_l stretches into queuing
     * time, exactly what TKLQT accumulates.
     */
    std::int64_t
    kernelStart(std::int64_t launch_begin)
    {
        double earliest = static_cast<double>(
            launch_begin + jitter(p.cpu.launchOverheadNs));
        // The gap draw happens only on a backed-up stream, as before.
        double gap = stream.everUsed()
            ? static_cast<double>(jitter(p.gpu.interKernelGapNs))
            : 0.0;
        return static_cast<std::int64_t>(stream.startFor(earliest, gap));
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

        std::int64_t start = kernelStart(call_begin);
        std::int64_t dur = work_ns();
        stream.occupyUntil(static_cast<double>(start + dur));

        if constexpr (Record) {
            std::uint64_t corr = nextCorrelation++;

            trace::TraceEvent rt;
            rt.kind = trace::EventKind::Runtime;
            rt.name = call;
            rt.tid = kThreadId;
            rt.correlationId = corr;
            rt.tsBeginNs = call_begin;
            rt.durNs = call_dur;

            trace::TraceEvent k;
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

            out.add(std::move(rt));
            out.add(std::move(k));
        }
    }
};

/** Wall time of the pass @p emit streams into a trace-free walk. */
template <typename Emit>
double
traceFreeWall(const hw::Platform &platform, const SimOptions &opts,
              Emit emit)
{
    Runner<false> runner(platform, opts);
    emit(runner);
    runner.deviceSynchronize();
    return runner.wallNs();
}

} // namespace

Simulator::Simulator(const hw::Platform &platform, SimOptions opts)
    : _platform(platform), _opts(opts)
{
    if (_opts.jitterFrac < 0.0 || _opts.jitterFrac > 0.25)
        fatal("Simulator: jitterFrac must be within [0, 0.25]");
}

SimResult
Simulator::run(const workload::OperatorGraph &graph) const
{
    Runner<true> runner(_platform, _opts);
    graph.emit(runner);
    runner.deviceSynchronize();
    SimResult result;
    result.wallNs = runner.wallNs();
    result.trace = runner.takeTrace();
    return result;
}

double
Simulator::wallNs(const workload::OperatorGraph &graph) const
{
    return traceFreeWall(_platform, _opts,
                         [&](workload::OpSink &sink) { graph.emit(sink); });
}

double
Simulator::wallNs(const workload::ModelConfig &model,
                  const workload::BuildOptions &opts) const
{
    return traceFreeWall(_platform, _opts, [&](workload::OpSink &sink) {
        workload::emitPrefill(model, opts, sink);
    });
}

double
Simulator::wallNs(const workload::ModelConfig &model,
                  const workload::BuildOptions &opts, int context_len) const
{
    return traceFreeWall(_platform, _opts, [&](workload::OpSink &sink) {
        workload::emitDecodeStep(model, opts, context_len, sink);
    });
}

} // namespace skipsim::sim

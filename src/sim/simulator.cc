#include "sim/simulator.hh"

#include <algorithm>

#include "common/jitter.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/clock.hh"
#include "core/resource.hh"

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
 * the operator tree is walked in issue order, so the run needs no
 * scheduled events: cudaDeviceSynchronize simply waits for the
 * stream's free time.
 */
class Runner
{
  public:
    Runner(const hw::Platform &platform, const SimOptions &opts)
        : p(platform), o(opts), rng(opts.seed)
    {}

    SimResult
    run(const workload::OperatorGraph &graph)
    {
        for (const auto &root : graph.roots)
            execOp(root);
        deviceSynchronize();

        SimResult result;
        result.wallNs = std::max(cpu.nowNs(), stream.freeNs());
        result.trace = std::move(out);
        result.trace.setMeta("platform", p.name);
        result.trace.sortByTime();
        return result;
    }

  private:
    const hw::Platform &p;
    const SimOptions &o;
    Rng rng;

    core::Clock cpu;           ///< CPU dispatch-thread cursor
    core::FifoResource stream; ///< in-order GPU stream

    trace::Trace out;
    std::uint64_t nextCorrelation = 1;

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

    void
    execOp(const workload::OpNode &node)
    {
        trace::TraceEvent op;
        op.kind = trace::EventKind::Operator;
        op.name = node.name;
        op.tid = kThreadId;
        op.tsBeginNs = cpuNowI();

        double total_cpu = p.cpuOpNs(node.cpuNs);
        double pre = total_cpu * node.preFraction;
        double post = total_cpu - pre;

        cpu.advanceBy(static_cast<double>(jitter(pre)));
        for (const auto &child : node.children)
            execOp(child);
        for (const auto &launch : node.launches)
            execLaunch(launch);
        cpu.advanceBy(static_cast<double>(jitter(post)));

        op.durNs = cpuNowI() - op.tsBeginNs;
        out.add(std::move(op));
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

    void
    execLaunch(const workload::KernelLaunch &launch)
    {
        if (launch.isMemcpy) {
            execMemcpy(launch);
            return;
        }

        std::uint64_t corr = nextCorrelation++;

        trace::TraceEvent rt;
        rt.kind = trace::EventKind::Runtime;
        rt.name = "cudaLaunchKernel";
        rt.tid = kThreadId;
        rt.correlationId = corr;
        rt.tsBeginNs = cpuNowI();
        rt.durNs = jitter(p.cpu.launchCpuNs);
        cpu.advanceBy(static_cast<double>(rt.durNs));

        std::int64_t start = kernelStart(rt.tsBeginNs);

        trace::TraceEvent k;
        k.kind = trace::EventKind::Kernel;
        k.name = launch.kernelName;
        k.tid = kThreadId;
        k.streamId = kStreamId;
        k.correlationId = corr;
        k.tsBeginNs = start;
        k.durNs = jitterComponentsNs(
            rng, hw::kernelDurationNs(p.gpu, launch.work), o.jitterFrac,
            o.jitter, launch.work.size());
        k.flops = launch.totalFlops();
        k.bytes = launch.totalBytes();
        stream.occupyUntil(static_cast<double>(k.tsEndNs()));

        out.add(std::move(rt));
        out.add(std::move(k));
    }

    void
    execMemcpy(const workload::KernelLaunch &launch)
    {
        // Unified-memory platforms (CC/TC) access host data in place:
        // no staging copy is issued at all.
        if (p.unifiedMemory)
            return;

        std::uint64_t corr = nextCorrelation++;

        trace::TraceEvent rt;
        rt.kind = trace::EventKind::Runtime;
        rt.name = "cudaMemcpyAsync";
        rt.tid = kThreadId;
        rt.correlationId = corr;
        rt.tsBeginNs = cpuNowI();
        rt.durNs = jitter(p.cpu.launchCpuNs);
        cpu.advanceBy(static_cast<double>(rt.durNs));

        std::int64_t start = kernelStart(rt.tsBeginNs);

        trace::TraceEvent mc;
        mc.kind = trace::EventKind::Memcpy;
        mc.name = "Memcpy HtoD";
        mc.tid = kThreadId;
        mc.streamId = kStreamId;
        mc.correlationId = corr;
        mc.tsBeginNs = start;
        mc.durNs = jitter(p.transferNs(launch.totalBytes()));
        mc.bytes = launch.totalBytes();
        stream.occupyUntil(static_cast<double>(mc.tsEndNs()));

        out.add(std::move(rt));
        out.add(std::move(mc));
    }

    void
    deviceSynchronize()
    {
        trace::TraceEvent rt;
        rt.kind = trace::EventKind::Runtime;
        rt.name = "cudaDeviceSynchronize";
        rt.tid = kThreadId;
        rt.tsBeginNs = cpuNowI();

        // The call returns once the stream has drained: at its free
        // time, no earlier than the call itself.
        double call = static_cast<double>(jitter(p.cpu.syncCallNs));
        double done =
            std::max(cpu.nowNs() + call, stream.freeNs() + call);
        rt.durNs = static_cast<std::int64_t>(done) - rt.tsBeginNs;
        cpu.advanceTo(done);
        out.add(std::move(rt));
    }
};

} // namespace

Simulator::Simulator(const hw::Platform &platform, SimOptions opts)
    : _platform(platform), _opts(opts)
{
    if (_opts.jitterFrac < 0.0 || _opts.jitterFrac > 0.25)
        fatal("Simulator: jitterFrac must be within [0, 0.25]");
}

SimResult
Simulator::run(const workload::OperatorGraph &graph)
{
    Runner runner(_platform, _opts);
    return runner.run(graph);
}

} // namespace skipsim::sim

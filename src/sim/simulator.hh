/**
 * @file
 * Discrete-event execution simulator. Replays an operator graph on a
 * platform model the way single-threaded PyTorch eager dispatch does:
 * the CPU thread walks the operator tree depth-first, paying framework
 * dispatch cost per operator (scaled by the platform's single-thread
 * speed), issuing cudaLaunchKernel calls that enqueue kernels into an
 * in-order GPU stream. Kernels start after the launch-to-start latency
 * and after the stream drains (queuing). The run ends with a device
 * synchronize. The output is a Kineto-style Trace, the same artifact a
 * real PyTorch Profiler session would produce, which SKIP then
 * analyzes (Fig. 4 of the paper shows exactly this timing structure).
 *
 * The walk is an operator sink (workload::OpSink): begin() pays an
 * operator's pre-dispatch CPU cost, launch() issues a kernel or copy,
 * end() pays the post-dispatch cost. Every entry point feeds that one
 * sink, so the timing and the jitter draws exist once:
 *  - run(graph) streams a tree and records the trace, already in
 *    time order (SKIP, the fuzzer, the Kineto path);
 *  - wallNs(graph) streams a tree and records nothing: the same draws
 *    in the same order on the same CPU clock and GPU stream, so it
 *    returns run().wallNs bit for bit. It is the oracle of
 *  - wallNs(model, opts[, contextLen]), which streams the builder's
 *    emitter straight into the walk: no OperatorGraph is built, no
 *    kernel name formatted, no event recorded. Callers that read only
 *    the wall time (the serving cost model, the generation and
 *    speculative-decoding analyses) price passes this way.
 * The walk itself (sim::Runner) is in sim/runner.hh.
 */

#ifndef SKIPSIM_SIM_SIMULATOR_HH
#define SKIPSIM_SIM_SIMULATOR_HH

#include <cstdint>

#include "hw/platform.hh"
#include "trace/trace.hh"
#include "workload/builder.hh"
#include "workload/op_graph.hh"

namespace skipsim::sim
{

/** Knobs of one simulation run (exec::RunSpec holds one). */
struct SimOptions
{
    /** PRNG seed for timing jitter; same seed -> identical trace. */
    std::uint64_t seed = 42;

    /**
     * Apply multiplicative timing jitter. Off by default so that an
     * identical configuration always yields an identical trace; noisy
     * runs are an explicit opt-in (e.g. for calibration-robustness
     * studies), not something a caller has to remember to disable.
     */
    bool jitter = false;

    /** Relative jitter magnitude (stddev of the multiplier). */
    double jitterFrac = 0.02;
};

/** Result of a simulation run. */
struct SimResult
{
    trace::Trace trace;

    /** End-to-end simulated wall time (to sync completion), ns. */
    double wallNs = 0.0;
};

/**
 * Executes operator graphs on a platform model.
 *
 * Timing semantics per kernel launch (paper Fig. 4):
 *  - the CPU is busy for the launch call (CpuModel::launchCpuNs);
 *  - the kernel may start launchOverheadNs after the call began, on an
 *    idle stream (the Table V nullKernel anchor);
 *  - on a busy stream it starts when the previous kernel finishes, so
 *    the observed launch-to-start latency t_l stretches into queuing
 *    time — exactly what TKLQT accumulates.
 */
class Simulator
{
  public:
    explicit Simulator(const hw::Platform &platform, SimOptions opts = {});

    /**
     * Run one forward pass.
     * @param graph the operator graph to execute.
     * @return the trace and summary timings.
     */
    SimResult run(const workload::OperatorGraph &graph) const;

    /**
     * Run one forward pass without recording it.
     * @return run(graph).wallNs, bit for bit.
     */
    double wallNs(const workload::OperatorGraph &graph) const;

    /**
     * Price the prefill pass without building it.
     * @return wallNs(workload::buildPrefillGraph(model, opts)), bit for
     *         bit.
     * @throws skipsim::FatalError as workload::buildPrefillGraph().
     */
    double wallNs(const workload::ModelConfig &model,
                  const workload::BuildOptions &opts) const;

    /**
     * Price one decode step over @p context_len cached tokens without
     * building it.
     * @return wallNs(workload::buildDecodeStepGraph(model, opts,
     *         context_len)), bit for bit.
     * @throws skipsim::FatalError as workload::buildDecodeStepGraph().
     */
    double wallNs(const workload::ModelConfig &model,
                  const workload::BuildOptions &opts,
                  int context_len) const;

    const hw::Platform &platform() const { return _platform; }

  private:
    hw::Platform _platform;
    SimOptions _opts;
};

} // namespace skipsim::sim

#endif // SKIPSIM_SIM_SIMULATOR_HH

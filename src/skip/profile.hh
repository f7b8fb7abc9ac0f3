/**
 * @file
 * ProfileSession: SKIP's one-call public API. Builds the workload
 * graph, runs it on a platform model, constructs the dependency graph
 * and returns the metric report together with the trace — the same
 * flow a SKIP user runs against a real system with PyTorch Profiler.
 */

#ifndef SKIPSIM_SKIP_PROFILE_HH
#define SKIPSIM_SKIP_PROFILE_HH

#include <string>

#include "hw/platform.hh"
#include "sim/simulator.hh"
#include "skip/metrics.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

namespace skipsim::skip
{

/** Result of one profiling run. */
struct ProfileResult
{
    /** Run identity. */
    std::string modelName;
    std::string platformName;
    int batch = 1;
    int seqLen = 512;
    workload::ExecMode mode = workload::ExecMode::Eager;

    /** SKIP's metric report. */
    MetricsReport metrics;

    /** The underlying trace (annotated with run metadata). */
    trace::Trace trace;

    /** Eager-equivalent kernel launch count (K_eager when eager). */
    std::size_t kernelLaunches = 0;

    /** End-to-end simulated wall time including final sync, ns. */
    double wallNs = 0.0;

    /** TTFT/prefill latency, ns (the paper reports IL for this). */
    double ttftNs() const { return metrics.ilNs; }
};

/**
 * Run one profiling session: build the prefill graph of @p model with
 * @p build, simulate it on @p platform with @p sim, then analyze.
 * @throws skipsim::FatalError on invalid configuration.
 */
ProfileResult profile(const workload::ModelConfig &model,
                      const hw::Platform &platform,
                      const workload::BuildOptions &build = {},
                      const sim::SimOptions &sim = {});

/**
 * Profile a prefill run for a model/platform/batch in one call.
 * Convenience wrapper over profile().
 */
ProfileResult profilePrefill(const workload::ModelConfig &model,
                             const hw::Platform &platform, int batch,
                             int seq_len = 512,
                             workload::ExecMode mode =
                                 workload::ExecMode::Eager);

} // namespace skipsim::skip

#endif // SKIPSIM_SKIP_PROFILE_HH

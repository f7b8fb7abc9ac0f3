/**
 * @file
 * Runner: the single entry point for experiment execution. A Runner
 * binds a worker count, dispatches RunSpecs to analyses through the
 * registry (by name), and collects per-point results with wall-clock
 * timing so parallel speedup is directly measurable. Point failures
 * (FatalError from an analysis) are recorded per point, not aborted,
 * so one bad grid point cannot sink a thousand-point sweep.
 */

#ifndef SKIPSIM_EXEC_RUNNER_HH
#define SKIPSIM_EXEC_RUNNER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "exec/registry.hh"
#include "exec/run_spec.hh"
#include "exec/sweep_spec.hh"
#include "json/value.hh"

namespace skipsim::obs
{
class HarnessTracer;
}

namespace skipsim::exec
{

/** One grid point's outcome. */
struct PointResult
{
    std::size_t index = 0;
    RunSpec spec;

    /** Analysis result document; Null when the point failed. */
    json::Value value;

    /** Host wall-clock spent on this point, ms. */
    double wallMs = 0.0;

    /** Failure message; empty on success. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/** A whole grid run's outcome. */
struct GridReport
{
    std::string analysis;
    int jobs = 1;

    /** Host wall-clock for the whole grid, ms. */
    double wallMs = 0.0;

    /** Per-point outcomes in grid-index order. */
    std::vector<PointResult> points;

    /** Points that failed. */
    std::size_t failed() const;

    /**
     * Deterministic content only (spec + per-point result documents,
     * no host timing): two runs of the same grid and analysis compare
     * byte-identical through json::write() regardless of job count.
     */
    json::Value resultsJson() const;

    /** Full report including host timings and failure messages. */
    json::Value toJson() const;
};

/** Experiment runner over the analysis registry. */
class Runner
{
  public:
    /**
     * @param jobs worker threads for grids (0 = all cores, 1 = serial).
     * @throws skipsim::FatalError for negative job counts.
     */
    explicit Runner(int jobs = 1);

    int jobs() const { return _jobs; }

    /**
     * Fan a grid out across the workers. The analysis name resolves
     * once, up front (@throws skipsim::FatalError when unknown);
     * per-point analysis failures are recorded in the report instead.
     */
    GridReport runGrid(const SweepSpec &spec,
                       const std::string &analysis) const;

    /** Same, with an explicit analysis function. */
    GridReport runGrid(const SweepSpec &spec, const AnalysisFn &fn,
                       const std::string &label = "custom") const;

    /**
     * Attach a harness self-tracer: every grid point records one
     * wall-clock span ("point <i>: <spec label>") on its worker
     * thread's track, so parallel speedup and stragglers are visible
     * in Perfetto. Pass nullptr to detach. The tracer must outlive the
     * runs it observes; it does not affect results.
     */
    void setHarnessTracer(obs::HarnessTracer *tracer)
    {
        _tracer = tracer;
    }

  private:
    int _jobs = 1;
    obs::HarnessTracer *_tracer = nullptr;
};

} // namespace skipsim::exec

#endif // SKIPSIM_EXEC_RUNNER_HH

#include "exec/runner.hh"

#include <chrono>
#include <memory>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "exec/grid.hh"
#include "obs/harness.hh"

namespace skipsim::exec
{

namespace
{

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Per-point entries; @p timed adds each point's host wall_ms. */
json::Value
pointsJson(const std::vector<PointResult> &points, bool timed)
{
    json::Value::Array out;
    for (const auto &point : points) {
        json::Object entry;
        entry.set("index", static_cast<unsigned long long>(point.index));
        entry.set("spec", point.spec.toJson());
        if (timed)
            entry.set("wall_ms", point.wallMs);
        if (point.ok())
            entry.set("result", point.value);
        else
            entry.set("error", point.error);
        out.push_back(std::move(entry));
    }
    return out;
}

} // namespace

std::size_t
GridReport::failed() const
{
    std::size_t n = 0;
    for (const auto &point : points)
        n += point.ok() ? 0 : 1;
    return n;
}

json::Value
GridReport::resultsJson() const
{
    return pointsJson(points, /*timed=*/false);
}

json::Value
GridReport::toJson() const
{
    json::Object doc;
    doc.set("analysis", analysis);
    doc.set("jobs", jobs);
    doc.set("wall_ms", wallMs);
    doc.set("points", static_cast<unsigned long long>(points.size()));
    doc.set("failed", static_cast<unsigned long long>(failed()));
    doc.set("results", pointsJson(points, /*timed=*/true));
    return doc;
}

Runner::Runner(int jobs)
{
    if (jobs < 0)
        fatal("exec::Runner: job count must be >= 0");
    _jobs = jobs == 0 ? Pool::hardwareWorkers() : jobs;
}

GridReport
Runner::runGrid(const SweepSpec &spec, const std::string &analysis) const
{
    return runGrid(spec, analysisByName(analysis), analysis);
}

GridReport
Runner::runGrid(const SweepSpec &spec, const AnalysisFn &fn,
                const std::string &label) const
{
    if (!fn)
        fatal("exec::Runner: null analysis function");

    GridReport report;
    report.analysis = label;
    report.jobs = _jobs;

    auto grid_start = std::chrono::steady_clock::now();
    obs::HarnessTracer *tracer = _tracer;
    report.points = exec::runGrid(
        spec,
        [&fn, &label, tracer](const RunSpec &point, std::size_t index) {
            PointResult result;
            result.index = index;
            result.spec = point;
            std::unique_ptr<obs::HarnessTracer::Scope> span;
            if (tracer != nullptr)
                span = std::make_unique<obs::HarnessTracer::Scope>(
                    *tracer,
                    strprintf("point %zu: %s", index,
                              point.label().c_str()));
            auto point_start = std::chrono::steady_clock::now();
            try {
                result.value = fn(point);
            } catch (const FatalError &err) {
                result.error = err.what();
                // A sweep can fail the same way at hundreds of points;
                // one warning per distinct (analysis, message) pair
                // keeps stderr readable while still surfacing it.
                warnOnce(label + "|" + result.error,
                         strprintf("analysis '%s' failed: %s",
                                   label.c_str(),
                                   result.error.c_str()));
            }
            result.wallMs = elapsedMs(point_start);
            return result;
        },
        _jobs);
    report.wallMs = elapsedMs(grid_start);
    return report;
}

} // namespace skipsim::exec

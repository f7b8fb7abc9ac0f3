#include "check/analysis.hh"

#include "check/invariants.hh"
#include "exec/registry.hh"
#include "skip/profile.hh"
#include "workload/exec_mode.hh"

namespace skipsim::check
{

namespace
{

json::Value
checkAnalysis(const exec::RunSpec &spec)
{
    skip::ProfileResult run =
        skip::profile(spec.model(), spec.platform(), spec.buildOptions(),
                      spec.simOptions());
    TraceCheckReport report = validateTrace(run.trace);

    json::Object doc;
    doc.set("model", spec.model().name);
    doc.set("platform", spec.platform().name);
    doc.set("batch", spec.batch());
    doc.set("seq", spec.seqLen());
    doc.set("mode", workload::execModeName(spec.mode()));
    doc.set("check", report.toJson());
    return json::Value(std::move(doc));
}

} // namespace

void
registerCheckAnalysis()
{
    exec::registerAnalysis("check", checkAnalysis);
}

} // namespace skipsim::check

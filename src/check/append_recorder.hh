/**
 * @file
 * Differential oracle for the recorder of sim::Simulator::run. The
 * traced run records its trace already in (tsBeginNs, id) order: CPU
 * events in issue order, GPU events in stream order, merged once.
 * AppendRecorder is the recorder it replaced: it appends every event
 * when the walk creates it, lets Trace::add number them in that order,
 * and radix-sorts the whole trace at the end. appendSortRun() drives
 * the same walk (sim::Runner) into it; diffSimResults() requires the
 * two results to agree on the wall time bit for bit and on every field
 * of every event, id included.
 */

#ifndef SKIPSIM_CHECK_APPEND_RECORDER_HH
#define SKIPSIM_CHECK_APPEND_RECORDER_HH

#include <string>
#include <vector>

#include "hw/platform.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"
#include "workload/op_graph.hh"

namespace skipsim::check
{

/** The append-then-sort recorder (see sim/runner.hh for the contract). */
class AppendRecorder
{
  public:
    trace::TraceEvent &open();
    trace::TraceEvent &close();
    trace::TraceEvent &cpuEvent();
    trace::TraceEvent &gpuEvent();

    /** The events through Trace::add, in the order they were created. */
    trace::Trace take();

  private:
    std::vector<trace::TraceEvent> _created; ///< creation order
    std::vector<trace::TraceEvent> _open;    ///< open operators
};

/**
 * sim::Simulator(platform, opts).run(graph) with the append-then-sort
 * recorder. @p opts must be options sim::Simulator accepts; this copy
 * does not validate them.
 */
sim::SimResult appendSortRun(const hw::Platform &platform,
                             const sim::SimOptions &opts,
                             const workload::OperatorGraph &graph);

/**
 * Compare a traced run with the oracle's: wall time bit for bit,
 * metadata, and every field of every event in order (flops and bytes
 * bit for bit), plus each event's lookup by id.
 * @return empty when they agree, else the first difference.
 */
std::string diffSimResults(const sim::SimResult &run,
                           const sim::SimResult &oracle);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_APPEND_RECORDER_HH

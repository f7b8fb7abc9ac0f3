#include "sim/simulator.hh"

#include <algorithm>
#include <iterator>
#include <span>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "sim/runner.hh"
#include "workload/builder.hh"

namespace skipsim::sim
{

namespace
{

/**
 * The traced run's recorder: builds the trace already in
 * (tsBeginNs, id) order, moving each event once. CPU events sit in
 * issue order (an operator takes its slot when it begins and its id
 * when it ends), GPU events in stream order, and take() merges the two
 * by (tsBeginNs, id). A parent that begins on the same ns as its first
 * child sits before it with the larger id; Trace::sortByTime() then
 * finds the merge unsorted and sorts as before.
 */
class TimeOrderRecorder
{
  public:
    /** Make room for the events a walk of @p graph records. */
    void
    reserve(const workload::OperatorGraph &graph)
    {
        struct Count
        {
            std::size_t ops = 0;
            std::size_t launches = 0;
            void begin(std::string_view, double, double) { ++ops; }
            void
            launch(std::string_view, std::span<const hw::KernelWork>, bool)
            {
                ++launches;
            }
            void end() {}
        } count;
        graph.emit(count);
        // Every launch may issue a runtime call and a GPU event; the
        // final synchronize is one more CPU event.
        cpu.reserve(count.ops + count.launches + 1);
        gpu.reserve(count.launches);
    }

    trace::TraceEvent &
    open()
    {
        openSlots.push_back(cpu.size());
        return cpu.emplace_back();
    }

    trace::TraceEvent &
    close()
    {
        trace::TraceEvent &op = cpu[openSlots.back()];
        openSlots.pop_back();
        op.id = nextId++;
        return op;
    }

    trace::TraceEvent &
    cpuEvent()
    {
        trace::TraceEvent &ev = cpu.emplace_back();
        ev.id = nextId++;
        return ev;
    }

    trace::TraceEvent &
    gpuEvent()
    {
        trace::TraceEvent &ev = gpu.emplace_back();
        ev.id = nextId++;
        return ev;
    }

    trace::Trace
    take()
    {
        std::vector<trace::TraceEvent> events;
        events.reserve(cpu.size() + gpu.size());
        std::merge(std::make_move_iterator(cpu.begin()),
                   std::make_move_iterator(cpu.end()),
                   std::make_move_iterator(gpu.begin()),
                   std::make_move_iterator(gpu.end()),
                   std::back_inserter(events),
                   [](const trace::TraceEvent &a,
                      const trace::TraceEvent &b) {
                       if (a.tsBeginNs != b.tsBeginNs)
                           return a.tsBeginNs < b.tsBeginNs;
                       return a.id < b.id;
                   });
        trace::Trace out;
        out.adopt(std::move(events));
        return out;
    }

  private:
    std::vector<trace::TraceEvent> cpu; ///< issue order
    std::vector<trace::TraceEvent> gpu; ///< stream order
    std::vector<std::size_t> openSlots; ///< cpu slots of open operators
    std::uint64_t nextId = 0;
};

/** Wall time of the pass @p emit streams into a trace-free walk. */
template <typename Emit>
double
traceFreeWall(const hw::Platform &platform, const SimOptions &opts,
              Emit emit)
{
    Runner<NoTrace> runner(platform, opts);
    emit(runner);
    runner.deviceSynchronize();
    return runner.wallNs();
}

} // namespace

Simulator::Simulator(const hw::Platform &platform, SimOptions opts)
    : _platform(platform), _opts(opts)
{
    // Written so that NaN fails too: every comparison with it is false.
    if (!(_opts.jitterFrac >= 0.0 && _opts.jitterFrac <= 0.25))
        fatal("Simulator: jitterFrac must be within [0, 0.25]");
}

SimResult
Simulator::run(const workload::OperatorGraph &graph) const
{
    Runner<TimeOrderRecorder> runner(_platform, _opts);
    runner.recorder().reserve(graph);
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

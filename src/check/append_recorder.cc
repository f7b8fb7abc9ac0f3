#include "check/append_recorder.hh"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/strutil.hh"
#include "sim/runner.hh"

namespace skipsim::check
{

trace::TraceEvent &
AppendRecorder::open()
{
    return _open.emplace_back();
}

trace::TraceEvent &
AppendRecorder::close()
{
    _created.push_back(std::move(_open.back()));
    _open.pop_back();
    return _created.back();
}

trace::TraceEvent &
AppendRecorder::cpuEvent()
{
    return _created.emplace_back();
}

trace::TraceEvent &
AppendRecorder::gpuEvent()
{
    return _created.emplace_back();
}

trace::Trace
AppendRecorder::take()
{
    trace::Trace out;
    for (trace::TraceEvent &ev : _created)
        out.add(std::move(ev));
    _created.clear();
    return out;
}

sim::SimResult
appendSortRun(const hw::Platform &platform, const sim::SimOptions &opts,
              const workload::OperatorGraph &graph)
{
    sim::Runner<AppendRecorder> runner(platform, opts);
    graph.emit(runner);
    runner.deviceSynchronize();
    sim::SimResult result;
    result.wallNs = runner.wallNs();
    result.trace = runner.takeTrace();
    return result;
}

namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** First field where two events differ, or empty. */
std::string
diffEvents(const trace::TraceEvent &a, const trace::TraceEvent &b)
{
    auto ll = [](auto v) { return static_cast<long long>(v); };
    const std::pair<const char *, std::pair<long long, long long>>
        fields[] = {
            {"id", {ll(a.id), ll(b.id)}},
            {"kind", {ll(a.kind), ll(b.kind)}},
            {"tsBeginNs", {a.tsBeginNs, b.tsBeginNs}},
            {"durNs", {a.durNs, b.durNs}},
            {"tid", {a.tid, b.tid}},
            {"streamId", {a.streamId, b.streamId}},
            {"correlationId", {ll(a.correlationId), ll(b.correlationId)}},
        };
    for (const auto &[field, values] : fields) {
        if (values.first != values.second)
            return strprintf("%s %lld != %lld", field, values.first,
                             values.second);
    }
    if (a.name != b.name)
        return strprintf("name '%s' != '%s'", a.name.c_str(),
                         b.name.c_str());
    if (!sameBits(a.flops, b.flops))
        return strprintf("flops %.17g != %.17g", a.flops, b.flops);
    if (!sameBits(a.bytes, b.bytes))
        return strprintf("bytes %.17g != %.17g", a.bytes, b.bytes);
    return {};
}

} // namespace

std::string
diffSimResults(const sim::SimResult &run, const sim::SimResult &oracle)
{
    if (!sameBits(run.wallNs, oracle.wallNs))
        return strprintf("recorder: wallNs %.17g != oracle %.17g",
                         run.wallNs, oracle.wallNs);
    if (run.trace.metaEntries() != oracle.trace.metaEntries())
        return "recorder: trace metadata differs from the oracle's";
    const auto &got = run.trace.events();
    const auto &want = oracle.trace.events();
    if (got.size() != want.size())
        return strprintf("recorder: %zu events, oracle %zu", got.size(),
                         want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        std::string d = diffEvents(got[i], want[i]);
        if (!d.empty())
            return strprintf("recorder: event at position %zu: %s", i,
                             d.c_str());
        if (&run.trace.byId(got[i].id) != &got[i])
            return strprintf("recorder: id %llu does not look up the "
                             "event at position %zu",
                             static_cast<unsigned long long>(got[i].id),
                             i);
    }
    return {};
}

} // namespace skipsim::check

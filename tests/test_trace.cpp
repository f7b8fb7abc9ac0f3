/**
 * @file
 * Unit tests for the trace substrate: event model, trace container,
 * validation, and Chrome-trace JSON round trips.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "trace/chrome.hh"
#include "trace/event.hh"
#include "trace/trace.hh"

namespace skipsim::trace
{
namespace
{

TraceEvent
makeEvent(EventKind kind, const std::string &name, std::int64_t begin,
          std::int64_t dur, std::uint64_t corr = 0, int stream = -1)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.name = name;
    ev.tsBeginNs = begin;
    ev.durNs = dur;
    ev.tid = 1;
    ev.correlationId = corr;
    ev.streamId = kind == EventKind::Kernel || kind == EventKind::Memcpy
        ? (stream < 0 ? 7 : stream)
        : -1;
    return ev;
}

// ------------------------------------------------------------------ event

TEST(TraceEvent, KindNamesRoundTrip)
{
    for (EventKind kind :
         {EventKind::Operator, EventKind::Runtime, EventKind::Kernel,
          EventKind::Memcpy}) {
        EXPECT_EQ(kindFromName(kindName(kind)), kind);
    }
}

TEST(TraceEvent, UnknownKindNameThrows)
{
    EXPECT_THROW(kindFromName("python_function"), FatalError);
}

TEST(TraceEvent, CpuGpuPredicates)
{
    EXPECT_TRUE(makeEvent(EventKind::Operator, "op", 0, 1).onCpu());
    EXPECT_TRUE(makeEvent(EventKind::Runtime, "rt", 0, 1).onCpu());
    EXPECT_TRUE(makeEvent(EventKind::Kernel, "k", 0, 1).onGpu());
    EXPECT_TRUE(makeEvent(EventKind::Memcpy, "m", 0, 1).onGpu());
}

TEST(TraceEvent, EndTimestamp)
{
    EXPECT_EQ(makeEvent(EventKind::Kernel, "k", 10, 5).tsEndNs(), 15);
}

// ------------------------------------------------------------------ trace

TEST(Trace, AssignsDenseIds)
{
    Trace trace;
    EXPECT_EQ(trace.add(makeEvent(EventKind::Operator, "a", 0, 1)), 0u);
    EXPECT_EQ(trace.add(makeEvent(EventKind::Operator, "b", 1, 1)), 1u);
    EXPECT_EQ(trace.size(), 2u);
}

TEST(Trace, SortByTimeOrdersByBeginThenId)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Operator, "late", 100, 1));
    trace.add(makeEvent(EventKind::Operator, "early", 5, 1));
    trace.add(makeEvent(EventKind::Operator, "tie-a", 50, 1));
    trace.add(makeEvent(EventKind::Operator, "tie-b", 50, 1));
    trace.sortByTime();
    EXPECT_EQ(trace.events()[0].name, "early");
    EXPECT_EQ(trace.events()[1].name, "tie-a");
    EXPECT_EQ(trace.events()[3].name, "late");
}

TEST(Trace, ByIdWorksAfterSorting)
{
    Trace trace;
    std::uint64_t id = trace.add(makeEvent(EventKind::Operator, "x",
                                           100, 1));
    trace.add(makeEvent(EventKind::Operator, "y", 1, 1));
    trace.sortByTime();
    EXPECT_EQ(trace.byId(id).name, "x");

    // A full permutation: insertion order is a stride through time, so
    // no id matches its position after the sort.
    Trace permuted;
    const std::uint64_t n = 97;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::int64_t ts = static_cast<std::int64_t>((i * 37) % n);
        permuted.add(makeEvent(EventKind::Operator, std::to_string(i), ts,
                               1));
    }
    permuted.sortByTime();
    for (std::uint64_t i = 0; i < n; ++i) {
        const TraceEvent &ev = permuted.byId(i);
        EXPECT_EQ(ev.id, i);
        EXPECT_EQ(ev.name, std::to_string(i));
    }
    EXPECT_THROW(permuted.byId(n), FatalError);

    // Re-sorting a sorted trace with later ties: positions no longer
    // follow ids, yet ties must still break by id.
    for (std::uint64_t i = 0; i < n; ++i)
        permuted.add(makeEvent(EventKind::Kernel, "tie",
                               static_cast<std::int64_t>(n - 1 - i), 1));
    permuted.sortByTime();
    const auto &events = permuted.events();
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_TRUE(events[i - 1].tsBeginNs < events[i].tsBeginNs ||
                    (events[i - 1].tsBeginNs == events[i].tsBeginNs &&
                     events[i - 1].id < events[i].id))
            << "position " << i;
    }
    for (std::uint64_t id = 0; id < 2 * n; ++id)
        EXPECT_EQ(permuted.byId(id).id, id);
}

TEST(Trace, ByIdSurvivesCopyAndLaterAdds)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Operator, "late", 100, 1));
    trace.add(makeEvent(EventKind::Operator, "early", 1, 1));
    trace.sortByTime();

    Trace copy = trace;
    std::uint64_t added = copy.add(makeEvent(EventKind::Kernel, "k", 50, 1));
    EXPECT_EQ(copy.byId(0).name, "late");
    EXPECT_EQ(copy.byId(1).name, "early");
    EXPECT_EQ(copy.byId(added).name, "k");
    copy.sortByTime();
    EXPECT_EQ(copy.events()[1].name, "k");
    EXPECT_EQ(copy.byId(added).name, "k");
    EXPECT_EQ(copy.byId(0).name, "late");

    // The source keeps its own index.
    EXPECT_EQ(trace.byId(0).name, "late");
    EXPECT_THROW(trace.byId(added), FatalError);
}

/** Events carrying the given ids, begins and names, in that order. */
std::vector<TraceEvent>
withIds(const std::vector<std::pair<std::uint64_t, std::int64_t>> &spec)
{
    std::vector<TraceEvent> events;
    for (const auto &[id, begin] : spec) {
        std::string name = "e";
        name += std::to_string(id);
        TraceEvent ev = makeEvent(EventKind::Operator, name, begin, 1);
        ev.id = id;
        events.push_back(ev);
    }
    return events;
}

TEST(Trace, AdoptKeepsIdsAndSortsTiesById)
{
    // Position order breaks the (begin, id) order on a tie: id 2 sits
    // before id 0 at begin 5. The sort must still break ties by id.
    Trace trace;
    trace.adopt(withIds({{1, 0}, {2, 5}, {0, 5}, {3, 9}}));
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.byId(2).name, "e2");
    EXPECT_EQ(trace.byId(0).tsBeginNs, 5);
    trace.sortByTime();
    std::vector<std::uint64_t> order;
    for (const TraceEvent &ev : trace.events())
        order.push_back(ev.id);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 0, 2, 3}));
    for (std::uint64_t id = 0; id < 4; ++id)
        EXPECT_EQ(trace.byId(id).id, id);
    // Later adds continue the dense ids.
    EXPECT_EQ(trace.add(makeEvent(EventKind::Operator, "x", 1, 1)), 4u);
}

TEST(Trace, AdoptRejectsIdsThatAreNotAPermutation)
{
    auto message = [](std::vector<TraceEvent> events) -> std::string {
        Trace trace;
        try {
            trace.adopt(std::move(events));
        } catch (const FatalError &err) {
            return err.what();
        }
        return "accepted";
    };
    const std::string repeated = message(withIds({{0, 0}, {1, 1}, {1, 2}}));
    EXPECT_NE(repeated.find("Trace::adopt"), std::string::npos) << repeated;
    EXPECT_NE(repeated.find("duplicate id 1"), std::string::npos)
        << repeated;
    const std::string outside = message(withIds({{0, 0}, {3, 1}, {1, 2}}));
    EXPECT_NE(outside.find("Trace::adopt"), std::string::npos) << outside;
    EXPECT_NE(outside.find("out-of-range id 3"), std::string::npos)
        << outside;
    EXPECT_EQ(message({}), "accepted");
}

TEST(Trace, ByIdUnknownThrows)
{
    Trace trace;
    EXPECT_THROW(trace.byId(3), FatalError);
}

TEST(Trace, KindFilters)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Operator, "op", 0, 1));
    trace.add(makeEvent(EventKind::Kernel, "k", 1, 1, 1));
    trace.add(makeEvent(EventKind::Kernel, "k", 2, 1, 2));
    EXPECT_EQ(trace.countOf(EventKind::Kernel), 2u);
    EXPECT_EQ(trace.ofKind(EventKind::Operator).size(), 1u);
}

TEST(Trace, BeginEndSpan)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Operator, "a", 10, 5));
    trace.add(makeEvent(EventKind::Kernel, "k", 12, 20, 1));
    EXPECT_EQ(trace.beginNs(), 10);
    EXPECT_EQ(trace.endNs(), 32);
}

TEST(Trace, EmptySpanThrows)
{
    Trace trace;
    EXPECT_THROW(trace.beginNs(), FatalError);
    EXPECT_THROW(trace.endNs(), FatalError);
}

TEST(Trace, MetaRoundTrip)
{
    Trace trace;
    trace.setMeta("model", "GPT2");
    trace.setMeta("model", "Llama");
    trace.setMeta("batch", "4");
    EXPECT_EQ(trace.meta("model"), "Llama");
    EXPECT_EQ(trace.meta("batch"), "4");
    EXPECT_EQ(trace.meta("missing"), "");
    EXPECT_EQ(trace.metaEntries().size(), 2u);
}

// -------------------------------------------------------------- validate

TEST(TraceValidate, CleanTraceHasNoProblems)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Runtime, "cudaLaunchKernel", 0, 2, 1));
    trace.add(makeEvent(EventKind::Kernel, "k", 3, 5, 1));
    EXPECT_TRUE(trace.validate().empty());
}

TEST(TraceValidate, NegativeDurationFlagged)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Operator, "op", 0, -1));
    EXPECT_FALSE(trace.validate().empty());
}

TEST(TraceValidate, KernelWithoutStreamFlagged)
{
    Trace trace;
    TraceEvent ev = makeEvent(EventKind::Kernel, "k", 0, 1, 1);
    ev.streamId = -1;
    trace.add(ev);
    trace.add(makeEvent(EventKind::Runtime, "l", 0, 1, 1));
    EXPECT_FALSE(trace.validate().empty());
}

TEST(TraceValidate, OrphanKernelFlagged)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Kernel, "k", 0, 1, 99));
    EXPECT_FALSE(trace.validate().empty());
}

TEST(TraceValidate, DuplicateCorrelationFlagged)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Runtime, "l1", 0, 1, 5));
    trace.add(makeEvent(EventKind::Runtime, "l2", 2, 1, 5));
    trace.add(makeEvent(EventKind::Kernel, "k", 4, 1, 5));
    EXPECT_FALSE(trace.validate().empty());
}

TEST(TraceValidate, LaunchWithoutKernelIsLegal)
{
    Trace trace;
    trace.add(makeEvent(EventKind::Runtime, "cudaMemsetAsync", 0, 1, 3));
    EXPECT_TRUE(trace.validate().empty());
}

// ----------------------------------------------------------- chrome trace

Trace
sampleTrace()
{
    Trace trace;
    trace.setMeta("platform", "Intel+H100");
    trace.setMeta("model", "GPT2");
    TraceEvent op = makeEvent(EventKind::Operator, "aten::linear", 0, 100);
    trace.add(op);
    trace.add(makeEvent(EventKind::Runtime, "cudaLaunchKernel", 10, 2, 1));
    TraceEvent k = makeEvent(EventKind::Kernel, "gemm_f16", 14, 30, 1);
    k.flops = 1.5e9;
    k.bytes = 2.5e6;
    trace.add(k);
    TraceEvent mc = makeEvent(EventKind::Memcpy, "Memcpy HtoD", 50, 8, 2);
    trace.add(mc);
    trace.add(makeEvent(EventKind::Runtime, "cudaMemcpyAsync", 44, 2, 2));
    trace.sortByTime();
    return trace;
}

TEST(ChromeTrace, RoundTripPreservesEvents)
{
    Trace original = sampleTrace();
    Trace parsed = fromChromeText(toChromeText(original));
    ASSERT_EQ(parsed.size(), original.size());

    // Compare sorted views field by field.
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        const TraceEvent &a = original.events()[i];
        const TraceEvent &b = parsed.events()[i];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.tsBeginNs, b.tsBeginNs);
        EXPECT_EQ(a.durNs, b.durNs);
        EXPECT_EQ(a.correlationId, b.correlationId);
        EXPECT_EQ(a.streamId, b.streamId);
        EXPECT_DOUBLE_EQ(a.flops, b.flops);
        EXPECT_DOUBLE_EQ(a.bytes, b.bytes);
    }
}

TEST(ChromeTrace, RoundTripPreservesMeta)
{
    Trace parsed = fromChromeText(toChromeText(sampleTrace()));
    EXPECT_EQ(parsed.meta("platform"), "Intel+H100");
    EXPECT_EQ(parsed.meta("model"), "GPT2");
}

TEST(ChromeTrace, AcceptsMicrosecondOnlyEvents)
{
    // Kineto-style export with only us-resolution ts/dur.
    std::string text = R"({"traceEvents":[
        {"ph":"X","name":"k","cat":"kernel","ts":12.5,"dur":3.25,
         "pid":0,"tid":1007,"args":{"correlation":4,"stream":7}},
        {"ph":"X","name":"cudaLaunchKernel","cat":"cuda_runtime",
         "ts":10.0,"dur":2.0,"pid":0,"tid":1,
         "args":{"correlation":4}}]})";
    Trace trace = fromChromeText(text);
    ASSERT_EQ(trace.size(), 2u);
    const TraceEvent &k = trace.events()[1];
    EXPECT_EQ(k.kind, EventKind::Kernel);
    EXPECT_EQ(k.tsBeginNs, 12500);
    EXPECT_EQ(k.durNs, 3250);
    EXPECT_EQ(k.streamId, 7);
}

TEST(ChromeTrace, MicrosecondOnlyOutOfOrderEventsSortAndRoundTrip)
{
    // Kineto writes events in flush order, not time order, and carries
    // only us-resolution ts/dur. Import must time-sort and keep the
    // launch<->kernel correlation ids intact through a re-export.
    std::string text = R"({"traceEvents":[
        {"ph":"X","name":"gemm","cat":"kernel","ts":30.0,"dur":5.0,
         "pid":0,"tid":1007,"args":{"correlation":9,"stream":7}},
        {"ph":"X","name":"aten::linear","cat":"cpu_op","ts":1.0,
         "dur":40.0,"tid":3},
        {"ph":"X","name":"Memcpy HtoD","cat":"gpu_memcpy","ts":50.0,
         "dur":2.0,"pid":0,"tid":1000,"args":{"correlation":11}},
        {"ph":"X","name":"cudaMemcpyAsync","cat":"cuda_runtime",
         "ts":45.0,"dur":1.5,"tid":3,"args":{"correlation":11}},
        {"ph":"X","name":"cudaLaunchKernel","cat":"cuda_runtime",
         "ts":20.0,"dur":2.0,"tid":3,"args":{"correlation":9}}]})";
    Trace imported = fromChromeText(text);
    ASSERT_EQ(imported.size(), 5u);

    // Time-sorted on import despite the shuffled input array.
    for (std::size_t i = 1; i < imported.size(); ++i)
        EXPECT_LE(imported.events()[i - 1].tsBeginNs,
                  imported.events()[i].tsBeginNs);
    EXPECT_EQ(imported.events()[0].name, "aten::linear");
    EXPECT_EQ(imported.events()[1].name, "cudaLaunchKernel");
    EXPECT_EQ(imported.events()[1].correlationId, 9u);
    EXPECT_EQ(imported.events()[2].name, "gemm");
    EXPECT_EQ(imported.events()[2].correlationId, 9u);
    EXPECT_EQ(imported.events()[2].streamId, 7);
    EXPECT_EQ(imported.events()[2].tsBeginNs, 30000);
    EXPECT_EQ(imported.events()[2].durNs, 5000);

    // Round trip through our exporter preserves ordering, timestamps
    // and correlation ids exactly.
    Trace reparsed = fromChromeText(toChromeText(imported));
    ASSERT_EQ(reparsed.size(), imported.size());
    for (std::size_t i = 0; i < imported.size(); ++i) {
        const TraceEvent &a = imported.events()[i];
        const TraceEvent &b = reparsed.events()[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.tsBeginNs, b.tsBeginNs);
        EXPECT_EQ(a.durNs, b.durNs);
        EXPECT_EQ(a.correlationId, b.correlationId);
        EXPECT_EQ(a.streamId, b.streamId);
    }
    EXPECT_TRUE(reparsed.validate().empty());
}

TEST(ChromeTrace, SkipsUnknownCategoriesAndPhases)
{
    std::string text = R"({"traceEvents":[
        {"ph":"X","name":"py","cat":"python_function","ts":0,"dur":1},
        {"ph":"M","name":"meta","cat":"kernel"},
        {"ph":"X","name":"op","cat":"cpu_op","ts":0,"dur":1,"tid":1}]})";
    Trace trace = fromChromeText(text);
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.events()[0].name, "op");
}

TEST(ChromeTrace, MissingTraceEventsThrows)
{
    EXPECT_THROW(fromChromeText("{}"), FatalError);
}

TEST(ChromeTrace, AcceptsLegacyBareArrayForm)
{
    // The legacy Chrome format is a bare top-level array of events.
    std::string text = R"([
        {"ph":"X","name":"op","cat":"cpu_op","ts":0,"dur":1,"tid":1},
        {"ph":"X","name":"k","cat":"kernel","ts":2.0,"dur":1.0,
         "tid":1007,"args":{"correlation":1,"stream":7}}])";
    Trace trace = fromChromeText(text);
    EXPECT_EQ(trace.size(), 2u);
}

TEST(ChromeTrace, NonContainerTopLevelThrows)
{
    EXPECT_THROW(fromChromeText("42"), FatalError);
    EXPECT_THROW(fromChromeText("\"trace\""), FatalError);
    EXPECT_THROW(fromChromeText(R"({"traceEvents": 7})"), FatalError);
}

TEST(ChromeTrace, TruncatedJsonThrowsCleanly)
{
    // A capture cut off mid-write must fail as a parse error, not
    // crash or silently yield a partial trace.
    std::string full = toChromeText(sampleTrace());
    EXPECT_THROW(fromChromeText(full.substr(0, full.size() / 2)),
                 FatalError);
    EXPECT_THROW(fromChromeText(""), FatalError);
}

TEST(ChromeTrace, MalformedEventNamesItsIndex)
{
    // Second event lacks ts/dur entirely; the error must carry the
    // event index so the bad record is findable in a large export.
    std::string text = R"({"traceEvents":[
        {"ph":"X","name":"ok","cat":"cpu_op","ts":0,"dur":1,"tid":1},
        {"ph":"X","name":"broken","cat":"kernel"}]})";
    try {
        fromChromeText(text);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("event 1"),
                  std::string::npos)
            << "diagnostic missing the event index: " << err.what();
    }
    // Non-object entries in the array are diagnosed the same way.
    EXPECT_THROW(fromChromeText(R"({"traceEvents":[17]})"), FatalError);
}

TEST(ChromeTrace, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/skipsim_trace_test.json";
    writeChromeFile(path, sampleTrace());
    Trace parsed = readChromeFile(path);
    EXPECT_EQ(parsed.size(), sampleTrace().size());
}

TEST(ChromeTrace, GpuTidEncodesStream)
{
    json::Value doc = toChromeJson(sampleTrace());
    bool found = false;
    for (const auto &item : doc.asObject().at("traceEvents").asArray()) {
        const auto &obj = item.asObject();
        if (obj.at("cat").asString() == "kernel") {
            EXPECT_EQ(obj.at("tid").asInt(), 1007);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(ChromeTrace, CounterAndInstantRoundTrip)
{
    Trace original = sampleTrace();
    CounterEvent c1;
    c1.name = "cluster.queue_depth{replica=\"0\"}";
    c1.tsNs = 12345;
    c1.value = 3.0;
    c1.tid = 0;
    original.addCounter(c1);
    CounterEvent c2;
    c2.name = "cluster.kv_bytes";
    c2.tsNs = 99;
    c2.value = 1.5e9;
    c2.tid = 2;
    original.addCounter(c2);
    InstantEvent marker;
    marker.name = "fault.crash";
    marker.tsNs = 777;
    marker.tid = 1;
    original.addInstant(marker);
    original.sortByTime();

    // Counters/instants sort by timestamp alongside the span stream.
    EXPECT_EQ(original.counters().front().name, "cluster.kv_bytes");

    Trace parsed = fromChromeText(toChromeText(original));
    ASSERT_EQ(parsed.counters().size(), 2u);
    ASSERT_EQ(parsed.instants().size(), 1u);
    EXPECT_EQ(parsed.size(), original.size());

    const CounterEvent &kv = parsed.counters()[0];
    EXPECT_EQ(kv.name, "cluster.kv_bytes");
    EXPECT_EQ(kv.tsNs, 99); // exact ns via the top-level ts_ns field
    EXPECT_DOUBLE_EQ(kv.value, 1.5e9);
    EXPECT_EQ(kv.tid, 2);
    const CounterEvent &depth = parsed.counters()[1];
    EXPECT_EQ(depth.name, "cluster.queue_depth{replica=\"0\"}");
    EXPECT_EQ(depth.tsNs, 12345);
    EXPECT_DOUBLE_EQ(depth.value, 3.0);

    const InstantEvent &fault = parsed.instants()[0];
    EXPECT_EQ(fault.name, "fault.crash");
    EXPECT_EQ(fault.tsNs, 777);
    EXPECT_EQ(fault.tid, 1);
}

TEST(ChromeTrace, ReadsForeignCounterAndInstantEvents)
{
    // Kineto-flavoured counters carry the value under an arbitrary
    // args member and only us-resolution timestamps; "I" instants are
    // the legacy spelling of "i".
    std::string text = R"({"traceEvents":[
        {"ph":"C","name":"GPU mem","ts":2.5,"pid":0,"tid":0,
         "args":{"bytes":4096}},
        {"ph":"I","name":"marker","ts":1.0,"tid":3},
        {"ph":"X","name":"op","cat":"cpu_op","ts":0,"dur":1,"tid":1}]})";
    Trace trace = fromChromeText(text);
    EXPECT_EQ(trace.size(), 1u);
    ASSERT_EQ(trace.counters().size(), 1u);
    EXPECT_EQ(trace.counters()[0].name, "GPU mem");
    EXPECT_EQ(trace.counters()[0].tsNs, 2500);
    EXPECT_DOUBLE_EQ(trace.counters()[0].value, 4096.0);
    ASSERT_EQ(trace.instants().size(), 1u);
    EXPECT_EQ(trace.instants()[0].name, "marker");
    EXPECT_EQ(trace.instants()[0].tsNs, 1000);
}

/**
 * The diagnostic for a trace whose events are one valid operator
 * followed by @p bad, or "" when the reader accepts it.
 */
std::string
ingestError(const std::string &bad)
{
    try {
        fromChromeText(R"({"traceEvents":[)"
                       R"({"ph":"X","name":"ok","cat":"cpu_op","ts":0,)"
                       R"("dur":1,"tid":1},)" +
                       bad + "]}");
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/** Expect @p bad, as event 1, to be rejected with @p reason. */
void
expectRejected(const std::string &bad, const std::string &reason)
{
    const std::string err = ingestError(bad);
    EXPECT_NE(err.find("chrome trace: event 1: "), std::string::npos)
        << "accepted or unindexed: '" << err << "' for " << bad;
    EXPECT_NE(err.find(reason), std::string::npos) << err;
}

TEST(ChromeTrace, RejectsNegativeMicrosecondDuration)
{
    expectRejected(R"({"ph":"X","name":"k","cat":"kernel","ts":5,"dur":-3})",
                   "negative duration: 'dur' is -3000 ns");
}

TEST(ChromeTrace, RejectsNegativeNanosecondDuration)
{
    expectRejected(R"({"ph":"X","name":"k","cat":"kernel","ts":5,"dur":1,)"
                   R"("args":{"ts_ns":5000,"dur_ns":-3}})",
                   "negative duration: 'dur_ns' is -3 ns");
}

TEST(ChromeTrace, RejectsNanosecondFieldsOutsideInt64)
{
    expectRejected(R"({"ph":"X","name":"k","cat":"kernel","ts":0,"dur":0,)"
                   R"("args":{"ts_ns":1e19,"dur_ns":1e19}})",
                   "is outside [-2^63, 2^63)");
    expectRejected(R"({"ph":"C","name":"c","ts_ns":-1e19,)"
                   R"("args":{"value":1}})",
                   "is outside [-2^63, 2^63)");
}

TEST(ChromeTrace, RejectsMicrosecondTimesOutsideInt64Nanoseconds)
{
    expectRejected(R"({"ph":"X","name":"k","cat":"kernel","ts":1e16,"dur":1})",
                   "'ts' of 10000000000000000 us is outside");
    expectRejected(R"({"ph":"X","name":"k","cat":"kernel","ts":1,"dur":1e16})",
                   "'dur' of 10000000000000000 us is outside");
    expectRejected(R"({"ph":"i","name":"m","ts":-1e17})",
                   "'ts' of -1e+17 us is outside");
}

TEST(ChromeTrace, RejectsEventEndPastInt64)
{
    expectRejected(R"({"ph":"X","name":"k","cat":"kernel","ts":0,"dur":0,)"
                   R"("args":{"ts_ns":9e18,"dur_ns":3e17}})",
                   "event end overflows int64 ns");
    // The largest representable end is accepted.
    EXPECT_EQ(ingestError(
                  R"({"ph":"X","name":"k","cat":"kernel","ts":0,"dur":0,)"
                  R"("args":{"ts_ns":9e18,"dur_ns":2e17}})"),
              "");
}

} // namespace
} // namespace skipsim::trace

/**
 * @file
 * skipbench: the SKIP-Sim benchmark driver.
 *
 *   skipbench --workload NAME|all --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--goldens FILE] [--out-dir DIR]
 *             [--source-digest HEX] [--git-sha SHA] [--corrupt]
 *             [--record]
 *
 * One process, one thread, kept on the least contended CPU it may use
 * (see CpuPicker). For each workload it times set-up several
 * times (setup_s is the median), runs one untimed warm-up operation,
 * then runs operations in a closed loop for --seconds. Every
 * operation's outputs are checked (see Loop); an operation whose check
 * fails, whose digest differs from its input's first run, or that
 * throws counts as failed, and any failure makes the exit code
 * non-zero.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 runs each input
 * untraced and then traced, reports the per-layer metrics of the
 * traced operations plus the tracing overhead, and exports the layer
 * spans as a Chrome/Perfetto trace into --out-dir.
 *
 * --corrupt flips a bit of every operation's digest (the self-test's
 * proof that a changed output is reported); --record prints the
 * reference digest and exits, for recording goldens.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <optional>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

#include "json/parser.hh"
#include "json/value.hh"
#include "layers.hh"
#include "workloads.hh"

using namespace skipbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    std::string goldens;
    std::string outDir = ".bench_out";
    std::string sourceDigest = "unknown";
    std::string gitSha = "unknown";
    bool corrupt = false;
    bool record = false;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note = {};
    /** Printed and written to the result file, but not one of
     *  BENCHMARK.json's metrics. */
    bool reportOnly = false;
};

struct Result
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /** Outcome of the golden-digest comparison; see Loop. */
    std::string golden;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "skipbench: %s\nusage: skipbench --workload NAME|all "
                 "--seed N --seconds S --trace 0|1 [--size full|tiny] "
                 "[--goldens FILE] [--out-dir DIR] [--source-digest HEX] "
                 "[--git-sha SHA] [--corrupt] [--record]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--corrupt") {
            opts.corrupt = true;
            continue;
        }
        if (flag == "--record") {
            opts.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opts.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                opts.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace expects 0 or 1");
                opts.trace = value == "1";
            } else if (flag == "--size") {
                if (value != "full" && value != "tiny")
                    usage("--size expects full or tiny");
                opts.size = value == "tiny" ? Size::Tiny : Size::Full;
            } else if (flag == "--goldens") {
                opts.goldens = value;
            } else if (flag == "--out-dir") {
                opts.outDir = value;
            } else if (flag == "--source-digest") {
                opts.sourceDigest = value;
            } else if (flag == "--git-sha") {
                opts.gitSha = value;
            } else {
                usage("unknown option " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Linear-interpolated quantile of sorted samples, q in [0, 1]. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    double pos = q * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return quantile(samples, 0.5);
}

/**
 * Peak resident set of this process image, MB: VmHWM, not
 * getrusage()'s ru_maxrss, which keeps the launching process's peak
 * across fork and exec.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

/**
 * Reset VmHWM to the current resident set, so that peakRssMb() reports
 * the peak reached from here on. Used between the workloads of
 * --workload all, which share one process. Freed heap goes back to the
 * kernel first; otherwise the previous workload's retained heap would
 * count towards the next one's peak.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Keeps the benchmark's one thread on the least contended CPU it may
 * use. On a shared VM other tenants slow single vCPUs for seconds at a
 * time, and the slowdown moves between vCPUs; an operation timed on a
 * slowed vCPU measures the neighbours, not SKIP-Sim. So at most every
 * quarter second, between operations and outside every timing, a fixed
 * probe runs on each allowed CPU and the thread moves to the fastest.
 */
class CpuPicker
{
  public:
    CpuPicker()
    {
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set))
                    _cpus.push_back(cpu);
        _load.resize(1024);
        for (std::size_t r = 0; r < _load.size(); ++r)
            _load[r] = static_cast<std::uint32_t>(r * 2654435761u % 97u);
    }

    void repinIfDue()
    {
        if (_cpus.size() < 2 || secondsSince(_last) < 0.25)
            return;
        double best = 0.0;
        int best_cpu = -1;
        for (int cpu : _cpus) {
            if (!pin(cpu))
                continue;
            double t = probe();
            if (best_cpu < 0 || t < best) {
                best = t;
                best_cpu = cpu;
            }
        }
        if (best_cpu >= 0)
            pin(best_cpu);
        _last = Clock::now();
    }

  private:
    static bool pin(int cpu)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        return sched_setaffinity(0, sizeof set, &set) == 0;
    }

    /** Seconds for a fixed integer workload: repeated least-value
     *  scans of a small table, about a millisecond on an idle core. */
    double probe()
    {
        Clock::time_point t0 = Clock::now();
        std::size_t pick = 0;
        for (int rep = 0; rep < 600; ++rep) {
            std::uint32_t least = ~0u;
            for (std::size_t r = 0; r < _load.size(); ++r)
                if (_load[r] < least) {
                    least = _load[r];
                    pick = r;
                }
            ++_load[pick];
        }
        // The volatile store fixes the code the compiler emits for
        // the scan. A build without it picked CPUs worse: paper_sweep
        // read 11.5 ms per op against 8.5 ms, alternating builds.
        _sink = _sink + pick;
        return secondsSince(t0);
    }

    std::vector<int> _cpus;
    std::vector<std::uint32_t> _load;
    volatile std::size_t _sink = 0;
    /** Epoch start: the first call probes. */
    Clock::time_point _last;
};

CpuPicker cpuPicker;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                break;
            // It lands in a JSON string: drop what would need escaping.
            std::string model;
            for (char c : line.substr(colon + 1))
                if (c >= ' ' && c != '"' && c != '\\')
                    model += c;
            return model.empty() ? "unknown" : model.substr(model[0] == ' ');
        }
    return "unknown";
}

/** Golden reference digest of @p workload at @p seed, or "". */
std::string
goldenDigest(const Options &opts, const std::string &workload)
{
    if (opts.goldens.empty())
        return "";
    skipsim::json::Value doc = skipsim::json::parseFile(opts.goldens);
    const skipsim::json::Object &digests =
        doc.asObject()
            .at(opts.size == Size::Full ? "digests" : "tiny_digests")
            .asObject();
    if (!digests.has(workload))
        return "";
    const skipsim::json::Object &seeds = digests.at(workload).asObject();
    std::string key = std::to_string(opts.seed);
    return seeds.has(key) ? seeds.at(key).asString() : "";
}

/**
 * The closed loop. Op k runs input k mod inputs(). The first run of an
 * input records its digest as that input's reference, and every later
 * run of it must reproduce that digest. Once the first goldenInputs()
 * inputs have run, their combined digest is compared with the golden
 * recorded for this seed; a mismatch fails every operation.
 */
struct Loop
{
    Workload &workload;
    const Options &opts;
    std::string golden;
    Result result;
    std::vector<std::optional<std::uint64_t>> reference;
    std::uint64_t combined = fnv1a("");
    std::string goldenNote = "not reached";
    bool goldenFailed = false;
    /** Operations run() has started, for input cycling. */
    std::size_t next = 0;
    std::vector<double> rates;
    int reported = 0;

    Loop(Workload &w, const Options &o, std::string recorded)
        : workload(w), opts(o), golden(std::move(recorded)),
          reference(w.inputs())
    {
    }

    /** Run and check one operation on @p input; @return its host
     *  seconds. */
    double op(Layers &layers, std::size_t input)
    {
        cpuPicker.repinIfDue();
        layers.beginUnit(Phase::Op);
        std::vector<std::string> problems;
        Verdict verdict;
        Clock::time_point t0 = Clock::now();
        try {
            // The whole operation: its self time is what no layer span
            // covers, mostly freeing intermediates.
            auto span = layers.span("bench.op");
            workload.run(input, layers);
        } catch (const std::exception &err) {
            problems.push_back(std::string("operation threw: ") + err.what());
        }
        double dt = secondsSince(t0);
        if (problems.empty()) {
            try {
                verdict = workload.check(input);
            } catch (const std::exception &err) {
                problems.push_back(std::string("check threw: ") + err.what());
            }
        }
        if (opts.corrupt)
            verdict.digest ^= 1;
        problems.insert(problems.end(), verdict.problems.begin(),
                        verdict.problems.end());
        if (problems.empty()) {
            if (!reference[input]) {
                reference[input] = verdict.digest;
                if (input < workload.goldenInputs()) {
                    combined = fnv1a(hex(verdict.digest), combined);
                    if (input + 1 == workload.goldenInputs())
                        compareGolden();
                }
            } else if (*reference[input] != verdict.digest) {
                problems.push_back("output digest " + hex(verdict.digest) +
                                   " != this input's first run " +
                                   hex(*reference[input]));
            }
        }
        if (goldenFailed)
            problems.push_back("outputs differ from the recorded golden");
        ++result.attempted;
        if (!problems.empty()) {
            ++result.failed;
            if (reported++ < 5)
                std::fprintf(stderr, "skipbench: op %zu (input %zu) failed: "
                                     "%s\n",
                             result.attempted, input, problems.front().c_str());
        }
        rates.push_back(verdict.work / dt);
        return dt;
    }

    void compareGolden()
    {
        if (golden.empty()) {
            // Each input then only has to reproduce its own first run,
            // which a deterministic change of output passes.
            goldenNote = "UNCHECKED: no digest recorded for this seed "
                         "and size (got " + hex(combined) + ")";
        } else if (golden == hex(combined)) {
            goldenNote = "match";
        } else {
            goldenNote = "MISMATCH: got " + hex(combined) + ", recorded " +
                golden;
            goldenFailed = true;
            result.failed = result.attempted;
        }
    }

    /** Run operations for @p seconds; @return their latencies. */
    std::vector<double> run(Layers &layers, double seconds)
    {
        std::vector<double> latencies;
        Clock::time_point start = Clock::now();
        do {
            latencies.push_back(op(layers, next++ % workload.inputs()));
        } while (secondsSince(start) < seconds);
        return latencies;
    }
};

/** Per-layer metrics of a traced run; see BENCHMARK.json. */
std::vector<Metric>
layerMetrics(const Layers &on, double overheadPct)
{
    double ops = static_cast<double>(std::max<std::size_t>(1, on.units(Phase::Op)));
    double setups =
        static_cast<double>(std::max<std::size_t>(1, on.units(Phase::Setup)));
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto op_ms = [&](const char *span) { return on.totalNs(span) / ops / 1e6; };
    auto setup_ms = [&](const char *span) {
        return on.totalNs(span) / setups / 1e6;
    };
    auto call_ms = [&](const char *span) {
        return ratio(on.totalNs(span), static_cast<double>(on.calls(span))) / 1e6;
    };
    auto per_op = [&](const char *counter) { return on.counter(counter) / ops; };
    auto per_event = [&](const char *span, const char *counter) {
        return ratio(on.totalNs(span), on.counter(counter));
    };
    return {
        {"workload.build_ms", op_ms("workload.build"), "ms"},
        {"workload.kernel_launches", per_op("workload.kernel_launches"), "count"},
        {"sim.run_ms", op_ms("sim.run"), "ms"},
        {"sim.trace_events", per_op("sim.trace_events"), "count"},
        {"sim.ns_per_event", per_event("sim.run", "sim.trace_events"), "ns"},
        {"skip.depgraph_ms", op_ms("skip.depgraph"), "ms"},
        {"skip.depgraph_ns_per_event",
         per_event("skip.depgraph", "skip.depgraph_events"), "ns"},
        {"skip.metrics_ms", op_ms("skip.metrics"), "ms"},
        {"fusion.mine_ms", op_ms("fusion.mine"), "ms"},
        {"fusion.sequence_len", per_op("fusion.sequence_len"), "count"},
        {"trace.ingest_ms", op_ms("trace.ingest"), "ms"},
        {"trace.ingest_ns_per_event", per_event("trace.ingest", "trace.events"),
         "ns"},
        {"json.parse_ms", op_ms("json.parse"), "ms"},
        {"json.parse_mb_per_s",
         ratio(on.counter("json.parse_bytes") / 1e6, on.totalNs("json.parse") / 1e9),
         "MB/s"},
        {"json.write_ms", op_ms("json.write"), "ms"},
        {"json.bytes_written", per_op("json.bytes_written"), "bytes"},
        {"scenario.build_ms", setup_ms("scenario.build"), "ms"},
        {"serving.cost_model_ms", setup_ms("serving.cost_model"), "ms"},
        {"serving.arrivals_ms", call_ms("serving.arrivals"), "ms"},
        {"serving.arrivals", on.counter("serving.arrivals"), "count"},
        {"cluster.simulate_ms", op_ms("cluster.simulate"), "ms"},
        {"cluster.ns_per_event", per_event("cluster.simulate", "core.events"), "ns"},
        {"cluster.completed", per_op("cluster.completed"), "count"},
        {"cluster.lost", per_op("cluster.lost"), "count"},
        {"cluster.rejected", per_op("cluster.rejected"), "count"},
        {"cluster.router.pick_ns",
         per_event("cluster.router.replay", "cluster.router.picks"), "ns"},
        {"core.events", per_op("core.events"), "count"},
        {"core.windows", per_op("core.windows"), "count"},
        {"kv.offloads", per_op("kv.offloads"), "count"},
        {"kv.fetches", per_op("kv.fetches"), "count"},
        {"kv.hit_ratio", ratio(on.counter("kv.hits"), on.counter("kv.lookups")),
         "ratio"},
        {"kv.link_busy_frac",
         ratio(on.counter("kv.link_busy_ns"), on.counter("kv.link_capacity_ns")),
         "ratio"},
        {"obs.span_record_ms",
         call_ms("cluster.simulate_spans") - call_ms("cluster.simulate_plain"),
         "ms"},
        {"obs.spans", per_op("obs.spans"), "count"},
        {"obs.span_export_ms", op_ms("obs.span_export"), "ms"},
        {"obs.span_import_ms", op_ms("obs.span_import"), "ms"},
        {"obs.attribute_ms", op_ms("obs.attribute"), "ms"},
        {"bench.trace_overhead_pct", overheadPct, "%"},
    };
}

Result
runWorkload(const Options &opts, const std::string &name,
            const std::string &stamp)
{
    std::unique_ptr<Workload> workload =
        makeWorkload(name, opts.seed, opts.size);
    Layers off(false);
    Layers on(true);
    Layers &setup_layers = opts.trace ? on : off;

    // Set-up, repeated: at least three times, until a second is spent
    // or two hundred repetitions ran (once when recording goldens).
    std::vector<double> setups;
    Clock::time_point setup_start = Clock::now();
    do {
        cpuPicker.repinIfDue();
        setup_layers.beginUnit(Phase::Setup);
        Clock::time_point t0 = Clock::now();
        workload->setup(setup_layers);
        setups.push_back(secondsSince(t0));
    } while (!opts.record &&
             (setups.size() < 3 ||
              (secondsSince(setup_start) < 1.0 && setups.size() < 200)));
    double setup_s = median(setups);

    Loop loop(*workload, opts, opts.record ? "" : goldenDigest(opts, name));
    if (opts.record) {
        for (std::size_t i = 0;
             i < workload->goldenInputs() && loop.result.failed == 0; ++i)
            loop.op(off, i);
        std::printf("RECORD %s %llu %s\n", name.c_str(),
                    static_cast<unsigned long long>(opts.seed),
                    loop.result.failed == 0 ? hex(loop.combined).c_str()
                                            : "failed");
        return loop.result;
    }
    // One untimed warm-up operation: caches fill, lazy set-up finishes.
    loop.op(off, 0);
    loop.rates.clear();
    Clock::time_point timed_start = Clock::now();
    if (!opts.trace) {
        std::vector<double> lat = loop.run(off, opts.seconds);
        double wall_s = secondsSince(timed_start);
        std::sort(lat.begin(), lat.end());
        double level = workload->tailQuantile();
        std::size_t beyond = static_cast<std::size_t>(
            std::floor(static_cast<double>(lat.size()) * (1.0 - level)));
        loop.result.metrics = {
            {"setup_s", setup_s, "s",
             std::to_string(setups.size()) + " set-ups, median"},
            {"op_p50_ms", quantile(lat, 0.5) * 1e3, "ms",
             std::to_string(lat.size()) + " ops"},
            {"work_per_s", median(loop.rates), "1/s",
             std::string(workload->workUnit()) +
                 " per host second, median over ops"},
            {"peak_rss_mb", peakRssMb(), "MB", "whole process"},
            {"op_tail_ms", quantile(lat, level) * 1e3, "ms",
             "p" + std::to_string(static_cast<int>(level * 100.0)) + " of " +
                 std::to_string(lat.size()) + " ops, " +
                 std::to_string(beyond) + " beyond",
             true},
            {"wall_s", wall_s, "s", "timed phase", true},
            {"error_rate",
             static_cast<double>(loop.result.failed) /
                 static_cast<double>(loop.result.attempted),
             "ratio", "failed / attempted", true},
        };
        std::printf("%s: %zu ops, golden %s\n", name.c_str(),
                    loop.result.attempted, loop.goldenNote.c_str());
    } else {
        // Each input runs untraced, then traced: the pairs see the same
        // input and the same host load, so the overhead is not drift.
        std::vector<double> plain;
        std::vector<double> traced;
        for (std::size_t pair = 0;
             pair == 0 || secondsSince(timed_start) < opts.seconds; ++pair) {
            std::size_t input = pair % workload->inputs();
            plain.push_back(loop.op(off, input));
            traced.push_back(loop.op(on, input));
        }
        on.beginUnit(Phase::Extra);
        workload->extras(on);
        double overhead = (median(traced) / median(plain) - 1.0) * 100.0;
        loop.result.metrics = layerMetrics(on, overhead);
        std::printf("%s: %zu untraced/traced op pairs, tracing overhead "
                    "%+.2f%% of op p50, golden %s\n",
                    name.c_str(), plain.size(), overhead,
                    loop.goldenNote.c_str());
        std::printf("self time per traced op, ms:\n");
        double ops = static_cast<double>(on.units(Phase::Op));
        for (const auto &[span, ns] : on.selfNs(Phase::Op))
            std::printf("  %-26s %12.4f\n", span.c_str(), ns / ops / 1e6);
        std::string path = opts.outDir + "/" + stamp + "_layers.json";
        if (on.writeChrome(path))
            std::printf("layer spans -> %s\n", path.c_str());
    }
    loop.result.golden = loop.goldenNote;
    return loop.result;
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    std::vector<std::string> names = workloadNames();
    if (opts.workload != "all") {
        if (std::find(names.begin(), names.end(), opts.workload) == names.end())
            usage("unknown workload '" + opts.workload + "'");
        names = {opts.workload};
    }
    std::string build_type = SKIPBENCH_BUILD_TYPE;
    unsigned cores = std::thread::hardware_concurrency();
    std::string cpu = cpuModel();
    std::printf("provenance: source %s, git %s, %u cores, cpu \"%s\", "
                "build %s%s\n",
                opts.sourceDigest.c_str(), opts.gitSha.c_str(), cores,
                cpu.c_str(), build_type.c_str(),
                build_type == "Release"
                    ? ""
                    : " (NOT Release: do not compare with Release rows)");
    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);

    Result total;
    std::string metrics_json;
    for (const std::string &name : names) {
        std::string stamp = name + "_seed" + std::to_string(opts.seed) +
            (opts.trace ? "_trace1" : "_trace0");
        if (names.size() > 1)
            resetPeakRss();
        Result result;
        try {
            result = runWorkload(opts, name, stamp);
        } catch (const std::exception &err) {
            std::fprintf(stderr, "skipbench: %s: %s\n", name.c_str(), err.what());
            return 1;
        }
        if (opts.record)
            continue;
        total.attempted += result.attempted;
        total.failed += result.failed;
        std::string prefix = opts.workload == "all" ? name + "." : "";
        std::string record = "{\"workload\":\"" + name + "\",\"seed\":" +
            std::to_string(opts.seed) + ",\"trace\":" +
            (opts.trace ? "1" : "0") + ",\"source\":\"" + opts.sourceDigest +
            "\",\"git\":\"" + opts.gitSha + "\",\"cores\":" +
            std::to_string(cores) + ",\"cpu\":\"" + cpu + "\",\"build\":\"" +
            build_type + "\",\"release\":" +
            (build_type == "Release" ? "true" : "false") + ",\"golden\":\"" +
            result.golden + "\",\"attempted\":" +
            std::to_string(result.attempted) +
            ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
        for (std::size_t i = 0; i < result.metrics.size(); ++i) {
            const Metric &m = result.metrics[i];
            std::printf("  %-28s %16.6f %-6s %s\n", (prefix + m.name).c_str(),
                        m.value, m.unit.c_str(), m.note.c_str());
            std::string entry = "\"" + prefix + m.name + "\":{\"value\":" +
                number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
            if (!m.reportOnly)
                metrics_json += (metrics_json.empty() ? "" : ",") + entry;
            record += (i == 0 ? "" : ",") + entry;
        }
        record += "}}\n";
        std::ofstream(opts.outDir + "/" + stamp + ".json") << record;
    }
    if (opts.record)
        return 0;
    bool correct = total.failed == 0 && total.attempted > 0;
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false", total.attempted, total.failed,
                metrics_json.c_str());
    return correct ? 0 : 1;
}

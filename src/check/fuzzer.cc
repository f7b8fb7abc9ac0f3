#include "check/fuzzer.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <mutex>

#include "analysis/sweep.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "exec/pool.hh"
#include "hw/catalog.hh"
#include "json/writer.hh"
#include "serving/latency_model.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "trace/chrome.hh"
#include "workload/model_config.hh"

namespace skipsim::check
{

namespace
{

constexpr double kEps = 1e-9;

/** Platforms fuzz cases draw from (the paper trio). */
const char *const kPlatforms[] = {"GH200", "Intel+H100", "AMD+A100"};

const hw::KernelClass kClasses[] = {
    hw::KernelClass::Gemm,      hw::KernelClass::Attention,
    hw::KernelClass::Softmax,   hw::KernelClass::Norm,
    hw::KernelClass::Elementwise, hw::KernelClass::Reduction,
    hw::KernelClass::Copy,      hw::KernelClass::Embedding,
};

hw::KernelClass
kernelClassFromName(const std::string &name)
{
    for (hw::KernelClass cls : kClasses) {
        if (name == hw::kernelClassName(cls))
            return cls;
    }
    if (name == hw::kernelClassName(hw::KernelClass::Memcpy))
        return hw::KernelClass::Memcpy;
    fatal(strprintf("fuzz case: unknown kernel class '%s'",
                    name.c_str()));
}

/** Same synthetic linear latency curve the property suite uses. */
analysis::SweepResult
linearSweep(double base_ns, double slope_ns)
{
    analysis::SweepResult sweep;
    sweep.modelName = "synthetic";
    sweep.platformName = "synthetic";
    for (int batch : {1, 2, 4, 8, 16, 32}) {
        analysis::SweepPoint point;
        point.batch = batch;
        point.metrics.ilNs =
            base_ns + slope_ns * static_cast<double>(batch);
        sweep.points.push_back(point);
    }
    return sweep;
}

/**
 * Cluster fuzz cases pin model (GPT2), prompt length and platform
 * (GH200) so every case shares one calibrated cost model; the fuzzed
 * degrees of freedom are the queueing/fault knobs, which is where the
 * cluster engine's logic lives.
 */
const cluster::CostCache &
clusterCosts()
{
    static cluster::CostCache cache;
    static std::once_flag once;
    std::call_once(once, [] {
        cluster::ClusterSpec spec;
        spec.model = workload::gpt2();
        spec.promptLen = 64;
        cluster::ReplicaSpec replica;
        replica.platform = hw::platforms::gh200();
        spec.replicas = {replica};
        cache.build(spec);
    });
    return cache;
}

json::Value
launchToJson(const workload::KernelLaunch &launch)
{
    json::Object doc;
    doc.set("kernel", launch.kernelName);
    if (launch.isMemcpy)
        doc.set("memcpy", json::Value(true));
    json::Value::Array work;
    for (const hw::KernelWork &w : launch.work) {
        json::Object item;
        item.set("class", hw::kernelClassName(w.cls));
        item.set("flops", w.flops);
        item.set("bytes", w.bytes);
        item.set("rows", w.rows);
        work.push_back(json::Value(std::move(item)));
    }
    doc.set("work", json::Value(std::move(work)));
    return json::Value(std::move(doc));
}

workload::KernelLaunch
launchFromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    workload::KernelLaunch launch;
    launch.kernelName = obj.at("kernel").asString();
    launch.isMemcpy = obj.get("memcpy", json::Value(false)).asBool();
    for (const json::Value &item : obj.at("work").asArray()) {
        const json::Object &w = item.asObject();
        hw::KernelWork work;
        work.cls = kernelClassFromName(w.at("class").asString());
        work.flops = w.get("flops", json::Value(0.0)).asDouble();
        work.bytes = w.get("bytes", json::Value(0.0)).asDouble();
        work.rows = w.get("rows", json::Value(0.0)).asDouble();
        launch.work.push_back(work);
    }
    return launch;
}

json::Value
nodeToJson(const workload::OpNode &node)
{
    json::Object doc;
    doc.set("name", node.name);
    doc.set("cpu_ns", node.cpuNs);
    doc.set("pre_fraction", node.preFraction);
    if (!node.children.empty()) {
        json::Value::Array children;
        for (const workload::OpNode &child : node.children)
            children.push_back(nodeToJson(child));
        doc.set("children", json::Value(std::move(children)));
    }
    if (!node.launches.empty()) {
        json::Value::Array launches;
        for (const workload::KernelLaunch &launch : node.launches)
            launches.push_back(launchToJson(launch));
        doc.set("launches", json::Value(std::move(launches)));
    }
    return json::Value(std::move(doc));
}

workload::OpNode
nodeFromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    workload::OpNode node;
    node.name = obj.at("name").asString();
    node.cpuNs = obj.at("cpu_ns").asDouble();
    node.preFraction =
        obj.get("pre_fraction", json::Value(0.6)).asDouble();
    if (obj.has("children")) {
        for (const json::Value &child : obj.at("children").asArray())
            node.children.push_back(nodeFromJson(child));
    }
    if (obj.has("launches")) {
        for (const json::Value &launch : obj.at("launches").asArray())
            node.launches.push_back(launchFromJson(launch));
    }
    return node;
}

/** Lowercase hex encoding for repro files: mutated Chrome-trace bytes
 *  are arbitrary (bit flips produce control and non-UTF-8 bytes), so
 *  they cannot ride in a JSON string literal verbatim. */
std::string
hexEncode(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (unsigned char b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

std::string
hexDecode(const std::string &hex)
{
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        fatal(strprintf("fuzz case: invalid hex digit '%c'", c));
    };
    if (hex.size() % 2 != 0)
        fatal("fuzz case: odd-length hex string");
    std::string out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2)
        out.push_back(static_cast<char>((nibble(hex[i]) << 4) |
                                        nibble(hex[i + 1])));
    return out;
}

/** printf-exact fingerprint of a serving result for byte comparison. */
std::string
servingFingerprint(const serving::ServingResult &r)
{
    return strprintf("%zu %.17g %.17g %.17g %.17g %.17g %.17g %.17g "
                     "%.17g %.17g %.17g %zu",
                     r.completed, r.throughputRps, r.p50LatencyNs,
                     r.p95LatencyNs, r.p99LatencyNs, r.meanLatencyNs,
                     r.p50TtftNs, r.p95TtftNs, r.p99TtftNs, r.meanBatch,
                     r.utilization, r.leftInQueue);
}

} // namespace

const char *
fuzzKindName(FuzzKind kind)
{
    switch (kind) {
    case FuzzKind::Sim:
        return "sim";
    case FuzzKind::Serving:
        return "serving";
    case FuzzKind::Cluster:
        return "cluster";
    case FuzzKind::Trace:
        return "trace";
    }
    panic(strprintf("unhandled FuzzKind %d", static_cast<int>(kind)));
}

FuzzKind
fuzzKindByName(const std::string &name)
{
    if (name == "sim")
        return FuzzKind::Sim;
    if (name == "serving")
        return FuzzKind::Serving;
    if (name == "cluster")
        return FuzzKind::Cluster;
    if (name == "trace")
        return FuzzKind::Trace;
    fatal(strprintf("fuzz case: unknown kind '%s'", name.c_str()));
}

json::Value
graphToJson(const workload::OperatorGraph &graph)
{
    json::Value::Array roots;
    for (const workload::OpNode &root : graph.roots)
        roots.push_back(nodeToJson(root));
    json::Object doc;
    doc.set("roots", json::Value(std::move(roots)));
    return json::Value(std::move(doc));
}

workload::OperatorGraph
graphFromJson(const json::Value &doc)
{
    workload::OperatorGraph graph;
    for (const json::Value &root :
         doc.asObject().at("roots").asArray())
        graph.roots.push_back(nodeFromJson(root));
    return graph;
}

std::size_t
FuzzCase::sizeScore() const
{
    switch (kind) {
    case FuzzKind::Sim:
        return graph.numOps() + graph.numKernelLaunches();
    case FuzzKind::Serving:
        return static_cast<std::size_t>(serving.arrivalRatePerSec *
                                        serving.horizonSec);
    case FuzzKind::Cluster:
        return cluster.replicas.size() + cluster.faults.size() +
            static_cast<std::size_t>(cluster.arrivalRatePerSec *
                                     cluster.horizonSec);
    case FuzzKind::Trace:
        return chromeText.size();
    }
    return 0;
}

json::Value
FuzzCase::toJson() const
{
    json::Object doc;
    doc.set("kind", fuzzKindName(kind));
    doc.set("seed", static_cast<unsigned long long>(seed));
    switch (kind) {
    case FuzzKind::Sim: {
        json::Object sim;
        sim.set("platform", platformName);
        sim.set("jitter", json::Value(jitter));
        sim.set("graph", graphToJson(graph));
        doc.set("sim", json::Value(std::move(sim)));
        break;
    }
    case FuzzKind::Serving: {
        json::Object s;
        s.set("rate", serving.arrivalRatePerSec);
        s.set("horizon_sec", serving.horizonSec);
        s.set("max_batch", serving.maxBatch);
        s.set("max_wait_ns", serving.maxWaitNs);
        s.set("seed", static_cast<unsigned long long>(serving.seed));
        s.set("latency_base_ns", latencyBaseNs);
        s.set("latency_slope_ns", latencySlopeNs);
        doc.set("serving", json::Value(std::move(s)));
        break;
    }
    case FuzzKind::Cluster:
        doc.set("cluster", cluster.toJson());
        break;
    case FuzzKind::Trace: {
        json::Object t;
        t.set("hex", hexEncode(chromeText));
        doc.set("trace", json::Value(std::move(t)));
        break;
    }
    }
    return json::Value(std::move(doc));
}

FuzzCase
FuzzCase::fromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    FuzzCase c;
    c.kind = fuzzKindByName(obj.at("kind").asString());
    c.seed = obj.has("seed") ? json::uint64Member(obj, "seed") : 0;
    switch (c.kind) {
    case FuzzKind::Sim: {
        const json::Object &sim = obj.at("sim").asObject();
        c.platformName = sim.at("platform").asString();
        c.jitter = sim.get("jitter", json::Value(false)).asBool();
        c.graph = graphFromJson(sim.at("graph"));
        break;
    }
    case FuzzKind::Serving: {
        const json::Object &s = obj.at("serving").asObject();
        c.serving.arrivalRatePerSec = s.at("rate").asDouble();
        c.serving.horizonSec = s.at("horizon_sec").asDouble();
        c.serving.maxBatch =
            static_cast<int>(s.at("max_batch").asInt());
        c.serving.maxWaitNs = s.at("max_wait_ns").asDouble();
        c.serving.seed = json::uint64Member(s, "seed");
        c.latencyBaseNs = s.at("latency_base_ns").asDouble();
        c.latencySlopeNs = s.at("latency_slope_ns").asDouble();
        break;
    }
    case FuzzKind::Cluster:
        c.cluster = cluster::ClusterSpec::fromJson(obj.at("cluster"));
        break;
    case FuzzKind::Trace:
        c.chromeText = hexDecode(
            obj.at("trace").asObject().at("hex").asString());
        break;
    }
    return c;
}

Fuzzer::Fuzzer(FuzzOptions options) : _options(std::move(options))
{
    if (_options.jobs < 1)
        fatal(strprintf("fuzzer: jobs must be >= 1 (got %d)",
                        _options.jobs));
}

FuzzCase
Fuzzer::generate(std::uint64_t index) const
{
    FuzzCase c;
    c.seed = mixSeed(_options.seed, index);
    Rng rng(c.seed);

    std::uint64_t pick = rng.below(10);
    if (pick < 6)
        c.kind = FuzzKind::Sim;
    else if (pick < 8)
        c.kind = FuzzKind::Serving;
    else if (pick < 9)
        c.kind = FuzzKind::Cluster;
    else
        c.kind = FuzzKind::Trace;

    switch (c.kind) {
    case FuzzKind::Sim: {
        c.platformName = kPlatforms[rng.below(3)];
        c.jitter = rng.below(4) == 0;
        std::size_t roots =
            1 + rng.below(_options.quick ? 10 : 32);
        int kernel_names = 3 + static_cast<int>(rng.below(6));
        for (std::size_t i = 0; i < roots; ++i) {
            workload::OpNode node;
            node.name = "op_" + std::to_string(rng.below(8));
            node.cpuNs =
                200.0 + static_cast<double>(rng.below(20000));
            node.preFraction = 0.2 + 0.6 * rng.uniform();
            std::size_t children = rng.below(3);
            for (std::size_t j = 0; j < children; ++j) {
                workload::OpNode child;
                child.name = "child_" + std::to_string(rng.below(4));
                child.cpuNs =
                    100.0 + static_cast<double>(rng.below(8000));
                if (rng.below(2) == 0) {
                    workload::KernelLaunch launch;
                    launch.kernelName =
                        "k" + std::to_string(rng.below(
                                  static_cast<std::uint64_t>(
                                      kernel_names)));
                    hw::KernelWork w;
                    w.cls = kClasses[rng.below(8)];
                    w.flops = static_cast<double>(
                        rng.below(5'000'000'000ULL));
                    w.bytes = static_cast<double>(
                        rng.below(50'000'000ULL));
                    w.rows =
                        static_cast<double>(64 + rng.below(8192));
                    launch.work.push_back(w);
                    child.launches.push_back(std::move(launch));
                }
                node.children.push_back(std::move(child));
            }
            if (rng.below(3) != 0) {
                workload::KernelLaunch launch;
                launch.kernelName =
                    "k" + std::to_string(rng.below(
                              static_cast<std::uint64_t>(
                                  kernel_names)));
                hw::KernelWork w;
                w.cls = hw::KernelClass::Elementwise;
                w.bytes =
                    static_cast<double>(rng.below(20'000'000ULL));
                launch.work.push_back(w);
                node.launches.push_back(std::move(launch));
            }
            c.graph.roots.push_back(std::move(node));
        }
        break;
    }
    case FuzzKind::Serving: {
        c.serving.arrivalRatePerSec =
            20.0 + rng.uniform() * (_options.quick ? 300.0 : 1000.0);
        c.serving.horizonSec = _options.quick
            ? 1.0 + 2.0 * rng.uniform()
            : 2.0 + 8.0 * rng.uniform();
        c.serving.maxBatch = 1 + static_cast<int>(rng.below(32));
        c.serving.maxWaitNs = 1e5 + rng.uniform() * 1e7;
        c.serving.seed = c.seed;
        c.latencyBaseNs = 5e5 + rng.uniform() * 5e6;
        c.latencySlopeNs = 1e5 + rng.uniform() * 2e6;
        break;
    }
    case FuzzKind::Cluster: {
        c.cluster.model = workload::gpt2();
        c.cluster.promptLen = 64;
        c.cluster.genTokens = 2 + static_cast<int>(rng.below(10));
        std::size_t replicas = 1 + rng.below(3);
        for (std::size_t i = 0; i < replicas; ++i) {
            cluster::ReplicaSpec replica;
            replica.platform = hw::platforms::gh200();
            replica.maxActive = 2 + static_cast<int>(rng.below(14));
            if (rng.below(3) == 0)
                replica.maxQueue = 4 + static_cast<int>(rng.below(12));
            c.cluster.replicas.push_back(replica);
        }
        c.cluster.arrivalRatePerSec =
            5.0 + rng.uniform() * (_options.quick ? 25.0 : 50.0);
        c.cluster.horizonSec = _options.quick
            ? 2.0 + 2.0 * rng.uniform()
            : 3.0 + 5.0 * rng.uniform();
        c.cluster.detectDelaySec = 0.1 + 0.4 * rng.uniform();
        c.cluster.ttftSloMs = 100.0 + 400.0 * rng.uniform();
        c.cluster.e2eSloMs = 500.0 + 1500.0 * rng.uniform();
        if (rng.below(4) == 0)
            c.cluster.jitterFrac = 0.05;
        c.cluster.seed = c.seed;
        if (rng.below(3) == 0) {
            cluster::FaultSpec fault;
            fault.atSec =
                rng.uniform() * 0.5 * c.cluster.horizonSec;
            fault.replica = rng.below(replicas);
            fault.kind = rng.below(2) == 0
                ? cluster::FaultKind::Crash
                : cluster::FaultKind::Slowdown;
            fault.factor = 1.5 + rng.uniform();
            c.cluster.faults.push_back(fault);
        }
        if (rng.below(3) == 0) {
            // A third of the fleets mount the KV tier under real HBM
            // pressure (0.4-0.8 GiB keeps the budget positive for
            // GPT2 weights + activations but forces paging); the
            // host pool is either starved or roomy.
            const kv::OffloadPolicy policies[] = {
                kv::OffloadPolicy::StaticWatermark,
                kv::OffloadPolicy::LruBySession,
                kv::OffloadPolicy::PrefixAware};
            c.cluster.kvTier.policy = policies[rng.below(3)];
            c.cluster.kvTier.hostCapacityGiB =
                rng.below(2) == 0 ? 0.05 : 4.0;
            c.cluster.kvTier.watermarkFrac =
                0.5 + 0.4 * rng.uniform();
            for (cluster::ReplicaSpec &rep : c.cluster.replicas)
                rep.platform.gpu.hbmCapacityGiB =
                    0.4 + 0.4 * rng.uniform();
        }
        if (replicas >= 2 && rng.below(4) == 0) {
            // A quarter of multi-replica fleets disaggregate: one
            // prefill replica, the rest decode (faults may still hit
            // either pool).
            c.cluster.replicas.front().role =
                cluster::ReplicaRole::Prefill;
            for (std::size_t i = 1; i < c.cluster.replicas.size();
                 ++i)
                c.cluster.replicas[i].role =
                    cluster::ReplicaRole::Decode;
        }
        break;
    }
    case FuzzKind::Trace: {
        // Start from a valid export: op -> launch -> kernel triplets
        // linked by correlation ids, the shape validateTrace expects.
        trace::Trace t;
        std::size_t ops = 1 + rng.below(_options.quick ? 4 : 8);
        std::int64_t now = 0;
        for (std::size_t i = 0; i < ops; ++i) {
            std::uint64_t corr = i + 1;
            trace::TraceEvent op;
            op.kind = trace::EventKind::Operator;
            op.name = "aten::op_" + std::to_string(rng.below(5));
            op.tsBeginNs = now;
            op.durNs =
                1000 + static_cast<std::int64_t>(rng.below(5000));
            trace::TraceEvent launch;
            launch.kind = trace::EventKind::Runtime;
            launch.name = "cudaLaunchKernel";
            launch.tsBeginNs = now + 100;
            launch.durNs = 800;
            launch.correlationId = corr;
            trace::TraceEvent kernel;
            kernel.kind = trace::EventKind::Kernel;
            kernel.name = "k" + std::to_string(rng.below(3));
            kernel.tsBeginNs = now + 2000;
            kernel.durNs =
                1500 + static_cast<std::int64_t>(rng.below(4000));
            kernel.streamId = 0;
            kernel.correlationId = corr;
            now += op.durNs + 500;
            t.add(op);
            t.add(launch);
            t.add(kernel);
        }
        c.chromeText = trace::toChromeText(t);

        // Seeded byte-level corruption: bit flips, inserts, deletes
        // and truncation, anywhere in the document.
        std::size_t mutations =
            1 + rng.below(_options.quick ? 6 : 16);
        for (std::size_t m = 0; m < mutations; ++m) {
            if (c.chromeText.empty())
                break;
            std::string &text = c.chromeText;
            std::size_t pos = rng.below(text.size());
            switch (rng.below(4)) {
            case 0:
                text[pos] ^= static_cast<char>(1u << rng.below(8));
                break;
            case 1:
                text.insert(text.begin() + static_cast<long>(pos),
                            static_cast<char>(rng.below(256)));
                break;
            case 2:
                text.erase(text.begin() + static_cast<long>(pos));
                break;
            case 3:
                text.resize(pos);
                break;
            }
        }
        break;
    }
    }
    return c;
}

std::vector<std::string>
Fuzzer::runCase(const FuzzCase &c) const
{
    std::vector<std::string> problems;
    try {
        switch (c.kind) {
        case FuzzKind::Sim: {
            hw::Platform platform =
                hw::platforms::byName(c.platformName);
            sim::SimOptions opts;
            opts.seed = c.seed;
            opts.jitter = c.jitter;
            auto run_once = [&] {
                sim::Simulator simulator(platform, opts);
                sim::SimResult result = simulator.run(c.graph);
                if (_options.traceMutator)
                    _options.traceMutator(result.trace);
                return result;
            };
            sim::SimResult result = run_once();

            TraceCheckReport report = validateTrace(result.trace);
            for (const Violation &v : report.violations)
                problems.push_back("invariant: [" + v.code + "] " +
                                   v.message);

            std::size_t kernels =
                result.trace.countOf(trace::EventKind::Kernel);
            if (kernels != c.graph.numKernelLaunches())
                problems.push_back(strprintf(
                    "oracle: trace has %zu kernels, graph launches "
                    "%zu",
                    kernels, c.graph.numKernelLaunches()));

            skip::MetricsReport metrics = skip::computeMetrics(
                skip::DependencyGraph::build(result.trace));
            if (metrics.numKernels > 0) {
                if (std::abs(metrics.gpuBusyNs + metrics.gpuIdleNs -
                             metrics.ilNs) > 1.0)
                    problems.push_back(strprintf(
                        "oracle: gpuBusy %.1f + gpuIdle %.1f != IL "
                        "%.1f",
                        metrics.gpuBusyNs, metrics.gpuIdleNs,
                        metrics.ilNs));
                if (metrics.tklqtNs < metrics.tklqtQueueNs - 1e-6)
                    problems.push_back(strprintf(
                        "oracle: TKLQT %.1f < queue part %.1f",
                        metrics.tklqtNs, metrics.tklqtQueueNs));
            }

            // Determinism differential: serial re-run and two pool
            // workers must reproduce the exact same trace bytes.
            std::string serial =
                trace::toChromeText(result.trace);
            if (trace::toChromeText(run_once().trace) != serial)
                problems.push_back(
                    "oracle: serial re-run produced a different "
                    "trace (non-deterministic simulation)");
            std::vector<std::string> parallel(2);
            exec::Pool pool(2);
            pool.run(2, [&](std::size_t i) {
                parallel[i] = trace::toChromeText(run_once().trace);
            });
            for (std::size_t i = 0; i < parallel.size(); ++i) {
                if (parallel[i] != serial)
                    problems.push_back(strprintf(
                        "oracle: pool worker %zu produced a "
                        "different trace (jobs differential)",
                        i));
            }
            break;
        }
        case FuzzKind::Serving: {
            serving::LatencyModel latency(
                linearSweep(c.latencyBaseNs, c.latencySlopeNs));
            serving::ServingResult r =
                serving::simulateServing(latency, c.serving);
            if (r.p50LatencyNs > r.p95LatencyNs + kEps ||
                r.p95LatencyNs > r.p99LatencyNs + kEps)
                problems.push_back(strprintf(
                    "oracle: latency percentiles unordered "
                    "(p50 %.1f, p95 %.1f, p99 %.1f)",
                    r.p50LatencyNs, r.p95LatencyNs, r.p99LatencyNs));
            if (r.p50TtftNs > r.p95TtftNs + kEps ||
                r.p95TtftNs > r.p99TtftNs + kEps)
                problems.push_back(strprintf(
                    "oracle: TTFT percentiles unordered "
                    "(p50 %.1f, p95 %.1f, p99 %.1f)",
                    r.p50TtftNs, r.p95TtftNs, r.p99TtftNs));
            if (r.utilization < -kEps || r.utilization > 1.0 + kEps)
                problems.push_back(strprintf(
                    "oracle: utilization %.6f outside [0, 1]",
                    r.utilization));
            if (r.meanBatch >
                static_cast<double>(c.serving.maxBatch) + kEps)
                problems.push_back(strprintf(
                    "oracle: mean batch %.2f exceeds maxBatch %d",
                    r.meanBatch, c.serving.maxBatch));

            std::string serial = servingFingerprint(r);
            std::vector<std::string> parallel(2);
            exec::Pool pool(2);
            pool.run(2, [&](std::size_t i) {
                parallel[i] = servingFingerprint(
                    serving::simulateServing(latency, c.serving));
            });
            for (const std::string &p : parallel) {
                if (p != serial) {
                    problems.push_back(
                        "oracle: parallel serving re-run diverged "
                        "(jobs differential)");
                    break;
                }
            }
            break;
        }
        case FuzzKind::Cluster: {
            const cluster::CostCache &costs = clusterCosts();
            cluster::ClusterResult r =
                cluster::simulateCluster(c.cluster, costs);
            if (r.offered != r.completed + r.lost)
                problems.push_back(strprintf(
                    "oracle: offered %zu != completed %zu + lost "
                    "%zu",
                    r.offered, r.completed, r.lost));
            if (r.completed > 0) {
                if (r.p50TtftNs > r.p95TtftNs + kEps ||
                    r.p95TtftNs > r.p99TtftNs + kEps)
                    problems.push_back(
                        "oracle: cluster TTFT percentiles "
                        "unordered");
                if (r.p50E2eNs > r.p95E2eNs + kEps ||
                    r.p95E2eNs > r.p99E2eNs + kEps)
                    problems.push_back(
                        "oracle: cluster E2E percentiles unordered");
            }
            if (r.sloAttainment < -kEps ||
                r.sloAttainment > 1.0 + kEps)
                problems.push_back(strprintf(
                    "oracle: SLO attainment %.6f outside [0, 1]",
                    r.sloAttainment));
            if (r.goodputRps > r.throughputRps + kEps)
                problems.push_back(strprintf(
                    "oracle: goodput %.3f rps exceeds throughput "
                    "%.3f rps",
                    r.goodputRps, r.throughputRps));

            std::string serial = json::write(r.toJson());
            std::vector<std::string> parallel(2);
            exec::Pool pool(2);
            pool.run(2, [&](std::size_t i) {
                parallel[i] = json::write(
                    cluster::simulateCluster(c.cluster, costs)
                        .toJson());
            });
            for (const std::string &p : parallel) {
                if (p != serial) {
                    problems.push_back(
                        "oracle: parallel cluster re-run diverged "
                        "(jobs differential)");
                    break;
                }
            }
            break;
        }
        case FuzzKind::Trace: {
            // Ingestion oracle: corrupted bytes may parse or may be
            // rejected, but rejection must be a clean FatalError, and
            // a diagnostic that blames an event must carry its index.
            // Any other exception escapes to the outer handler and
            // fails the case.
            auto ingest = [&]() -> std::pair<bool, std::string> {
                try {
                    trace::Trace t =
                        trace::fromChromeText(c.chromeText);
                    return {true, trace::toChromeText(t)};
                } catch (const FatalError &err) {
                    return {false, std::string(err.what())};
                }
            };
            std::pair<bool, std::string> first = ingest();
            if (!first.first && blamesEventWithoutIndex(first.second))
                problems.push_back(strprintf(
                    "oracle: ingestion error blames an event "
                    "without naming its index: %s",
                    first.second.c_str()));
            if (ingest() != first)
                problems.push_back(
                    "oracle: trace ingestion is non-deterministic "
                    "on identical bytes");
            break;
        }
        }
    } catch (const std::exception &e) {
        problems.push_back(
            strprintf("engine: unexpected exception: %s", e.what()));
    }
    return problems;
}

bool
blamesEventWithoutIndex(const std::string &message)
{
    auto word_char = [](char ch) {
        return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
    };
    for (std::size_t at = message.find("event"); at != std::string::npos;
         at = message.find("event", at + 1)) {
        std::size_t end = at + 5;
        if ((at > 0 && word_char(message[at - 1])) ||
            (end < message.size() && word_char(message[end])))
            continue; // part of a longer word: "events", "traceEvents"
        std::size_t next = message.find_first_not_of(' ', end);
        if (next == std::string::npos)
            return true;
        if (std::isdigit(static_cast<unsigned char>(message[next])))
            continue; // "event 12: ..."
        if (message.compare(next, 5, "array") == 0)
            continue; // the document's event array, not one record
        return true;
    }
    return false;
}

namespace
{

/** One size-reducing candidate edit; returns false when inapplicable. */
using Edit = std::function<bool(FuzzCase &)>;

std::vector<Edit>
proposeEdits(const FuzzCase &c)
{
    std::vector<Edit> edits;
    switch (c.kind) {
    case FuzzKind::Sim: {
        std::size_t roots = c.graph.roots.size();
        if (roots > 1) {
            edits.push_back([](FuzzCase &t) {
                auto &r = t.graph.roots;
                r.erase(r.begin() + static_cast<long>(r.size() / 2),
                        r.end());
                return true;
            });
            edits.push_back([](FuzzCase &t) {
                auto &r = t.graph.roots;
                r.erase(r.begin(),
                        r.begin() + static_cast<long>(r.size() / 2));
                return true;
            });
            for (std::size_t i = 0; i < roots; ++i) {
                edits.push_back([i](FuzzCase &t) {
                    auto &r = t.graph.roots;
                    if (i >= r.size() || r.size() <= 1)
                        return false;
                    r.erase(r.begin() + static_cast<long>(i));
                    return true;
                });
            }
        }
        for (std::size_t i = 0; i < roots; ++i) {
            edits.push_back([i](FuzzCase &t) {
                auto &r = t.graph.roots;
                if (i >= r.size() || r[i].children.empty())
                    return false;
                r[i].children.clear();
                return true;
            });
            edits.push_back([i](FuzzCase &t) {
                auto &r = t.graph.roots;
                if (i >= r.size() || r[i].launches.empty())
                    return false;
                r[i].launches.clear();
                return true;
            });
        }
        if (c.jitter) {
            edits.push_back([](FuzzCase &t) {
                if (!t.jitter)
                    return false;
                t.jitter = false;
                return true;
            });
        }
        break;
    }
    case FuzzKind::Serving: {
        edits.push_back([](FuzzCase &t) {
            if (t.serving.horizonSec <= 0.5)
                return false;
            t.serving.horizonSec /= 2.0;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.serving.arrivalRatePerSec <= 2.0)
                return false;
            t.serving.arrivalRatePerSec /= 2.0;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.serving.maxBatch <= 1)
                return false;
            t.serving.maxBatch = 1;
            return true;
        });
        break;
    }
    case FuzzKind::Cluster: {
        edits.push_back([](FuzzCase &t) {
            if (t.cluster.faults.empty())
                return false;
            t.cluster.faults.clear();
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.cluster.replicas.size() <= 1)
                return false;
            t.cluster.replicas.resize(1);
            // A lone prefill replica is an invalid fleet; collapsing
            // the pool collapses the split too.
            t.cluster.replicas[0].role = cluster::ReplicaRole::Mixed;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            bool tiered = t.cluster.kvTier.enabled();
            for (cluster::ReplicaSpec &rep : t.cluster.replicas)
                tiered = tiered ||
                         rep.role != cluster::ReplicaRole::Mixed;
            if (!tiered)
                return false;
            t.cluster.kvTier = kv::TierSpec();
            for (cluster::ReplicaSpec &rep : t.cluster.replicas)
                rep.role = cluster::ReplicaRole::Mixed;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.cluster.horizonSec <= 1.0)
                return false;
            t.cluster.horizonSec /= 2.0;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.cluster.arrivalRatePerSec <= 2.0)
                return false;
            t.cluster.arrivalRatePerSec /= 2.0;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.cluster.genTokens <= 1)
                return false;
            t.cluster.genTokens = 1;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.cluster.jitterFrac == 0.0)
                return false;
            t.cluster.jitterFrac = 0.0;
            return true;
        });
        break;
    }
    case FuzzKind::Trace: {
        edits.push_back([](FuzzCase &t) {
            if (t.chromeText.size() <= 1)
                return false;
            t.chromeText.resize(t.chromeText.size() / 2);
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.chromeText.size() <= 1)
                return false;
            t.chromeText.erase(0, t.chromeText.size() / 2);
            return true;
        });
        break;
    }
    }
    return edits;
}

} // namespace

FuzzCase
Fuzzer::shrink(const FuzzCase &failing) const
{
    FuzzCase best = failing;
    int budget = 400;
    bool progressed = true;
    while (progressed && budget > 0) {
        progressed = false;
        for (const Edit &edit : proposeEdits(best)) {
            if (budget <= 0)
                break;
            FuzzCase trial = best;
            if (!edit(trial))
                continue;
            --budget;
            if (!runCase(trial).empty()) {
                best = std::move(trial);
                progressed = true;
                break; // re-propose against the smaller case
            }
        }
    }
    return best;
}

FuzzReport
Fuzzer::run() const
{
    FuzzReport report;
    report.casesRun = _options.cases;

    std::vector<std::vector<std::string>> problems(_options.cases);
    if (_options.cases > 0) {
        // Cluster cost models calibrate inside a lock on first use;
        // build them up front so workers never contend on it.
        clusterCosts();
        exec::Pool pool(_options.jobs);
        pool.run(_options.cases, [&](std::size_t i) {
            problems[i] =
                runCase(generate(static_cast<std::uint64_t>(i)));
        });
    }

    bool first = true;
    for (std::size_t i = 0; i < problems.size(); ++i) {
        if (problems[i].empty())
            continue;
        ++report.failures;
        if (first) {
            first = false;
            report.firstFailureIndex = i;
            report.firstProblems = problems[i];
        }
    }

    if (report.failures > 0) {
        report.minimal =
            shrink(generate(report.firstFailureIndex));
        report.shrunk = true;
        report.reproPath = strprintf(
            "%s/skipsim_repro_seed%llu_case%llu.json",
            _options.reproDir.c_str(),
            static_cast<unsigned long long>(_options.seed),
            static_cast<unsigned long long>(report.firstFailureIndex));
        json::writeFile(report.reproPath, report.minimal.toJson());
    }
    return report;
}

std::string
FuzzReport::render() const
{
    std::string out = strprintf("fuzz: %zu case%s run, %zu failure%s\n",
                                casesRun, casesRun == 1 ? "" : "s",
                                failures, failures == 1 ? "" : "s");
    if (failures == 0)
        return out;
    out += strprintf("first failure: case %llu (%s)\n",
                     static_cast<unsigned long long>(firstFailureIndex),
                     fuzzKindName(minimal.kind));
    for (const std::string &p : firstProblems)
        out += "  " + p + "\n";
    if (shrunk)
        out += strprintf("shrunken repro (size %zu) written to %s\n",
                         minimal.sizeScore(), reproPath.c_str());
    return out;
}

} // namespace skipsim::check

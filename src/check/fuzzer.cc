#include "check/fuzzer.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <limits>
#include <mutex>

#include "analysis/sweep.hh"
#include "check/append_recorder.hh"
#include "check/chrome_oracle.hh"
#include "check/closure_queue.hh"
#include "check/event_batcher.hh"
#include "check/event_continuous.hh"
#include "check/invariants.hh"
#include "check/map_dep_graph.hh"
#include "check/scan_router.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "core/sharded_engine.hh"
#include "exec/pool.hh"
#include "hw/catalog.hh"
#include "json/writer.hh"
#include "serving/arrival.hh"
#include "serving/latency_model.hh"
#include "serving/replica_engine.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "trace/chrome.hh"
#include "workload/builder.hh"
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

/** Chunk sizes continuous fuzz cases draw for the 64-token prompt:
 *  one token, a non-divisor, a divisor, the prompt and one more. */
constexpr int kContinuousChunks[] = {1, 7, 16, 64, 65};

/**
 * Cluster and continuous fuzz cases pin model (GPT2), prompt length
 * and platform (GH200) so every case shares one calibrated cost model;
 * the fuzzed degrees of freedom are the queueing/fault knobs, which is
 * where the engines' logic lives.
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

/**
 * The continuous-batching config a generated serving case also runs
 * through diffContinuous (FuzzCase::continuous). It draws from a
 * stream of its own, so the serving fields keep their bytes.
 */
serving::ContinuousConfig
continuousConfig(std::uint64_t caseSeed, bool quick)
{
    Rng rng(mixSeed(caseSeed, 0x636f6e74)); // "cont"
    serving::ContinuousConfig c;
    c.arrivalRatePerSec = 5.0 + rng.uniform() * (quick ? 400.0 : 2000.0);
    c.horizonSec = quick ? 0.02 + 0.3 * rng.uniform()
                         : 0.1 + 1.9 * rng.uniform();
    c.maxActive = 1 + static_cast<int>(rng.below(48));
    c.genTokens = 1 + static_cast<int>(rng.below(24));
    // One case in eight each takes a one-slot batch or single-token
    // requests; half the cases chunk their prefill.
    switch (rng.below(8)) {
    case 0:
        c.maxActive = 1;
        break;
    case 1:
        c.genTokens = 1;
        break;
    default:
        break;
    }
    if (rng.below(2) == 0)
        c.chunkTokens =
            kContinuousChunks[rng.below(std::size(kContinuousChunks))];
    c.seed = rng.next();
    return c;
}

/**
 * The continuous tie check a generated serving case also runs: the
 * case's Poisson arrivals plus one arrival placed exactly on an
 * iteration end of their unperturbed walk, walked by walkContinuous and
 * by the event-driven loop (diffContinuous). Both must handle the
 * arrival first, so it can join the iteration that end starts. The end
 * (one below the horizon) is drawn from a stream of its own, so every
 * other draw keeps its bytes.
 * @return empty when the two agree, else the difference.
 */
std::string
diffContinuousTie(std::uint64_t caseSeed,
                  const serving::ContinuousConfig &config)
{
    const serving::IterationCostModel &cost = clusterCosts().get("GH200");
    const double horizon_ns = config.horizonSec * 1e9;
    std::vector<double> arrivals = serving::poissonTimesNs(
        config.arrivalRatePerSec, horizon_ns, config.seed);

    // The unperturbed walk, recording its iteration ends.
    struct EndLog final : serving::ReplicaHost
    {
        double horizonNs = 0.0;
        std::vector<double> ends;

        void
        onIteration(std::size_t, const serving::IterationInfo &info) override
        {
            if (info.endNs < horizonNs)
                ends.push_back(info.endNs);
        }
    } log;
    log.horizonNs = horizon_ns;
    serving::ReplicaEngine replica({.cost = &cost,
                                    .maxActive = config.maxActive,
                                    .genTokens = config.genTokens,
                                    .chunkTokens = config.chunkTokens,
                                    .horizonNs = horizon_ns},
                                   log);
    for (std::size_t next = 0; next < arrivals.size() || replica.busy();) {
        if (next < arrivals.size() &&
            (!replica.busy() || arrivals[next] <= replica.iterEndNs())) {
            replica.enqueue(next, arrivals[next]);
            replica.maybeStart(arrivals[next++]);
        } else {
            replica.finishIteration(replica.iterEndNs());
        }
    }
    if (log.ends.empty())
        return {};
    Rng rng(mixSeed(caseSeed, 0x746965)); // "tie"
    const double end = log.ends[rng.below(log.ends.size())];
    arrivals.insert(std::upper_bound(arrivals.begin(), arrivals.end(), end),
                    end);
    return diffContinuous(cost, config, arrivals);
}

/**
 * The graph-free pricing check a generated serving case also runs: one
 * pass drawn from a stream of its own (so the serving fields keep their
 * bytes) — catalog model and platform, exec mode, batch 1-64, sequence
 * or context 1-512, a tensor-parallel degree the model and platform
 * allow, jitter off or at a drawn seed — priced by
 * Simulator::wallNs(model, opts[, ctx]) and by the walk of the tree
 * the builder makes for it.
 * @return empty when the two agree bit for bit, else the difference.
 */
std::string
diffGraphFree(std::uint64_t caseSeed)
{
    Rng rng(mixSeed(caseSeed, 0x656d6974)); // "emit"
    const std::vector<workload::ModelConfig> models = workload::allModels();
    const workload::ModelConfig &model = models[rng.below(models.size())];
    const std::vector<hw::Platform> platforms = hw::platforms::all();
    const hw::Platform &platform =
        platforms[rng.below(platforms.size())];
    const std::vector<workload::ExecMode> modes =
        workload::allExecModes();
    workload::BuildOptions opts;
    opts.mode = modes[rng.below(modes.size())];
    opts.batch = 1 + static_cast<int>(rng.below(64));
    opts.seqLen = 1 + static_cast<int>(rng.below(512));
    std::vector<int> degrees{1};
    if (platform.gpu.nvlinkGBs > 0.0)
        for (int tp : {2, 4, 8})
            if (model.heads % tp == 0 && model.intermediate % tp == 0 &&
                model.vocab % tp == 0)
                degrees.push_back(tp);
    opts.tensorParallel = degrees[rng.below(degrees.size())];
    sim::SimOptions sim_opts;
    sim_opts.jitter = rng.below(2) == 0;
    sim_opts.seed = rng.next();
    const bool decode = rng.below(2) == 0;
    // The layer count draws from a stream of its own, so the draws
    // above keep their bytes: the catalog's count, or the fold's edges
    // 1, 2 and 3, or up to 200 layers.
    workload::ModelConfig stack = model;
    Rng layr(mixSeed(caseSeed, 0x6c617972)); // "layr"
    if (std::uint64_t edge = layr.below(5); edge == 4)
        stack.layers = 1 + static_cast<int>(layr.below(200));
    else if (edge != 0)
        stack.layers = static_cast<int>(edge);

    const sim::Simulator simulator(platform, sim_opts);
    const double graph_free = decode
        ? simulator.wallNs(stack, opts, opts.seqLen)
        : simulator.wallNs(stack, opts);
    const double tree = simulator.wallNs(
        decode ? workload::buildDecodeStepGraph(stack, opts, opts.seqLen)
               : workload::buildPrefillGraph(stack, opts));
    if (std::bit_cast<std::uint64_t>(graph_free) ==
        std::bit_cast<std::uint64_t>(tree))
        return {};
    return strprintf("graph-free wallNs %.17g != tree walk %.17g (%s, %d "
                     "layers, %s %s, batch %d, %s %d, tp %d, on %s, "
                     "jitter %s)",
                     graph_free, tree, stack.name.c_str(), stack.layers,
                     workload::execModeName(opts.mode),
                     decode ? "decode" : "prefill", opts.batch,
                     decode ? "context" : "seq", opts.seqLen,
                     opts.tensorParallel, platform.name.c_str(),
                     sim_opts.jitter ? "on" : "off");
}

/**
 * The fold check a generated sim case also runs: one root of the
 * case's graph, drawn from a stream of the case seed, repeated as a
 * block of 1-40 layers between the roots before it (the prologue,
 * which may leave the stream unused) and those after it. The trace-free
 * walk streams the block marked (OpSink::repeat), so it may fold it;
 * the tree walk streams every layer.
 * @return empty when the two agree bit for bit, else the difference.
 */
std::string
diffFoldedBlock(const hw::Platform &platform, const sim::SimOptions &opts,
                const workload::OperatorGraph &graph,
                std::uint64_t caseSeed)
{
    if (graph.roots.empty())
        return {};
    Rng rng(mixSeed(caseSeed, 0x666f6c64)); // "fold"
    const std::size_t at = rng.below(graph.roots.size());
    const int layers = 1 + static_cast<int>(rng.below(40));
    const auto layer = graph.roots.begin() + static_cast<long>(at);
    workload::OperatorGraph prologue, block, epilogue, tree;
    prologue.roots.assign(graph.roots.begin(), layer);
    block.roots.assign(layer, layer + 1);
    epilogue.roots.assign(layer + 1, graph.roots.end());
    tree.roots = prologue.roots;
    tree.roots.insert(tree.roots.end(), static_cast<std::size_t>(layers),
                      *layer);
    tree.roots.insert(tree.roots.end(), epilogue.roots.begin(),
                      epilogue.roots.end());

    sim::Runner<sim::NoTrace> runner(platform, opts);
    prologue.emit(runner);
    for (int i = runner.repeat(layers); i > 0; --i)
        block.emit(runner);
    runner.endRepeat();
    epilogue.emit(runner);
    runner.deviceSynchronize();
    const double folded = runner.wallNs();
    const double walked = sim::Simulator(platform, opts).wallNs(tree);
    if (std::bit_cast<std::uint64_t>(folded) ==
        std::bit_cast<std::uint64_t>(walked))
        return {};
    return strprintf("folded wallNs %.17g != tree walk %.17g (root %zu "
                     "of %zu repeated %d times)",
                     folded, walked, at, graph.roots.size(), layers);
}

json::Value
continuousToJson(const serving::ContinuousConfig &c)
{
    json::Object doc;
    doc.set("rate", c.arrivalRatePerSec);
    doc.set("horizon_sec", c.horizonSec);
    doc.set("max_active", c.maxActive);
    doc.set("gen_tokens", c.genTokens);
    doc.set("chunk_tokens", c.chunkTokens);
    doc.set("seed", static_cast<unsigned long long>(c.seed));
    return json::Value(std::move(doc));
}

serving::ContinuousConfig
continuousFromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    serving::ContinuousConfig c;
    c.arrivalRatePerSec = obj.at("rate").asDouble();
    c.horizonSec = obj.at("horizon_sec").asDouble();
    c.maxActive = json::intValue(obj.at("max_active"), "max_active");
    c.genTokens = json::intValue(obj.at("gen_tokens"), "gen_tokens");
    c.chunkTokens =
        json::intValue(obj.at("chunk_tokens"), "chunk_tokens");
    c.seed = json::uint64Member(obj, "seed");
    return c;
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

/**
 * Repeat one member of the Chrome-trace text @p text, so that the
 * readers' rule for a repeated key (first position, last value) is
 * exercised. The copy goes either before the original, which then
 * wins, or after it, which makes the copy win; it lands in an event,
 * in an event's args, or at the root (a second traceEvents array).
 * Anchors are searched from a random position, so any event can take
 * the copy; text the byte mutations broke may have no anchor left.
 */
void
repeatMember(std::string &text, Rng &rng)
{
    static const char *const kEventCopies[] = {
        "\"ts\":7", "\"dur\":-3", "\"tid\":9", "\"name\":\"dup\"",
        "\"cat\":\"python_function\"", "\"ph\":\"i\"",
        "\"args\":{\"ts_ns\":5,\"dur_ns\":6}"};
    static const char *const kArgCopies[] = {
        "\"ts_ns\":", "\"dur_ns\":", "\"thread\":", "\"stream\":",
        "\"correlation\":"};
    auto find = [&](const std::string &anchor) {
        std::size_t at = text.find(anchor, rng.below(text.size() + 1));
        return at != std::string::npos ? at : text.find(anchor);
    };
    const std::string value = std::to_string(rng.below(100000));
    std::size_t at = std::string::npos;
    std::string copy;
    switch (rng.below(5)) {
    case 0: // an event member, before the original
        at = find("{\"ph\":");
        if (at != std::string::npos) {
            ++at;
            copy = std::string(kEventCopies[rng.below(7)]) + ",";
        }
        break;
    case 1: // an event member, after the original: between the
            // closing braces of args and of the event
        at = find("}}");
        if (at != std::string::npos) {
            ++at;
            copy = "," + std::string(kEventCopies[rng.below(7)]);
        }
        break;
    case 2: // an args member, before the original
        at = find("\"args\":{");
        if (at != std::string::npos) {
            at += 8;
            copy = kArgCopies[rng.below(5)] + value + ",";
        }
        break;
    case 3: // args "ts_ns", after the original
        at = find("\"args\":{\"ts_ns\":");
        if (at != std::string::npos)
            at = text.find(',', at);
        if (at != std::string::npos) {
            ++at;
            copy = "\"ts_ns\":" + value + ",";
        }
        break;
    default: // the root's traceEvents, before or after the original
        if (rng.below(2) == 0) {
            at = text.find("\"traceEvents\":");
            copy = "\"traceEvents\":[{\"ph\":\"X\"}],";
        } else {
            at = text.rfind('}');
            copy = ",\"traceEvents\":[{\"ph\":\"X\",\"cat\":\"kernel\","
                   "\"name\":\"late\",\"ts\":" +
                value + ",\"dur\":2}]";
        }
        break;
    }
    if (at != std::string::npos)
        text.insert(at, copy);
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
        return static_cast<std::size_t>(
            serving.arrivalRatePerSec * serving.horizonSec +
            continuous.arrivalRatePerSec * continuous.horizonSec);
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
        s.set("continuous", continuousToJson(continuous));
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
        c.serving.maxBatch = json::intValue(s.at("max_batch"), "max_batch");
        c.serving.maxWaitNs = s.at("max_wait_ns").asDouble();
        c.serving.seed = json::uint64Member(s, "seed");
        c.latencyBaseNs = s.at("latency_base_ns").asDouble();
        c.latencySlopeNs = s.at("latency_slope_ns").asDouble();
        c.continuous = continuousFromJson(s.at("continuous"));
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
        // One operator in eight each spends all of its CPU cost before
        // its work (preFraction 1) or none (0: a parent then begins on
        // its first child's ns, and the recorder's merge falls back to
        // the sort). A stream of its own keeps the draws above.
        Rng edges(mixSeed(c.seed, 0x70726566)); // "pref"
        auto edge = [&edges](workload::OpNode &node) {
            if (std::uint64_t roll = edges.below(8); roll < 2)
                node.preFraction = static_cast<double>(roll);
        };
        for (workload::OpNode &root : c.graph.roots) {
            edge(root);
            for (workload::OpNode &child : root.children)
                edge(child);
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
        // One case in eight each takes an edge of the batcher: no
        // wait, a 1 ns wait, a cap above 32, or no cap at all.
        switch (rng.below(8)) {
        case 0:
            c.serving.maxWaitNs = 0.0;
            break;
        case 1:
            c.serving.maxWaitNs = 1.0;
            break;
        case 2:
            c.serving.maxBatch = 33 + static_cast<int>(rng.below(1000));
            break;
        case 3:
            c.serving.maxBatch = std::numeric_limits<int>::max();
            break;
        default:
            break;
        }
        c.serving.seed = c.seed;
        c.latencyBaseNs = 5e5 + rng.uniform() * 5e6;
        c.latencySlopeNs = 1e5 + rng.uniform() * 2e6;
        c.continuous = continuousConfig(c.seed, _options.quick);
        break;
    }
    case FuzzKind::Cluster: {
        c.cluster.model = workload::gpt2();
        c.cluster.promptLen = 64;
        c.cluster.genTokens = 2 + static_cast<int>(rng.below(10));
        std::size_t replicas = 1 + rng.below(5);
        for (std::size_t i = 0; i < replicas; ++i) {
            cluster::ReplicaSpec replica;
            replica.platform = hw::platforms::gh200();
            replica.maxActive = 2 + static_cast<int>(rng.below(14));
            // Distinct clocks give distinct capacity weights, so the
            // weighted router sees more than outstanding counts.
            replica.clock = 0.6 + 0.8 * rng.uniform();
            if (rng.below(3) == 0)
                replica.maxQueue = 4 + static_cast<int>(rng.below(12));
            c.cluster.replicas.push_back(replica);
        }
        const cluster::RouterPolicy routers[] = {
            cluster::RouterPolicy::RoundRobin,
            cluster::RouterPolicy::LeastOutstanding,
            cluster::RouterPolicy::WeightedThroughput,
            cluster::RouterPolicy::SessionAffinity};
        c.cluster.router = routers[rng.below(4)];
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
        // Dispatch hops, staged dispatch and partitions come from a
        // stream of their own, so the draws above keep their bytes.
        Rng disp(mixSeed(c.seed, 0x64697370)); // "disp"
        if (disp.below(2) == 0)
            c.cluster.dispatchUs = 1.0 + 49.0 * disp.uniform();
        // Staging only gates delivery when the lanes are live.
        if ((c.cluster.kvTier.enabled() || c.cluster.disaggregated()) &&
            disp.below(2) == 0)
            c.cluster.stagedDispatch = true;
        if (disp.below(4) == 0) {
            cluster::FaultSpec partition;
            partition.kind = cluster::FaultKind::Partition;
            partition.atSec =
                disp.uniform() * 0.5 * c.cluster.horizonSec;
            partition.replica = disp.below(replicas);
            // Half heal before the horizon; the rest never do.
            if (disp.below(2) == 0)
                partition.healSec = partition.atSec +
                    (0.05 + 0.4 * disp.uniform()) *
                        c.cluster.horizonSec;
            c.cluster.faults.push_back(partition);
        }
        break;
    }
    case FuzzKind::Trace: {
        // Start from a valid export: op -> launch -> kernel triplets
        // linked by correlation ids, the shape validateTrace expects.
        trace::Trace t;
        std::size_t ops = 1 + rng.below(_options.quick ? 4 : 8);
        std::int64_t now = 0;
        // Correlation ids come from a stream of their own, so the draws
        // here keep their bytes: they are not sequential, and one
        // launch in three reuses an earlier launch's id (every kernel
        // with that id then links to the id's latest launch).
        Rng ids(mixSeed(c.seed, 0x636f7272)); // "corr"
        std::vector<std::uint64_t> used;
        for (std::size_t i = 0; i < ops; ++i) {
            std::uint64_t corr = !used.empty() && ids.below(3) == 0
                ? used[ids.below(used.size())]
                : 1 + ids.below(1ULL << 40);
            used.push_back(corr);
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
        // and truncation, anywhere in the document. One case in four
        // (drawn from a stream of its own) stays intact, so it parses
        // and reaches the dependency-graph oracle and its
        // correlation-id rule.
        Rng pure(mixSeed(c.seed, 0x70757265)); // "pure"
        std::size_t mutations = pure.below(4) == 0
            ? 0
            : 1 + rng.below(_options.quick ? 6 : 16);
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
        // One case in four also gets a value nested 256-767 levels
        // deep in balanced brackets, as an extra args member the reader
        // ignores. Below the parser's 512-level cap the document still
        // reaches the event reader; above it, parsing stops at the cap.
        // Its draws come from a stream of their own, independent of the
        // byte mutations above.
        Rng nest(mixSeed(c.seed, 0x6e657374));
        if (nest.below(4) == 0) {
            const std::size_t depth = 256 + nest.below(512);
            const bool arrays = nest.below(2) == 0;
            std::string value;
            for (std::size_t n = 0; n < depth; ++n)
                value += arrays ? "[" : "{\"a\":";
            value += "0";
            value.append(depth, arrays ? ']' : '}');
            const std::string anchor = "\"args\":{";
            std::size_t at = c.chromeText.find(
                anchor, nest.below(c.chromeText.size() + 1));
            if (at == std::string::npos)
                at = c.chromeText.find(anchor);
            if (at != std::string::npos)
                c.chromeText.insert(at + anchor.size(),
                                    "\"nest\":" + value + ",");
        }
        // One case in three also repeats a member, from a stream of
        // its own as well.
        Rng repeat(mixSeed(c.seed, 0x72657065));
        if (repeat.below(3) == 0)
            repeatMember(c.chromeText, repeat);
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

            // Trace-free differential: the walk that records nothing
            // ends at the traced run's wall time, bit for bit.
            double wall = sim::Simulator(platform, opts).wallNs(c.graph);
            if (std::bit_cast<std::uint64_t>(wall) !=
                std::bit_cast<std::uint64_t>(result.wallNs))
                problems.push_back(strprintf(
                    "oracle: trace-free wallNs %.17g != traced %.17g",
                    wall, result.wallNs));

            // Fold differential: a block of repeated roots priced
            // folded equals the walk of every layer.
            std::string folded =
                diffFoldedBlock(platform, opts, c.graph, c.seed);
            if (!folded.empty())
                problems.push_back("oracle: " + folded);

            // Recorder differential: the time-ordered recording equals
            // the append-then-sort recorder it replaced, field by field.
            std::string recorded = diffSimResults(
                result, appendSortRun(platform, opts, c.graph));
            if (!recorded.empty())
                problems.push_back("oracle: " + recorded);
            // Dependency-graph differential: the flat builder equals
            // the map-based one it replaced.
            std::string linked = diffDependencyGraphs(result.trace);
            if (!linked.empty())
                problems.push_back("oracle: " + linked);

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

            std::string batching = diffServing(latency, c.serving);
            if (!batching.empty())
                problems.push_back("oracle: " + batching);

            std::string continuous =
                diffContinuous(clusterCosts().get("GH200"), c.continuous,
                               _options.continuousMutator);
            if (!continuous.empty())
                problems.push_back("oracle: continuous " + continuous);
            std::string tie = diffContinuousTie(c.seed, c.continuous);
            if (!tie.empty())
                problems.push_back("oracle: continuous tie " + tie);

            std::string graph_free = diffGraphFree(c.seed);
            if (!graph_free.empty())
                problems.push_back("oracle: " + graph_free);
            break;
        }
        case FuzzKind::Cluster: {
            const cluster::CostCache &costs = clusterCosts();
            core::ShardStats stats;
            cluster::ClusterResult r = cluster::simulateCluster(
                c.cluster, costs, nullptr, nullptr, &stats);
            // Arrivals are chained, never pre-scheduled.
            if (stats.peakPendingArrivals > 1)
                problems.push_back(strprintf(
                    "oracle: %llu arrival events pending at once",
                    static_cast<unsigned long long>(
                        stats.peakPendingArrivals)));
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

            std::string routing =
                diffRouters(c.seed, c.cluster.router,
                            c.cluster.replicas.size(), 400);
            if (!routing.empty())
                problems.push_back("oracle: " + routing);
            std::string queueing = diffEventQueues(c.seed, 400);
            if (!queueing.empty())
                problems.push_back("oracle: " + queueing);
            break;
        }
        case FuzzKind::Trace: {
            // Ingestion oracle: corrupted bytes may parse or may be
            // rejected, but rejection must be a clean FatalError, and
            // a diagnostic that blames an event must carry its index.
            // An accepted trace has no negative duration. Any other
            // exception escapes to the outer handler and fails the
            // case.
            auto ingest =
                [&](bool check_durations) -> std::pair<bool, std::string> {
                try {
                    trace::Trace t =
                        trace::fromChromeText(c.chromeText);
                    for (const trace::TraceEvent &ev : t.events()) {
                        if (check_durations && ev.durNs < 0) {
                            problems.push_back(strprintf(
                                "oracle: accepted event %llu has "
                                "negative duration %lld ns",
                                static_cast<unsigned long long>(ev.id),
                                static_cast<long long>(ev.durNs)));
                            break;
                        }
                    }
                    return {true, trace::toChromeText(t)};
                } catch (const FatalError &err) {
                    return {false, std::string(err.what())};
                }
            };
            std::pair<bool, std::string> first = ingest(true);
            if (!first.first && blamesEventWithoutIndex(first.second))
                problems.push_back(strprintf(
                    "oracle: ingestion error blames an event "
                    "without naming its index: %s",
                    first.second.c_str()));
            if (ingest(false) != first)
                problems.push_back(
                    "oracle: trace ingestion is non-deterministic "
                    "on identical bytes");
            // A trace that parses builds the same dependency graph, or
            // the same error, as the map-based builder.
            if (first.first) {
                std::string linked = diffDependencyGraphs(
                    trace::fromChromeText(c.chromeText));
                if (!linked.empty())
                    problems.push_back("oracle: " + linked);
            }
            // Codec parity: the streaming readers and writers match
            // the DOM code they replaced, errors included.
            std::string parity = diffChromeCodec(c.chromeText);
            if (!parity.empty())
                problems.push_back("oracle: " + parity);
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
    // A message that names its record ("event 12: ...") blames it
    // properly, whatever the detail after the index says about
    // "event" ("event 0: event is not a JSON object").
    bool unindexed = false;
    for (std::size_t at = message.find("event"); at != std::string::npos;
         at = message.find("event", at + 1)) {
        std::size_t end = at + 5;
        if ((at > 0 && word_char(message[at - 1])) ||
            (end < message.size() && word_char(message[end])))
            continue; // part of a longer word: "events", "traceEvents"
        std::size_t next = message.find_first_not_of(' ', end);
        if (next == std::string::npos) {
            unindexed = true;
        } else if (std::isdigit(static_cast<unsigned char>(message[next]))) {
            std::size_t after = message.find_first_not_of("0123456789", next);
            if (after != std::string::npos && message[after] == ':')
                return false;
        } else if (message.compare(next, 5, "array") != 0) {
            // "event array" is the document's array, not one record.
            unindexed = true;
        }
    }
    return unindexed;
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
        // The continuous config diffContinuous runs beside the case.
        edits.push_back([](FuzzCase &t) {
            if (t.continuous.horizonSec <= 0.01)
                return false;
            t.continuous.horizonSec /= 2.0;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.continuous.maxActive <= 1)
                return false;
            t.continuous.maxActive /= 2;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.continuous.genTokens <= 1)
                return false;
            t.continuous.genTokens /= 2;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            if (t.continuous.chunkTokens == 0)
                return false;
            t.continuous.chunkTokens = 0;
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
        edits.push_back([](FuzzCase &t) {
            if (t.cluster.dispatchUs == 0.0 && !t.cluster.stagedDispatch)
                return false;
            t.cluster.dispatchUs = 0.0;
            t.cluster.stagedDispatch = false;
            return true;
        });
        edits.push_back([](FuzzCase &t) {
            const cluster::RouterPolicy fallback =
                cluster::ClusterSpec().router;
            if (t.cluster.router == fallback)
                return false;
            t.cluster.router = fallback;
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
        try {
            // A missing directory is made; if the write still fails,
            // the report keeps the failure and names the error.
            std::error_code ignored;
            std::filesystem::create_directories(_options.reproDir, ignored);
            json::writeFile(report.reproPath, report.minimal.toJson());
        } catch (const FatalError &err) {
            report.reproError = err.what();
        }
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
    if (shrunk && reproError.empty())
        out += strprintf("shrunken repro (size %zu) written to %s\n",
                         minimal.sizeScore(), reproPath.c_str());
    else if (shrunk)
        out += strprintf("shrunken repro (size %zu) not written: %s\n",
                         minimal.sizeScore(), reproError.c_str());
    return out;
}

} // namespace skipsim::check

#include "workloads.hh"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <optional>
#include <utility>

#include "check/invariants.hh"
#include "check/span_check.hh"
#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "core/sharded_engine.hh"
#include "fusion/proximity.hh"
#include "hw/catalog.hh"
#include "json/parser.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "obs/attribution.hh"
#include "obs/span.hh"
#include "scenario/registry.hh"
#include "serving/arrival.hh"
#include "sim/simulator.hh"
#include "skip/dep_graph.hh"
#include "skip/metrics.hh"
#include "trace/chrome.hh"
#include "workload/builder.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace skipbench
{

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t hash)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

namespace
{

std::string
chainStatsText(const std::vector<fusion::ChainStats> &chains)
{
    std::string out;
    for (const fusion::ChainStats &c : chains)
        out += strprintf("L%zu u%zu t%zu d%zu f%zu k%zu e%zu F%zu s%.17g;",
                         c.length, c.uniqueChains, c.totalInstances,
                         c.deterministicChains, c.fusedChains,
                         c.kernelsFused, c.kEager, c.kFused,
                         c.idealSpeedup);
    return out;
}

/**
 * paper_sweep: SKIP's characterization pipeline over a multi-model,
 * multi-platform batch grid. The seed drives the simulator's timing
 * jitter, so each seed profiles slightly different traces.
 */
class PaperSweep final : public Workload
{
  public:
    PaperSweep(std::uint64_t seed, Size size) : _seed(seed), _size(size) {}

    const char *workUnit() const override { return "profiles"; }

    double tailQuantile() const override { return 0.9; }

    void setup(Layers &) override
    {
        bool tiny = _size == Size::Tiny;
        _models = tiny ? std::vector<workload::ModelConfig>{workload::gpt2()}
                       : std::vector<workload::ModelConfig>{
                             workload::gpt2(), workload::llama32_1b(),
                             workload::llama2_7b()};
        _platforms = tiny
            ? std::vector<hw::Platform>{hw::platforms::gh200()}
            : hw::platforms::paperTrio();
        std::vector<int> batches = tiny ? std::vector<int>{1, 4}
                                        : std::vector<int>{1, 4, 16, 64};
        _configs.clear();
        for (std::size_t m = 0; m < _models.size(); ++m)
            for (std::size_t p = 0; p < _platforms.size(); ++p)
                for (int batch : batches) {
                    Config config{m, p, {}};
                    config.opts.batch = batch;
                    config.opts.seqLen = tiny ? 128 : 512;
                    _configs.push_back(config);
                }
    }

    std::size_t inputs() const override { return _configs.size(); }

    void run(std::size_t i, Layers &layers) override
    {
        const Config &config = _configs[i];
        workload::OperatorGraph graph;
        {
            auto span = layers.span("workload.build");
            graph = workload::buildPrefillGraph(_models[config.model],
                                                config.opts);
        }
        layers.count("workload.kernel_launches",
                     static_cast<double>(graph.numKernelLaunches()));
        sim::SimOptions opts;
        opts.seed = mixSeed(_seed, i);
        opts.jitter = true;
        sim::SimResult result;
        {
            auto span = layers.span("sim.run");
            result = sim::Simulator(_platforms[config.platform], opts)
                         .run(graph);
        }
        layers.count("sim.trace_events",
                     static_cast<double>(result.trace.size()));
        layers.count("skip.depgraph_events",
                     static_cast<double>(result.trace.size()));
        {
            auto span = layers.span("skip.depgraph");
            _graph = skip::DependencyGraph::build(std::move(result.trace));
        }
        {
            auto span = layers.span("skip.metrics");
            _metrics = skip::computeMetrics(*_graph);
        }
        {
            auto span = layers.span("fusion.mine");
            fusion::ProximityAnalyzer analyzer(
                fusion::kernelSequenceFromTrace(_graph->trace()));
            layers.count("fusion.sequence_len",
                         static_cast<double>(analyzer.sequenceLength()));
            _chains = analyzer.sweep(fusion::defaultChainLengths());
        }
    }

    Verdict check(std::size_t) override
    {
        Verdict verdict;
        check::TraceCheckReport report =
            check::validateTrace(_graph->trace());
        for (const check::Violation &v : report.violations)
            verdict.problems.push_back("validateTrace: " + v.code + ": " +
                                       v.message);
        verdict.digest = fnv1a(chainStatsText(_chains),
                               fnv1a(json::write(_metrics.toJson())));
        verdict.work = 1.0;
        _graph.reset();
        _chains.clear();
        return verdict;
    }

  private:
    struct Config
    {
        std::size_t model;
        std::size_t platform;
        workload::BuildOptions opts;
    };

    std::uint64_t _seed;
    Size _size;
    std::vector<workload::ModelConfig> _models;
    std::vector<hw::Platform> _platforms;
    std::vector<Config> _configs;

    std::optional<skip::DependencyGraph> _graph;
    skip::MetricsReport _metrics;
    std::vector<fusion::ChainStats> _chains;
};

/**
 * Arrival generation and a router replay at the run's fleet size and
 * policy, measured standalone. Each arrival settles @p holdNs after it
 * was dispatched, which keeps the router's outstanding counts near
 * the simulated run's.
 */
void
measureArrivalsAndRouter(const cluster::ClusterSpec &spec, double holdNs,
                         Layers &layers)
{
    serving::PoissonProcess legacy(spec.arrivalRatePerSec, spec.sessions);
    const serving::ArrivalProcess &process =
        spec.traffic ? *spec.traffic : legacy;
    std::vector<serving::Arrival> arrivals;
    {
        auto span = layers.span("serving.arrivals");
        arrivals = process.generate(spec.horizonSec * 1e9, spec.seed);
    }
    layers.count("serving.arrivals", static_cast<double>(arrivals.size()));

    cluster::Router router(spec.router,
                           std::vector<double>(spec.replicas.size(), 1.0));
    std::deque<std::pair<double, std::size_t>> inflight;
    const std::vector<std::size_t> none;
    auto span = layers.span("cluster.router.replay");
    for (const serving::Arrival &arrival : arrivals) {
        while (!inflight.empty() && inflight.front().first <= arrival.timeNs) {
            router.onSettled(inflight.front().second);
            inflight.pop_front();
        }
        std::size_t replica = router.pick(arrival.session, none);
        router.onDispatch(replica);
        inflight.emplace_back(arrival.timeNs + holdNs, replica);
    }
    layers.count("cluster.router.picks",
                 static_cast<double>(arrivals.size()));
}

/**
 * Shared set-up and accounting of the two cluster workloads. Input k
 * is the scenario reseeded with mixSeed(seed, k): with many inputs,
 * each operation simulates fresh traffic and a run's median spans
 * many traffic draws instead of repeating a few.
 */
class ClusterWorkload : public Workload
{
  public:
    ClusterWorkload(std::uint64_t seed, Size size, std::size_t variants)
        : _seed(seed), _size(size), _variants(variants)
    {
    }

    void setup(Layers &layers) override
    {
        {
            auto span = layers.span("scenario.build");
            cluster::ClusterSpec base =
                scenario::buildScenario(scenarioName(), params());
            _specs.clear();
            for (std::size_t k = 0; k < _variants; ++k) {
                base.seed = mixSeed(_seed, k);
                _specs.push_back(base.scenarioAt(0));
            }
        }
        // Every variant shares the model, prompt and platform, so one
        // cost cache serves them all.
        auto span = layers.span("serving.cost_model");
        _costs = cluster::CostCache();
        _costs.build(_specs.front());
    }

    std::size_t inputs() const override { return _specs.size(); }

    void extras(Layers &layers) override
    {
        measureArrivalsAndRouter(_specs.front(), _holdNs, layers);
    }

  protected:
    virtual const char *scenarioName() const = 0;
    virtual json::Object params() const = 0;

    /** Counters and checks every cluster run shares. */
    void countRun(Layers &layers) const
    {
        layers.count("core.events", static_cast<double>(_stats.events));
        layers.count("core.windows", static_cast<double>(_stats.windows));
        layers.count("cluster.completed",
                     static_cast<double>(_result.completed));
        layers.count("cluster.lost", static_cast<double>(_result.lost));
        std::size_t rejected = 0;
        for (const cluster::ReplicaStats &rep : _result.replicas)
            rejected += rep.rejected;
        layers.count("cluster.rejected", static_cast<double>(rejected));
    }

    void checkRun(std::size_t i, Verdict &verdict)
    {
        if (_result.offered != _result.completed + _result.lost)
            verdict.problems.push_back(strprintf(
                "offered %zu != completed %zu + lost %zu", _result.offered,
                _result.completed, _result.lost));
        if (_result.completed == 0)
            verdict.problems.push_back("no request completed");
        verdict.digest = fnv1a(_report, verdict.digest);
        if (i == 0)
            _holdNs = _result.p50E2eNs;
        _report.clear();
    }

    std::uint64_t _seed;
    Size _size;
    std::size_t _variants;
    std::vector<cluster::ClusterSpec> _specs;
    cluster::CostCache _costs;
    cluster::ClusterResult _result;
    core::ShardStats _stats;
    std::string _report;
    double _holdNs = 0.0;
};

/**
 * fleet_lor: the datacenter scenario at 1024 replicas under
 * least-outstanding routing and Poisson arrivals, with no KV tier,
 * spans or probes.
 */
class FleetLor final : public ClusterWorkload
{
  public:
    FleetLor(std::uint64_t seed, Size size) : ClusterWorkload(seed, size, 1)
    {
    }

    const char *workUnit() const override { return "simulated events"; }

    void run(std::size_t i, Layers &layers) override
    {
        {
            auto span = layers.span("cluster.simulate");
            _result = cluster::simulateCluster(_specs[i], _costs, nullptr,
                                               nullptr, &_stats);
        }
        {
            auto span = layers.span("json.write");
            _report = json::write(_result.toJson());
        }
        layers.count("json.bytes_written",
                     static_cast<double>(_report.size()));
        countRun(layers);
    }

    Verdict check(std::size_t i) override
    {
        Verdict verdict;
        verdict.work = static_cast<double>(_stats.events);
        checkRun(i, verdict);
        return verdict;
    }

  protected:
    const char *scenarioName() const override { return "datacenter"; }

    json::Object params() const override
    {
        bool tiny = _size == Size::Tiny;
        json::Object params;
        params.set("replicas", tiny ? 16.0 : 1024.0);
        params.set("sessions", static_cast<double>(1 << 20));
        params.set("horizon-sec", tiny ? 0.5 : 1.0);
        params.set("router", std::string("least-outstanding"));
        return params;
    }
};

/**
 * sessions_kv: the kv_offload scenario at 16 replicas (multi-turn
 * sessions, session-affinity routing, squeezed HBM, lru-by-session
 * offload), recording spans, exporting them as Chrome JSON, parsing
 * that back and attributing it — `skipctl run --span-out` followed by
 * `skipctl attribute`, in memory. Session traffic scales with the
 * fleet so each replica sees the scenario's default per-replica load.
 */
class SessionsKv final : public ClusterWorkload
{
  public:
    SessionsKv(std::uint64_t seed, Size size)
        : ClusterWorkload(seed, size, size == Size::Tiny ? 4 : 256)
    {
    }

    std::size_t goldenInputs() const override
    {
        return _size == Size::Tiny ? 2 : 8;
    }

    const char *workUnit() const override { return "completed requests"; }

    void run(std::size_t i, Layers &layers) override
    {
        auto spans = std::make_unique<obs::SpanLog>();
        {
            auto span = layers.span("cluster.simulate");
            _result = cluster::simulateCluster(_specs[i], _costs, nullptr,
                                               spans.get(), &_stats);
        }
        {
            auto span = layers.span("json.write");
            _report = json::write(_result.toJson());
        }
        json::Value doc;
        {
            auto span = layers.span("obs.span_export");
            doc = spans->toChromeJson();
        }
        std::string text;
        {
            auto span = layers.span("json.write");
            text = json::write(doc);
        }
        layers.count("obs.spans", static_cast<double>(spans->spans().size()));
        layers.count("json.bytes_written",
                     static_cast<double>(_report.size() + text.size()));
        layers.count("json.parse_bytes", static_cast<double>(text.size()));
        json::Value parsed;
        {
            auto span = layers.span("json.parse");
            parsed = json::parse(text);
        }
        {
            auto span = layers.span("obs.span_import");
            _file = obs::spansFromChromeJson(parsed);
        }
        {
            auto span = layers.span("obs.attribute");
            _attribution = obs::attributeSpans(_file.spans,
                                               metaMs("ttft_slo_ms"),
                                               metaMs("e2e_slo_ms"));
        }
        countRun(layers);
        const cluster::KvClusterStats &kv = _result.kv;
        layers.count("kv.offloads", static_cast<double>(kv.offloads));
        layers.count("kv.fetches", static_cast<double>(kv.fetches));
        double hits = static_cast<double>(kv.hitsHbm + kv.hitsHost);
        layers.count("kv.hits", hits);
        layers.count("kv.lookups", hits + static_cast<double>(kv.misses));
        layers.count("kv.link_busy_ns", kv.linkBusyNs);
        layers.count("kv.link_capacity_ns",
                     static_cast<double>(_specs[i].replicas.size()) *
                         _specs[i].horizonSec * 1e9);
    }

    Verdict check(std::size_t i) override
    {
        Verdict verdict;
        check::SpanCheckReport spans = check::checkSpans(_file.spans);
        for (const check::Violation &v : spans.violations)
            verdict.problems.push_back("checkSpans: " + v.code + ": " +
                                       v.message);
        if (_attribution.requests != _result.completed)
            verdict.problems.push_back(strprintf(
                "attribution covers %zu requests, %zu completed",
                _attribution.requests, _result.completed));
        verdict.digest = fnv1a(json::write(_attribution.toJson()));
        verdict.work = static_cast<double>(_result.completed);
        checkRun(i, verdict);
        _file = obs::SpanFile();
        return verdict;
    }

    void extras(Layers &layers) override
    {
        ClusterWorkload::extras(layers);
        // Span recording cost: the same simulation with and without a
        // SpanLog attached.
        for (int rep = 0; rep < 3; ++rep) {
            {
                auto span = layers.span("cluster.simulate_plain");
                cluster::simulateCluster(_specs.front(), _costs);
            }
            obs::SpanLog spans;
            auto span = layers.span("cluster.simulate_spans");
            cluster::simulateCluster(_specs.front(), _costs, nullptr,
                                     &spans);
        }
    }

  protected:
    const char *scenarioName() const override { return "kv_offload"; }

    json::Object params() const override
    {
        bool tiny = _size == Size::Tiny;
        double replicas = tiny ? 2.0 : 16.0;
        json::Object params;
        params.set("replicas", replicas);
        params.set("session-rate", 6.0 * replicas);
        params.set("sessions", 128.0 * replicas);
        params.set("hbm-gib", 0.42);
        params.set("horizon-sec", tiny ? 2.0 : 3.0);
        return params;
    }

  private:
    double metaMs(const char *key) const
    {
        auto it = _file.meta.find(key);
        return it == _file.meta.end() ? 1e300 : std::atof(it->second.c_str());
    }

    obs::SpanFile _file;
    obs::AttributionReport _attribution;
};

/**
 * kineto_ingest: SKIP on one large Kineto-shaped Chrome trace. Set-up
 * simulates consecutive decode steps (jitter seeded per step), lays
 * them end to end with timestamps and correlation ids offset, and
 * exports the result; the operation ingests that text and runs the
 * dependency graph and the metrics on it.
 */
class KinetoIngest final : public Workload
{
  public:
    KinetoIngest(std::uint64_t seed, Size size) : _seed(seed), _size(size) {}

    const char *workUnit() const override { return "trace events"; }

    void setup(Layers &layers) override
    {
        bool tiny = _size == Size::Tiny;
        workload::ModelConfig model =
            tiny ? workload::gpt2() : workload::llama32_1b();
        hw::Platform platform = hw::platforms::gh200();
        workload::BuildOptions opts;
        opts.batch = 8;
        int steps = tiny ? 2 : 4;

        trace::Trace merged;
        {
            auto span = layers.span("trace.synthesize");
            std::int64_t offset_ns = 0;
            std::uint64_t corr_offset = 0;
            for (int step = 0; step < steps; ++step) {
                sim::SimOptions sim_opts;
                sim_opts.seed = mixSeed(_seed, static_cast<std::uint64_t>(step));
                sim_opts.jitter = true;
                sim::SimResult result =
                    sim::Simulator(platform, sim_opts)
                        .run(workload::buildDecodeStepGraph(model, opts,
                                                            512 + step));
                std::uint64_t max_corr = 0;
                for (trace::TraceEvent event : result.trace.events()) {
                    max_corr = std::max(max_corr, event.correlationId);
                    event.tsBeginNs += offset_ns;
                    if (event.correlationId != 0)
                        event.correlationId += corr_offset;
                    merged.add(std::move(event));
                }
                offset_ns += result.trace.endNs() + 1000;
                corr_offset += max_corr;
            }
        }
        // Kineto lists events track by track, not in global time order:
        // CPU operators, then runtime calls, then each GPU stream. The
        // reader numbers events in file order and then sorts them by
        // time, so ids stop matching positions as on a real Kineto
        // file, and Trace::byId takes its linear fallback.
        merged.sortByTime();
        auto track = [](const trace::TraceEvent &event) {
            return std::make_pair(
                event.onGpu() ? 2 : event.kind == trace::EventKind::Runtime,
                event.onGpu() ? event.streamId : event.tid);
        };
        std::vector<trace::TraceEvent> events = merged.events();
        std::stable_sort(events.begin(), events.end(),
                         [&](const trace::TraceEvent &a,
                             const trace::TraceEvent &b) {
                             return track(a) < track(b);
                         });
        _trace = trace::Trace();
        _trace.setMeta("model", model.name);
        _trace.setMeta("platform", platform.name);
        for (trace::TraceEvent &event : events)
            _trace.add(std::move(event));
        auto span = layers.span("trace.export");
        _text = trace::toChromeText(_trace);
        _expected.clear();
    }

    std::size_t inputs() const override { return 1; }

    void run(std::size_t, Layers &layers) override
    {
        trace::Trace trace;
        {
            auto span = layers.span("trace.ingest");
            json::Value doc;
            {
                auto inner = layers.span("json.parse");
                doc = json::parse(_text);
            }
            trace = trace::fromChromeJson(doc);
        }
        layers.count("json.parse_bytes", static_cast<double>(_text.size()));
        layers.count("trace.events", static_cast<double>(trace.size()));
        layers.count("skip.depgraph_events",
                     static_cast<double>(trace.size()));
        _events = trace.size();
        std::optional<skip::DependencyGraph> graph;
        {
            auto span = layers.span("skip.depgraph");
            graph = skip::DependencyGraph::build(std::move(trace));
        }
        auto span = layers.span("skip.metrics");
        _metrics = skip::computeMetrics(*graph);
    }

    Verdict check(std::size_t) override
    {
        if (_expected.empty())
            _expected = json::write(
                skip::computeMetrics(skip::DependencyGraph::build(_trace))
                    .toJson());
        Verdict verdict;
        std::string got = json::write(_metrics.toJson());
        if (got != _expected)
            verdict.problems.push_back(
                "metrics of the re-ingested trace differ from the "
                "in-memory trace's");
        if (_events != _trace.size())
            verdict.problems.push_back(
                strprintf("ingested %zu events, exported %zu", _events,
                          _trace.size()));
        verdict.digest = fnv1a(got);
        verdict.work = static_cast<double>(_events);
        return verdict;
    }

  private:
    std::uint64_t _seed;
    Size _size;
    trace::Trace _trace;
    std::string _text;
    std::string _expected;
    std::size_t _events = 0;
    skip::MetricsReport _metrics;
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"paper_sweep", "fleet_lor", "sessions_kv", "kineto_ingest"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Size size)
{
    if (name == "paper_sweep")
        return std::make_unique<PaperSweep>(seed, size);
    if (name == "fleet_lor")
        return std::make_unique<FleetLor>(seed, size);
    if (name == "sessions_kv")
        return std::make_unique<SessionsKv>(seed, size);
    if (name == "kineto_ingest")
        return std::make_unique<KinetoIngest>(seed, size);
    return nullptr;
}

} // namespace skipbench

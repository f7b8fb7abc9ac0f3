/**
 * @file
 * skipctl — unified command-line front end over the library:
 *
 *   skipctl profile  [--model M] [--platform P] [--batch N] [--seq S]
 *                    [--mode MODE] [--trace out.json]
 *                    [--obs-out obs.json] [--obs-interval-ms MS]
 *   skipctl sweep    [--model M] [--platform P] [--seq S] [--csv]
 *   skipctl sweep    --spec grid.json [--jobs N] [--analysis NAME]
 *                    [--out report.json] [--full]
 *                    [--harness-trace harness.json]
 *   skipctl fusion   [--model M] [--platform P] [--batch N] [--seq S]
 *   skipctl serve    [--model M] [--platform P] [--rate RPS]
 *                    [--max-batch N] [--slo-ms MS]
 *                    [--obs-out obs.json] [--obs-trace obs_trace.json]
 *                    [--obs-interval-ms MS]
 *   skipctl cluster  --spec cluster.json [--jobs N]
 *                    [--out report.json]
 *                    [--obs-out obs.json] [--obs-trace obs_trace.json]
 *                    [--obs-interval-ms MS]
 *                    [--harness-trace harness.json]
 *   skipctl run      --scenario NAME [--spec params.json] [--quick]
 *                    [--jobs N] [--out report.json]
 *                    [--obs-out obs.json] [--obs-trace obs_trace.json]
 *                    [--obs-format json|openmetrics]
 *                    [--obs-interval-ms MS] [--span-out spans.json]
 *                    [--harness-trace harness.json]
 *   skipctl scenarios [--json]
 *   skipctl attribute <spans.json> [--json] [--ttft-slo-ms MS]
 *                    [--e2e-slo-ms MS]
 *   skipctl validate <trace.json>
 *   skipctl check    [--trace t.json | --props [--filter F]
 *                    | --fuzz N [--seed S] [--jobs J] [--quick]
 *                      [--repro-dir DIR]
 *                    | --replay repro.json]
 *   skipctl analyze  <trace.json> [--fusion]
 *   skipctl diff     <before.json> <after.json>
 *   skipctl roofline [--model M] [--platform P] [--batch N] [--seq S]
 *   skipctl memory   [--model M] [--seq S]
 *   skipctl platforms | models | analyses
 *
 * All subcommands accept --model-file / --platform-file JSON configs.
 * `sweep --spec` fans a JSON SweepSpec grid (models x platforms x
 * batches x seqLens x modes) across worker threads on the exec engine
 * and emits a JSON result report; --analysis picks any registered
 * analysis (see `skipctl analyses`). `cluster --spec` runs a
 * multi-replica cluster scenario (optionally a rate sweep, fanned
 * across --jobs workers) and reports SLO attainment and goodput —
 * the report is byte-identical at any --jobs count.
 *
 * Scenarios (docs/scenarios.md): `run --scenario NAME` builds a full
 * cluster run from the scenario registry — production-shaped traffic
 * models (mmpp-diurnal, chat-sessions, multi-tenant, steady-poisson),
 * the KV-tiering and disaggregation scenarios (kv_offload, disagg)
 * plus the raw `cluster` pass-through — parameterized by an optional
 * --spec JSON file; `scenarios` lists what is registered and
 * `scenarios --json` emits the same registry with accepted parameters
 * as machine-readable JSON. --quick
 * caps the horizon for CI smoke runs without changing the code path,
 * so quick reports stay byte-identical at any --jobs count too.
 *
 * Observability (docs/observability.md): --obs-out writes a
 * metrics/time-series JSON sampled at deterministic simulated-time
 * boundaries (--obs-interval-ms, byte-identical at any --jobs);
 * --obs-format openmetrics writes the final metrics registry as an
 * OpenMetrics/Prometheus text exposition instead. --obs-trace renders
 * the same probes as a Chrome trace with duration, counter and
 * instant events; --span-out records per-request lifecycle spans
 * (queue, routing, KV fetch, prefill, handoff, decode) as a Chrome
 * trace, and `attribute` aggregates such a span file into a
 * per-stage TTFT/e2e latency breakdown with SLO-violation
 * attribution. --harness-trace profiles the harness itself
 * (wall-clock, one track per worker). `validate` re-reads any
 * emitted Chrome trace through our own reader.
 *
 * Correctness (docs/testing.md): `check --trace` asserts the semantic
 * trace invariants (causality, stream FIFO, correlation bijection) on
 * any Chrome trace; `check --props` runs the metamorphic property
 * suite against the real engines; `check --fuzz N` runs the
 * deterministic fuzz campaign and, on failure, writes a shrunken
 * minimal repro that `check --replay` re-runs. Bare `check` runs the
 * property suite.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>

#include "analysis/boundedness.hh"
#include "analysis/sweep.hh"
#include "check/analysis.hh"
#include "check/fuzzer.hh"
#include "check/invariants.hh"
#include "check/properties.hh"
#include "check/span_check.hh"
#include "cluster/cluster.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "exec/pool.hh"
#include "exec/registry.hh"
#include "exec/runner.hh"
#include "exec/run_spec.hh"
#include "exec/sweep_spec.hh"
#include "fusion/recommend.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "hw/catalog.hh"
#include "hw/serde.hh"
#include "obs/attribution.hh"
#include "obs/collector.hh"
#include "obs/harness.hh"
#include "obs/openmetrics.hh"
#include "obs/span.hh"
#include "obs/trace_probe.hh"
#include "scenario/analysis.hh"
#include "scenario/registry.hh"
#include "serving/server_sim.hh"
#include "skip/diff.hh"
#include "skip/gaps.hh"
#include "skip/op_breakdown.hh"
#include "skip/profile.hh"
#include "trace/chrome.hh"
#include "trace/timeline.hh"
#include "workload/builder.hh"
#include "workload/memory.hh"
#include "workload/model_config.hh"
#include "workload/roofline.hh"
#include "workload/serde.hh"

using namespace skipsim;

namespace
{

workload::ModelConfig
pickModel(const CliArgs &args)
{
    if (args.has("model-file"))
        return workload::loadModel(args.getString("model-file"));
    return workload::modelByName(args.getString("model", "GPT2"));
}

hw::Platform
pickPlatform(const CliArgs &args)
{
    if (args.has("platform-file"))
        return hw::loadPlatform(args.getString("platform-file"));
    return hw::platforms::byName(args.getString("platform", "GH200"));
}

/**
 * Write one collector's final metrics registry as OpenMetrics text
 * (--obs-format openmetrics). The time-series samples have no
 * OpenMetrics shape; use the JSON format for those.
 */
void
writeOpenMetrics(const std::string &path, const obs::Collector &c)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("skipctl: cannot open '" + path + "' for writing");
    out << obs::toOpenMetrics(c.metrics());
    if (!out)
        fatal("skipctl: write to '" + path + "' failed");
}

/** The unified run description each subcommand dispatches on. */
exec::RunSpec
pickSpec(const CliArgs &args)
{
    return exec::RunSpec::of(pickModel(args))
        .on(pickPlatform(args))
        .batch(static_cast<int>(args.getInt("batch", 1)))
        .seqLen(static_cast<int>(args.getInt("seq", 512)))
        .mode(args.getString("mode", "eager"))
        .seed(args.getUint64("seed", 42));
}

int
cmdProfile(const CliArgs &args)
{
    exec::RunSpec spec = pickSpec(args);
    skip::ProfileResult result = skip::profile(spec.profileConfig());
    std::printf("%s on %s, batch=%d, seq=%d, %s\n\n",
                spec.model().name.c_str(), spec.platform().name.c_str(),
                spec.batch(), spec.seqLen(),
                workload::execModeName(spec.mode()));
    std::fputs(result.metrics.render().c_str(), stdout);

    skip::DependencyGraph dep =
        skip::DependencyGraph::build(result.trace);
    std::puts("");
    std::fputs(skip::computeOpBreakdown(dep).render(8).c_str(), stdout);
    std::puts("");
    std::fputs(skip::analyzeGaps(dep).render(5).c_str(), stdout);

    // Trace probes (trace.launch_queue_depth / gpu_busy / cpu_busy)
    // ride the op/kernel timescale, so the sampling interval defaults
    // much finer here than for the second-scale serving horizons.
    RunFlags flags =
        parseRunFlags(args, /*defaultJobs=*/1,
                      /*defaultObsIntervalMs=*/0.1);
    std::unique_ptr<obs::Collector> collector;
    if (!flags.obsOut.empty()) {
        collector =
            std::make_unique<obs::Collector>(flags.obsIntervalMs);
        obs::probeTrace(result.trace, *collector);
        if (flags.obsFormat == "openmetrics") {
            writeOpenMetrics(flags.obsOut, *collector);
            std::printf("\nobs metrics (openmetrics) written to %s\n",
                        flags.obsOut.c_str());
        } else {
            json::writeFile(flags.obsOut, collector->toJson());
            std::printf("\nobs report (%zu samples) written to %s\n",
                        collector->sampleCount(),
                        flags.obsOut.c_str());
        }
    }

    if (args.has("trace")) {
        // With probes enabled the exported trace carries the sampled
        // counter series too, so Perfetto shows them on the same
        // timeline as the op/kernel spans.
        if (collector != nullptr)
            collector->appendTo(result.trace);
        trace::writeChromeFile(args.getString("trace"), result.trace);
        std::printf("\ntrace written to %s\n",
                    args.getString("trace").c_str());
    }
    return 0;
}

/**
 * Grid mode: fan a JSON SweepSpec across worker threads and emit a
 * JSON report (skipctl sweep --spec grid.json --jobs N).
 */
int
cmdSweepGrid(const CliArgs &args)
{
    exec::SweepSpec grid = exec::SweepSpec::load(args.getString("spec"));
    RunFlags flags = parseRunFlags(args);
    exec::Runner runner(flags.jobs);
    std::string analysis = args.getString("analysis", "profile");

    std::unique_ptr<obs::HarnessTracer> tracer;
    if (!flags.harnessTrace.empty()) {
        tracer = std::make_unique<obs::HarnessTracer>();
        runner.setHarnessTracer(tracer.get());
    }

    exec::GridReport report = runner.runGrid(grid, analysis);

    if (tracer != nullptr) {
        tracer->write(flags.harnessTrace);
        std::printf("harness trace (%zu spans) -> %s\n",
                    tracer->spanCount(), flags.harnessTrace.c_str());
    }
    // --full includes host wall-clock timings; the default report is
    // deterministic (byte-identical at any --jobs count).
    json::Value doc = args.has("full") ? report.toJson()
                                       : report.resultsJson();
    if (flags.wantOut()) {
        json::writeFile(flags.out, doc);
        std::printf("%zu/%zu points ok (%s, %d jobs, %.0f ms) -> %s\n",
                    report.points.size() - report.failed(),
                    report.points.size(), analysis.c_str(),
                    report.jobs, report.wallMs, flags.out.c_str());
    } else {
        std::puts(json::writePretty(doc).c_str());
    }
    return report.failed() == 0 ? 0 : 1;
}

int
cmdSweep(const CliArgs &args)
{
    if (args.has("spec"))
        return cmdSweepGrid(args);

    workload::ModelConfig model = pickModel(args);
    hw::Platform platform = pickPlatform(args);
    int seq = static_cast<int>(args.getInt("seq", 512));

    analysis::SweepResult sweep = analysis::runBatchSweep(
        model, platform, analysis::defaultBatchGrid(), seq);
    analysis::BoundednessResult bound =
        analysis::classifyBoundedness(sweep);

    TextTable table(model.name + " on " + platform.name);
    table.setHeader({"Batch", "TTFT (ms)", "TKLQT (ms)", "queue (ms)",
                     "Region"});
    for (const auto &point : sweep.points) {
        table.addRow({std::to_string(point.batch),
                      strprintf("%.2f", point.metrics.ilNs / 1e6),
                      strprintf("%.3f", point.metrics.tklqtNs / 1e6),
                      strprintf("%.3f",
                                point.metrics.tklqtQueueNs / 1e6),
                      analysis::boundednessName(
                          bound.classify(point.batch))});
    }
    std::fputs(parseRunFlags(args).csv ? table.renderCsv().c_str()
                                       : table.render().c_str(),
               stdout);
    return 0;
}

int
cmdFusion(const CliArgs &args)
{
    exec::RunSpec spec = pickSpec(args);
    skip::ProfileResult run = skip::profile(spec.profileConfig());
    std::fputs(fusion::recommendFromTrace(run.trace).render().c_str(),
               stdout);
    return 0;
}

int
cmdServe(const CliArgs &args)
{
    exec::RunSpec spec =
        pickSpec(args)
            .opt("rate", args.getDouble("rate", 50.0))
            .opt("max-batch",
                 static_cast<double>(args.getInt("max-batch", 32)))
            .opt("max-wait-ms", args.getDouble("max-wait-ms", 5.0));

    serving::LatencyModel latency(analysis::runBatchSweep(
        spec.model(), spec.platform(), analysis::defaultBatchGrid(),
        spec.seqLen(), spec.mode(), spec.simOptions()));
    serving::ServingConfig config = spec.servingConfig();
    RunFlags flags = parseRunFlags(args);
    std::unique_ptr<obs::Collector> collector;
    if (flags.wantObs())
        collector =
            std::make_unique<obs::Collector>(flags.obsIntervalMs);
    serving::ServingResult result =
        serving::simulateServing(latency, config, collector.get());

    double slo_ms = args.getDouble("slo-ms", 200.0);
    std::printf("serving %s on %s at %.0f rps (max batch %d):\n",
                spec.model().name.c_str(), spec.platform().name.c_str(),
                config.arrivalRatePerSec, config.maxBatch);
    std::printf("  completed %zu (%.1f rps), mean batch %.1f, "
                "utilization %.0f%%\n",
                result.completed, result.throughputRps,
                result.meanBatch, 100.0 * result.utilization);
    std::printf("  latency p50/p95/p99: %.1f / %.1f / %.1f ms -> "
                "SLO %.0f ms %s\n",
                result.p50LatencyNs / 1e6, result.p95LatencyNs / 1e6,
                result.p99LatencyNs / 1e6, slo_ms,
                result.p99LatencyNs / 1e6 <= slo_ms ? "met" : "MISSED");
    if (result.leftInQueue > 0)
        std::printf("  warning: %zu requests still queued (overload)\n",
                    result.leftInQueue);
    if (!flags.obsOut.empty() && flags.obsFormat == "openmetrics") {
        writeOpenMetrics(flags.obsOut, *collector);
        std::printf("  obs metrics (openmetrics) -> %s\n",
                    flags.obsOut.c_str());
    } else if (!flags.obsOut.empty()) {
        json::writeFile(flags.obsOut, collector->toJson());
        std::printf("  obs report (%zu samples) -> %s\n",
                    collector->sampleCount(), flags.obsOut.c_str());
    }
    if (!flags.obsTrace.empty()) {
        trace::writeChromeFile(flags.obsTrace, collector->toTrace());
        std::printf("  obs trace -> %s\n", flags.obsTrace.c_str());
    }
    return 0;
}

/**
 * Shared cluster-run pipeline: expand the spec's scenarios across
 * --jobs workers over one shared cost cache, render the tables and
 * write the requested report/obs/trace outputs. Every cluster-shaped
 * entry point — `skipctl cluster`, `skipctl run --scenario NAME` —
 * ends here, so their outputs share one determinism contract
 * (byte-identical at any jobs count).
 */
int
runClusterSpec(const cluster::ClusterSpec &spec, const RunFlags &flags)
{
    // The cost models simulate a batch grid per distinct platform —
    // the expensive part — so build them once, serially, and share
    // them read-only across scenario workers.
    cluster::CostCache costs;
    costs.build(spec);

    std::size_t scenarios = spec.scenarioCount();
    std::vector<cluster::ClusterResult> results(scenarios);

    // One collector per scenario; assembled in scenario-index order,
    // so the obs export inherits the report's determinism contract.
    std::vector<std::unique_ptr<obs::Collector>> collectors(scenarios);
    if (flags.wantObs()) {
        for (std::size_t i = 0; i < scenarios; ++i)
            collectors[i] =
                std::make_unique<obs::Collector>(flags.obsIntervalMs);
    }

    // One span log per scenario, like the collectors: each scenario
    // is simulated single-threaded, so its spans seal in event order
    // and the export stays byte-identical at any --jobs count.
    std::vector<std::unique_ptr<obs::SpanLog>> span_logs(scenarios);
    if (!flags.spanOut.empty()) {
        for (std::size_t i = 0; i < scenarios; ++i)
            span_logs[i] = std::make_unique<obs::SpanLog>();
    }

    std::unique_ptr<obs::HarnessTracer> tracer;
    if (!flags.harnessTrace.empty())
        tracer = std::make_unique<obs::HarnessTracer>();

    exec::Pool pool(flags.jobs);
    pool.run(scenarios, [&](std::size_t i) {
        std::unique_ptr<obs::HarnessTracer::Scope> span;
        if (tracer != nullptr)
            span = std::make_unique<obs::HarnessTracer::Scope>(
                *tracer, strprintf("scenario %zu", i));
        results[i] = cluster::simulateCluster(spec.scenarioAt(i), costs,
                                              collectors[i].get(),
                                              span_logs[i].get());
    });

    TextTable table(strprintf("%s x %zu replicas (%s router)",
                              spec.model.name.c_str(),
                              spec.replicas.size(),
                              cluster::routerPolicyName(spec.router)));
    table.setHeader({"Rate", "Offered", "Done", "Tput", "TTFT p50",
                     "TTFT p99", "e2e p99", "SLO %", "Goodput"});
    for (const cluster::ClusterResult &result : results)
        table.addRow({strprintf("%.0f", result.arrivalRatePerSec),
                      std::to_string(result.offered),
                      std::to_string(result.completed),
                      strprintf("%.1f", result.throughputRps),
                      strprintf("%.1f ms", result.p50TtftNs / 1e6),
                      strprintf("%.1f ms", result.p99TtftNs / 1e6),
                      strprintf("%.1f ms", result.p99E2eNs / 1e6),
                      strprintf("%.1f", 100.0 * result.sloAttainment),
                      strprintf("%.1f", result.goodputRps)});
    std::fputs(flags.csv ? table.renderCsv().c_str()
                         : table.render().c_str(),
               stdout);

    if (scenarios == 1) {
        std::puts("");
        TextTable fleet("per-replica");
        fleet.setHeader({"#", "Platform", "Routed", "Done", "Rejected",
                         "Rerouted", "Util %", "Mean act", "Peak KV"});
        const cluster::ClusterResult &result = results.front();
        for (std::size_t i = 0; i < result.replicas.size(); ++i) {
            const cluster::ReplicaStats &rep = result.replicas[i];
            fleet.addRow(
                {std::to_string(i) + (rep.crashed ? "!" : ""),
                 rep.platformName, std::to_string(rep.routed),
                 std::to_string(rep.completed),
                 std::to_string(rep.rejected),
                 std::to_string(rep.rerouted),
                 strprintf("%.0f", 100.0 * rep.utilization),
                 strprintf("%.1f", rep.meanActive),
                 formatBytes(
                     static_cast<std::size_t>(rep.peakKvBytes))});
        }
        std::fputs(fleet.render().c_str(), stdout);

        if (!result.tenants.empty()) {
            std::puts("");
            TextTable tiers("per-tenant");
            tiers.setHeader({"Tenant", "Offered", "Done", "SLO %",
                             "Goodput", "TTFT p99", "e2e p99"});
            for (const cluster::TenantStats &tier : result.tenants)
                tiers.addRow(
                    {tier.name, std::to_string(tier.offered),
                     std::to_string(tier.completed),
                     strprintf("%.1f", 100.0 * tier.sloAttainment),
                     strprintf("%.1f", tier.goodputRps),
                     strprintf("%.1f ms", tier.p99TtftNs / 1e6),
                     strprintf("%.1f ms", tier.p99E2eNs / 1e6)});
            std::fputs(tiers.render().c_str(), stdout);
        }
    }

    if (flags.wantOut()) {
        json::Object doc;
        doc.set("spec", spec.toJson());
        json::Value::Array scenario_docs;
        for (const cluster::ClusterResult &result : results)
            scenario_docs.push_back(result.toJson());
        doc.set("scenarios", json::Value(std::move(scenario_docs)));
        json::writeFile(flags.out, json::Value(doc));
        std::printf("%zu scenario(s) -> %s\n", scenarios,
                    flags.out.c_str());
    }

    if (!flags.obsOut.empty() && flags.obsFormat == "openmetrics") {
        // OpenMetrics is a flat text exposition of the final registry
        // state; the per-scenario time series has no shape there.
        if (scenarios > 1)
            warnOnce("cluster-obs-openmetrics-multi",
                     "--obs-format openmetrics exposes scenario 0 "
                     "only; use --obs-format json for the full sweep");
        writeOpenMetrics(flags.obsOut, *collectors.front());
        std::printf("obs metrics (openmetrics) -> %s\n",
                    flags.obsOut.c_str());
    } else if (!flags.obsOut.empty()) {
        json::Object doc;
        doc.set("interval_ms", flags.obsIntervalMs);
        json::Value::Array scenario_docs;
        for (std::size_t i = 0; i < scenarios; ++i) {
            json::Object entry;
            entry.set("rate", results[i].arrivalRatePerSec);
            entry.set("obs", collectors[i]->toJson());
            scenario_docs.push_back(json::Value(std::move(entry)));
        }
        doc.set("scenarios", json::Value(std::move(scenario_docs)));
        json::writeFile(flags.obsOut, json::Value(doc));
        std::printf("obs report -> %s\n", flags.obsOut.c_str());
    }
    if (!flags.obsTrace.empty()) {
        if (scenarios > 1)
            warnOnce("cluster-obs-trace-multi",
                     "--obs-trace renders scenario 0 only; use "
                     "--obs-out for the full sweep");
        trace::writeChromeFile(flags.obsTrace,
                               collectors.front()->toTrace());
        std::printf("obs trace -> %s\n", flags.obsTrace.c_str());
    }
    if (!flags.spanOut.empty()) {
        if (scenarios > 1)
            warnOnce("cluster-span-out-multi",
                     "--span-out writes scenario 0 only; run one "
                     "scenario per span trace");
        span_logs.front()->writeChromeFile(flags.spanOut);
        std::printf("span trace (%zu requests, %zu spans) -> %s\n",
                    span_logs.front()->requestCount(),
                    span_logs.front()->spans().size(),
                    flags.spanOut.c_str());
    }
    if (tracer != nullptr) {
        tracer->write(flags.harnessTrace);
        std::printf("harness trace (%zu spans) -> %s\n",
                    tracer->spanCount(), flags.harnessTrace.c_str());
    }
    return 0;
}

/**
 * Multi-replica cluster scenario (skipctl cluster --spec cluster.json
 * [--jobs N] [--out report.json]). The spec file routes through the
 * scenario registry's raw "cluster" pass-through, so this subcommand
 * is sugar for `skipctl run --scenario cluster --spec cluster.json`.
 * A spec with a "rates" axis expands to one scenario per rate, fanned
 * across --jobs workers; results are assembled in scenario order, so
 * the report is byte-identical at any jobs count.
 */
int
cmdCluster(const CliArgs &args)
{
    if (!args.has("spec")) {
        std::fprintf(stderr,
                     "usage: skipctl cluster --spec cluster.json "
                     "[--jobs N] [--out report.json] "
                     "[--obs-out obs.json] [--obs-trace trace.json] "
                     "[--obs-interval-ms MS] "
                     "[--harness-trace harness.json]\n");
        return 2;
    }
    cluster::ClusterSpec spec = scenario::buildScenario(
        "cluster",
        json::parseFile(args.getString("spec")).asObject());
    return runClusterSpec(spec, parseRunFlags(args));
}

/**
 * Registry-driven run (skipctl run --scenario NAME [--spec s.json]).
 * The scenario builder constructs the whole cluster run — workload,
 * arrival process, platform config — from the parameter file; the
 * shared pipeline above executes it. --quick caps the horizon (CI
 * smoke), applied before seeding workers so quick reports keep the
 * byte-identical-at-any-jobs contract.
 */
int
cmdRun(const CliArgs &args)
{
    if (!args.has("scenario")) {
        std::fprintf(stderr,
                     "usage: skipctl run --scenario NAME "
                     "[--spec params.json] [--quick] [--jobs N] "
                     "[--out report.json] [--obs-out obs.json] "
                     "[--obs-trace trace.json] [--obs-interval-ms MS] "
                     "[--obs-format json|openmetrics] "
                     "[--span-out spans.json] "
                     "[--harness-trace harness.json]\n"
                     "scenarios: %s\n",
                     join(scenario::scenarioNames(), ", ").c_str());
        return 2;
    }
    json::Object params;
    if (args.has("spec"))
        params = json::parseFile(args.getString("spec")).asObject();
    RunFlags flags = parseRunFlags(args);
    cluster::ClusterSpec spec = scenario::buildScenario(
        args.getString("scenario"), params);
    if (flags.quick)
        spec.horizonSec = std::min(spec.horizonSec, 2.0);
    std::printf("scenario %s: %s\n",
                args.getString("scenario").c_str(),
                scenario::scenarioByName(args.getString("scenario"))
                    .description.c_str());
    return runClusterSpec(spec, flags);
}

/**
 * List registered scenarios (skipctl scenarios [--json]). --json emits
 * the machine-readable registry — name, description and accepted
 * parameters per scenario — for tooling.
 */
int
cmdScenarios(const CliArgs &args)
{
    if (args.has("json")) {
        std::puts(json::writePretty(scenario::scenarioListToJson())
                      .c_str());
        return 0;
    }
    for (const scenario::Scenario &entry : scenario::scenarioList())
        std::printf("%-16s %s\n", entry.name.c_str(),
                    entry.description.c_str());
    return 0;
}

/**
 * Latency attribution over an exported span trace (skipctl attribute
 * <spans.json> [--json] [--ttft-slo-ms MS] [--e2e-slo-ms MS]).
 * Re-checks the stage-partition invariant before attributing — a
 * broken partition would silently misattribute time — and judges the
 * SLO-violation table against the thresholds the run embedded in
 * skipsimMeta unless overridden on the command line.
 */
int
cmdAttribute(const CliArgs &args)
{
    if (args.positional().size() < 2) {
        std::fprintf(stderr,
                     "usage: skipctl attribute <spans.json> [--json] "
                     "[--ttft-slo-ms MS] [--e2e-slo-ms MS]\n");
        return 2;
    }
    const std::string &path = args.positional()[1];
    obs::SpanFile file = obs::readSpanFile(path);

    check::SpanCheckReport report = check::checkSpans(file.spans);
    if (!report.ok()) {
        std::fprintf(stderr, "skipctl attribute: %s violates the "
                             "span invariants:\n",
                     path.c_str());
        std::fputs(report.render().c_str(), stderr);
        return 1;
    }

    auto meta_ms = [&file](const char *key) {
        auto it = file.meta.find(key);
        return it == file.meta.end()
            ? std::numeric_limits<double>::infinity()
            : std::atof(it->second.c_str());
    };
    obs::AttributionReport attribution = obs::attributeSpans(
        file.spans,
        args.getDouble("ttft-slo-ms", meta_ms("ttft_slo_ms")),
        args.getDouble("e2e-slo-ms", meta_ms("e2e_slo_ms")));

    if (args.has("json")) {
        std::puts(json::writePretty(attribution.toJson()).c_str());
        return 0;
    }
    std::printf("%s: %zu spans across %zu completed requests\n\n",
                path.c_str(), file.spans.size(), attribution.requests);
    std::fputs(attribution.render().c_str(), stdout);
    return 0;
}

/**
 * Round-trip check: re-read an emitted Chrome trace through our own
 * reader and report what survived (skipctl validate <trace.json>).
 * Exits non-zero when the file cannot be parsed or contains nothing.
 */
int
cmdValidate(const CliArgs &args)
{
    if (args.positional().size() < 2) {
        std::fprintf(stderr, "usage: skipctl validate <trace.json>\n");
        return 2;
    }
    const std::string &path = args.positional()[1];
    trace::Trace loaded = trace::readChromeFile(path);
    std::printf("%s: %zu events, %zu counters, %zu instants\n",
                path.c_str(), loaded.events().size(),
                loaded.counters().size(), loaded.instants().size());
    if (loaded.events().empty() && loaded.counters().empty() &&
        loaded.instants().empty()) {
        std::fprintf(stderr,
                     "skipctl validate: %s parsed but holds no "
                     "events\n",
                     path.c_str());
        return 1;
    }
    return 0;
}

/**
 * Correctness front end (skipctl check). Four modes:
 *  --trace t.json   semantic invariant check of one Chrome trace;
 *  --props          metamorphic property suite (the default mode);
 *  --fuzz N         deterministic fuzz campaign, shrunken repro on
 *                   failure (--seed, --jobs, --quick, --repro-dir);
 *  --replay r.json  re-run a written repro case.
 * Exit code 0 only when every requested check passed.
 */
int
cmdCheck(const CliArgs &args)
{
    if (args.has("trace")) {
        const std::string path = args.getString("trace");
        check::TraceCheckReport report =
            check::validateTrace(trace::readChromeFile(path));
        std::printf("%s\n", path.c_str());
        std::fputs(report.render().c_str(), stdout);
        return report.ok() ? 0 : 1;
    }

    if (args.has("replay")) {
        const std::string path = args.getString("replay");
        check::FuzzCase repro =
            check::FuzzCase::fromJson(json::parseFile(path));
        check::Fuzzer fuzzer;
        std::vector<std::string> problems = fuzzer.runCase(repro);
        std::printf("replay %s (%s case, seed %llu): %s\n",
                    path.c_str(), check::fuzzKindName(repro.kind),
                    static_cast<unsigned long long>(repro.seed),
                    problems.empty() ? "OK" : "FAIL");
        for (const std::string &problem : problems)
            std::printf("  %s\n", problem.c_str());
        return problems.empty() ? 0 : 1;
    }

    if (args.has("fuzz")) {
        // The fuzzer's historical default seed is 1, not RunFlags' 42;
        // campaigns recorded in CI scripts depend on it.
        check::FuzzOptions opts;
        opts.cases =
            static_cast<std::size_t>(args.getInt("fuzz", 100));
        opts.seed = args.getUint64("seed", 1);
        RunFlags flags = parseRunFlags(args);
        opts.jobs = flags.jobs;
        opts.quick = flags.quick;
        opts.reproDir = args.getString("repro-dir", ".");
        check::FuzzReport report = check::Fuzzer(opts).run();
        std::fputs(report.render().c_str(), stdout);
        return report.ok() ? 0 : 1;
    }

    std::vector<check::PropertyResult> results =
        check::runProperties(args.getString("filter", ""));
    std::fputs(check::renderProperties(results).c_str(), stdout);
    for (const check::PropertyResult &result : results) {
        if (!result.passed)
            return 1;
    }
    return results.empty() ? 1 : 0;
}

int
cmdAnalyze(const CliArgs &args)
{
    if (args.positional().size() < 2) {
        std::fprintf(stderr, "usage: skipctl analyze <trace.json>\n");
        return 2;
    }
    trace::Trace loaded =
        trace::readChromeFile(args.positional()[1]);
    skip::DependencyGraph dep =
        skip::DependencyGraph::build(std::move(loaded));
    std::fputs(skip::computeMetrics(dep).render().c_str(), stdout);
    std::puts("");
    trace::TimelineOptions opts;
    opts.width = 92;
    std::fputs(trace::renderTimeline(dep.trace(), opts).c_str(),
               stdout);
    if (args.has("fusion")) {
        std::puts("");
        std::fputs(
            fusion::recommendFromTrace(dep.trace()).render().c_str(),
            stdout);
    }
    return 0;
}

int
cmdDiff(const CliArgs &args)
{
    if (args.positional().size() < 3) {
        std::fprintf(stderr,
                     "usage: skipctl diff <before.json> <after.json>\n");
        return 2;
    }
    auto metrics_of = [](const std::string &path) {
        return skip::computeMetrics(skip::DependencyGraph::build(
            trace::readChromeFile(path)));
    };
    skip::RunDiff diff = skip::diffRuns(
        metrics_of(args.positional()[1]),
        metrics_of(args.positional()[2]));
    std::fputs(diff.render().c_str(), stdout);
    return 0;
}

int
cmdRoofline(const CliArgs &args)
{
    workload::ModelConfig model = pickModel(args);
    hw::Platform platform = pickPlatform(args);
    workload::BuildOptions opts;
    opts.batch = static_cast<int>(args.getInt("batch", 1));
    opts.seqLen = static_cast<int>(args.getInt("seq", 512));
    workload::OperatorGraph graph =
        workload::buildPrefillGraph(model, opts);
    workload::RooflineReport report =
        workload::rooflineReport(graph, platform.gpu);
    std::printf("%s on %s, batch=%d, seq=%d\n", model.name.c_str(),
                platform.gpu.name.c_str(), opts.batch, opts.seqLen);
    std::fputs(report.render().c_str(), stdout);
    return 0;
}

int
cmdMemory(const CliArgs &args)
{
    workload::ModelConfig model = pickModel(args);
    int seq = static_cast<int>(args.getInt("seq", 512));
    TextTable table(model.name + " device-memory footprint");
    table.setHeader({"Batch", "Weights", "KV cache", "Activations",
                     "Total"});
    for (int batch : {1, 8, 32, 128}) {
        workload::MemoryFootprint fp =
            workload::estimateMemory(model, batch, seq);
        table.addRow({std::to_string(batch),
                      formatBytes(fp.weightsBytes),
                      formatBytes(fp.kvCacheBytes),
                      formatBytes(fp.activationBytes),
                      formatBytes(fp.totalBytes())});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nKV-resident sequences per platform:");
    for (const auto &platform : hw::platforms::all()) {
        std::printf("  %-12s %d\n", platform.name.c_str(),
                    workload::maxResidentSequences(
                        model, seq, platform.gpu.hbmBytes()));
    }
    return 0;
}

int
cmdList(bool platforms)
{
    if (platforms) {
        for (const auto &p : hw::platforms::all())
            std::printf("%-12s %s  CPU: %s  GPU: %s\n", p.name.c_str(),
                        hw::couplingName(p.coupling), p.cpu.name.c_str(),
                        p.gpu.name.c_str());
    } else {
        for (const auto &m : workload::allModels())
            std::printf("%-18s %-13s %4d layers  %5.0fM params\n",
                        m.name.c_str(), workload::familyName(m.family),
                        m.layers, m.paramsM());
    }
    return 0;
}

int
cmdAnalyses()
{
    for (const auto &name : exec::analysisNames())
        std::printf("%s\n", name.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "usage: skipctl "
                     "<profile|sweep|fusion|serve|cluster|run|"
                     "scenarios|attribute|validate|check|analyze|diff|"
                     "roofline|memory|platforms|models|analyses> "
                     "[options]\n");
        return 2;
    }
    const std::string &cmd = args.positional().front();
    // check and scenario depend on the engines, so their analyses
    // register here rather than as exec built-ins (see
    // check/analysis.hh, scenario/analysis.hh).
    check::registerCheckAnalysis();
    scenario::registerScenarioAnalysis();
    try {
        if (cmd == "profile")
            return cmdProfile(args);
        if (cmd == "sweep")
            return cmdSweep(args);
        if (cmd == "fusion")
            return cmdFusion(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "cluster")
            return cmdCluster(args);
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "scenarios")
            return cmdScenarios(args);
        if (cmd == "attribute")
            return cmdAttribute(args);
        if (cmd == "validate")
            return cmdValidate(args);
        if (cmd == "check")
            return cmdCheck(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "diff")
            return cmdDiff(args);
        if (cmd == "roofline")
            return cmdRoofline(args);
        if (cmd == "memory")
            return cmdMemory(args);
        if (cmd == "platforms")
            return cmdList(true);
        if (cmd == "models")
            return cmdList(false);
        if (cmd == "analyses")
            return cmdAnalyses();
        std::fprintf(stderr, "skipctl: unknown command '%s'\n",
                     cmd.c_str());
        return 2;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "skipctl: %s\n", err.what());
        return 1;
    }
}

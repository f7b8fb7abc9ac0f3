/**
 * @file
 * Fleet-scale cluster benchmark: one "datacenter" scenario run (1024
 * replicas, a 2^20 session-id pool, an explicit router-to-replica
 * dispatch hop) on the single event engine, reporting simulated
 * events/sec alongside the run's tail latency and goodput.
 *
 * Usage: ext_datacenter [--replicas N] [--seed S] [--quick] [--csv]
 *                       [--out report.json]
 *
 * --quick shrinks the horizon and per-replica rate for CI smoke runs
 * but keeps the full 1024-replica fleet, so the router's min-tree and
 * the event heap still see fleet-scale depth. --out writes the row as
 * JSON (the CI artifact BENCH_datacenter.json). Events/sec are host
 * timings of this machine only; compare them across commits on the
 * same machine, never against a figure recorded elsewhere.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "cluster/cluster.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "core/sharded_engine.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "scenario/registry.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    RunFlags flags = parseRunFlags(args);
    long replicas = args.getInt("replicas", 1024);
    if (replicas < 1)
        fatal("option --replicas expects a positive fleet size");
    double horizon = flags.quick ? 1.0 : 40.0;
    double rate_per_replica = flags.quick ? 8.0 : 30.0;

    json::Object params;
    params.set("replicas", static_cast<double>(replicas));
    params.set("sessions", static_cast<double>(1 << 20));
    params.set("horizon-sec", horizon);
    params.set("rate-per-replica", rate_per_replica);
    params.set("gen-tokens", 8.0);
    params.set("seed", static_cast<double>(flags.seed));
    cluster::ClusterSpec spec =
        scenario::buildScenario("datacenter", params);

    cluster::CostCache costs;
    costs.build(spec);

    core::ShardStats stats;
    auto start = std::chrono::steady_clock::now();
    cluster::ClusterResult result =
        cluster::simulateCluster(spec, costs, nullptr, nullptr, &stats);
    auto end = std::chrono::steady_clock::now();
    double wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    double events_per_sec = wall_ms > 0.0
        ? static_cast<double>(stats.events) / (wall_ms / 1e3)
        : 0.0;
    std::string report = json::write(result.toJson());

    TextTable table(strprintf(
        "Datacenter run: %s x%zu replicas, %.0f rps, horizon %.1fs "
        "(seed %llu)",
        spec.model.name.c_str(), spec.replicas.size(),
        spec.arrivalRatePerSec, horizon,
        static_cast<unsigned long long>(flags.seed)));
    table.setHeader({"Events", "Wall (ms)", "Sim events/s",
                     "TTFT p99 (ms)", "Goodput (rps)"});
    table.addRow({std::to_string(stats.events),
                  strprintf("%.1f", wall_ms),
                  strprintf("%.0f", events_per_sec),
                  strprintf("%.1f", result.p99TtftNs / 1e6),
                  strprintf("%.1f", result.goodputRps)});
    std::fputs(flags.csv ? table.renderCsv().c_str()
                         : table.render().c_str(),
               stdout);

    if (flags.wantOut()) {
        json::Object doc;
        doc.set("replicas", static_cast<double>(replicas));
        doc.set("sessions", static_cast<double>(1 << 20));
        doc.set("horizon-sec", horizon);
        doc.set("rate-per-replica", rate_per_replica);
        doc.set("seed", static_cast<double>(flags.seed));
        doc.set("events", static_cast<double>(stats.events));
        doc.set("wall-ms", wall_ms);
        doc.set("simulated-events-per-sec", events_per_sec);
        doc.set("report-bytes", static_cast<double>(report.size()));
        doc.set("offered", static_cast<double>(result.offered));
        doc.set("completed", static_cast<double>(result.completed));
        doc.set("p99-ttft-ms", result.p99TtftNs / 1e6);
        doc.set("goodput-rps", result.goodputRps);
        json::writeFile(flags.out, json::Value(std::move(doc)));
    }
    return 0;
}

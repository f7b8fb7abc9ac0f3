/**
 * @file
 * Gate benchmark for the sharded cluster engine: one fleet-scale
 * "datacenter" scenario run (1024 replicas, a 2^20 session-id pool,
 * an explicit router-to-replica dispatch hop) executed over a grid of
 * execution topologies — shard counts 1/2/4 single-threaded, the
 * largest shard count with threaded shard execution, and both event
 * queue backends (binary heap and calendar queue). Each row reports
 * the sharded engine's synchronization counters and simulated
 * events/sec, and the report JSON is byte-compared across every row —
 * the bench fails if any topology changes a single byte, so it
 * doubles as the at-scale determinism gate for the windowed-sync
 * protocol, the threaded window execution and the queue backends.
 *
 * Usage: ext_datacenter [--replicas N] [--shards LIST]
 *                       [--shard-threads N] [--queue heap|calendar]
 *                       [--seed S] [--quick] [--csv]
 *                       [--out report.json]
 *
 * --quick shrinks the horizon and per-replica rate for CI smoke runs
 * but keeps the full 1024-replica fleet — the shard partitioning and
 * cross-shard mailbox traffic it exists to exercise do not shrink.
 * --shard-threads pins the worker count of the threaded rows (default:
 * min(4, hardware threads, shards), but at least 2 so the threaded
 * path is exercised even on a single-core CI box — oversubscription
 * is harmless to the identity gate, which is the point of the row).
 * --queue restricts the whole grid to one backend. --out writes the
 * rows as JSON (the CI artifact BENCH_datacenter.json). Events/sec are
 * host timings of this machine only; compare them across commits on
 * the same machine, never against a figure recorded elsewhere.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hh"
#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "core/any_queue.hh"
#include "core/sharded_engine.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "scenario/registry.hh"

using namespace skipsim;

namespace
{

struct Config
{
    int shards = 1;
    int threads = 1;
    const char *queue = "heap";
};

struct Row
{
    Config config;
    core::ShardStats stats;
    double wallMs = 0.0;
    double eventsPerSec = 0.0;
    cluster::ClusterResult result;
    std::string reportJson;
};

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    RunFlags flags = parseRunFlags(args);
    long replicas = args.getInt("replicas", 1024);
    if (replicas < 1)
        fatal("option --replicas expects a positive fleet size");
    std::vector<long> shard_axis =
        args.getIntList("shards", {1, 2, 4});
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

    long max_shards = 1;
    for (long shards : shard_axis) {
        if (shards < 1 ||
            static_cast<std::size_t>(shards) > spec.replicas.size())
            fatal(strprintf("option --shards entry %ld out of range "
                            "for the fleet's %zu replica(s)",
                            shards, spec.replicas.size()));
        max_shards = std::max(max_shards, shards);
    }

    // Worker count for the threaded rows. The identity gate wants the
    // parallel window path exercised even on a one-core CI box, so
    // the floor is 2 workers (oversubscribed threads cost wall clock,
    // never bytes); --shard-threads overrides, already validated
    // against the machine by parseRunFlags.
    unsigned hw = std::thread::hardware_concurrency();
    int threaded = flags.shardThreads > 0
        ? flags.shardThreads
        : std::max(2, std::min({4, static_cast<int>(hw == 0 ? 1 : hw),
                                static_cast<int>(max_shards)}));

    // The grid: the single-threaded heap axis, then
    // a threaded rider on the largest shard count, then the calendar
    // backend sequentially and threaded. --queue collapses the
    // backend axis to the requested one.
    std::vector<Config> grid;
    const char *base_queue =
        flags.queue == "calendar" ? "calendar" : "heap";
    for (long shards : shard_axis)
        grid.push_back({static_cast<int>(shards), 1, base_queue});
    if (max_shards > 1)
        grid.push_back(
            {static_cast<int>(max_shards), threaded, base_queue});
    if (flags.queue.empty()) {
        grid.push_back({1, 1, "calendar"});
        if (max_shards > 1)
            grid.push_back(
                {static_cast<int>(max_shards), threaded, "calendar"});
    }

    // One cost cache for every row: the execution topology changes
    // how the event loop runs, never what it computes.
    cluster::CostCache costs;
    costs.build(spec);

    // Rows run serially — each one is wall-clock timed.
    std::vector<Row> rows;
    for (const Config &config : grid) {
        Row row;
        row.config = config;
        cluster::ClusterSpec shard_spec = spec;
        shard_spec.shards = config.shards;
        shard_spec.shardThreads = config.threads;
        core::setDefaultQueueKind(
            core::queueKindFromName(config.queue));
        auto start = std::chrono::steady_clock::now();
        row.result = cluster::simulateCluster(shard_spec, costs,
                                              nullptr, nullptr,
                                              &row.stats);
        auto end = std::chrono::steady_clock::now();
        row.wallMs =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        row.eventsPerSec = row.wallMs > 0.0
            ? static_cast<double>(row.stats.events) /
                (row.wallMs / 1e3)
            : 0.0;
        row.reportJson = json::write(row.result.toJson());
        rows.push_back(std::move(row));
    }
    core::setDefaultQueueKind(core::QueueKind::Heap);

    // The gate: the report must be byte-identical at every grid row.
    // A single diverging byte means some execution topology changed
    // the event order somewhere in a million-session run.
    bool identical = true;
    for (const Row &row : rows)
        if (row.reportJson != rows.front().reportJson) {
            identical = false;
            std::fprintf(stderr,
                         "ext_datacenter: report at --shards %d "
                         "--shard-threads %d --queue %s diverges "
                         "from the first row (%zu vs %zu bytes)\n",
                         row.config.shards, row.config.threads,
                         row.config.queue, row.reportJson.size(),
                         rows.front().reportJson.size());
        }

    double fastest = 0.0;
    for (const Row &row : rows)
        fastest = std::max(fastest, row.eventsPerSec);

    TextTable table(strprintf(
        "Sharded datacenter run: %s x%zu replicas, %.0f rps, "
        "horizon %.1fs (seed %llu)",
        spec.model.name.c_str(), spec.replicas.size(),
        spec.arrivalRatePerSec, horizon,
        static_cast<unsigned long long>(flags.seed)));
    table.setHeader({"Shards", "Threads", "Queue", "Events",
                     "Windows", "X-shard msgs", "Wall (ms)",
                     "Sim events/s", "TTFT p99 (ms)",
                     "Goodput (rps)"});
    for (const Row &row : rows)
        table.addRow({std::to_string(row.config.shards),
                      std::to_string(row.config.threads),
                      row.config.queue,
                      std::to_string(row.stats.events),
                      std::to_string(row.stats.windows),
                      std::to_string(row.stats.crossShardMessages),
                      strprintf("%.1f", row.wallMs),
                      strprintf("%.0f", row.eventsPerSec),
                      strprintf("%.1f", row.result.p99TtftNs / 1e6),
                      strprintf("%.1f", row.result.goodputRps)});
    std::fputs(flags.csv ? table.renderCsv().c_str()
                         : table.render().c_str(),
               stdout);
    std::printf("\nreports byte-identical across the grid: %s\n",
                identical ? "yes" : "NO");
    std::printf("fastest row %.0f events/s\n", fastest);

    if (flags.wantOut()) {
        json::Object doc;
        doc.set("replicas", static_cast<double>(replicas));
        doc.set("sessions", static_cast<double>(1 << 20));
        doc.set("horizon-sec", horizon);
        doc.set("rate-per-replica", rate_per_replica);
        doc.set("seed", static_cast<double>(flags.seed));
        doc.set("identical", identical);
        doc.set("fastest-events-per-sec", fastest);
        json::Value::Array grid_rows;
        for (const Row &row : rows) {
            json::Object entry;
            entry.set("shards",
                      static_cast<double>(row.config.shards));
            entry.set("shard-threads",
                      static_cast<double>(row.config.threads));
            entry.set("queue", std::string(row.config.queue));
            entry.set("events", static_cast<double>(row.stats.events));
            entry.set("windows",
                      static_cast<double>(row.stats.windows));
            entry.set("parallel-windows",
                      static_cast<double>(row.stats.parallelWindows));
            entry.set("parallel-events",
                      static_cast<double>(row.stats.parallelEvents));
            entry.set("cross-shard-messages",
                      static_cast<double>(
                          row.stats.crossShardMessages));
            entry.set("lookahead-violations",
                      static_cast<double>(
                          row.stats.lookaheadViolations));
            entry.set("lookahead-ns", row.stats.lookaheadNs);
            entry.set("wall-ms", row.wallMs);
            entry.set("simulated-events-per-sec", row.eventsPerSec);
            entry.set("report-bytes",
                      static_cast<double>(row.reportJson.size()));
            entry.set("offered",
                      static_cast<double>(row.result.offered));
            entry.set("completed",
                      static_cast<double>(row.result.completed));
            entry.set("p99-ttft-ms", row.result.p99TtftNs / 1e6);
            entry.set("goodput-rps", row.result.goodputRps);
            grid_rows.push_back(json::Value(std::move(entry)));
        }
        doc.set("rows", json::Value(std::move(grid_rows)));
        json::writeFile(flags.out, json::Value(std::move(doc)));
    }

    if (!identical)
        return 1;
    std::puts("\nKey takeaway: sharding, threaded shard execution and "
              "the calendar-queue backend are pure execution-topology "
              "changes — a thousand-replica, million-session run "
              "produces the same bytes on every row of the grid.");
    return 0;
}

/**
 * @file
 * Extension experiment: cluster-level serving scale-out. Production
 * deployments replicate a serving instance N ways behind a router, so
 * the question is not just per-instance TTFT but how routing policy
 * and replica count shape cluster SLO attainment as load rises — and
 * how much goodput survives when a replica crashes mid-horizon.
 *
 * Sweeps replica count x router policy x arrival rate (rates chosen
 * relative to the fleet's decode capacity, so the load axis means the
 * same thing at every fleet size), then replays the mid-size fleet
 * with a crash fault under every policy to compare fault resilience.
 *
 * Usage: ext_cluster_scaling [--model GPT2] [--platform GH200]
 *                            [--prompt 256] [--tokens 16]
 *                            [--max-active 32] [--jobs N]
 *                            [--quick] [--csv]
 *                            [--obs-out obs.json]
 *                            [--obs-interval-ms MS]
 *
 * --quick shrinks the grid and horizon for CI smoke runs. --obs-out
 * attaches a probe collector to each fault-resilience scenario (see
 * docs/observability.md), adds a sample-count column to the fault
 * table, and writes the per-policy time-series JSON.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"
#include "common/cli.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "exec/pool.hh"
#include "hw/catalog.hh"
#include "json/writer.hh"
#include "obs/collector.hh"
#include "serving/continuous.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

struct Scenario
{
    int replicas = 0;
    cluster::RouterPolicy router = cluster::RouterPolicy::RoundRobin;
    double loadFrac = 0.0;
    cluster::ClusterResult result;
};

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    RunFlags flags = parseRunFlags(args, /*defaultJobs=*/0);
    bool quick = flags.quick;
    workload::ModelConfig model =
        workload::modelByName(args.getString("model", "GPT2"));
    hw::Platform platform =
        hw::platforms::byName(args.getString("platform", "GH200"));
    int prompt = args.getInt("prompt", 256);
    int tokens = args.getInt("tokens", 16);
    int max_active = args.getInt("max-active", 32);
    exec::Pool pool(flags.jobs);

    std::vector<int> fleets = quick ? std::vector<int>{2, 4}
                                    : std::vector<int>{2, 4, 8};
    std::vector<double> fracs = quick
        ? std::vector<double>{0.6}
        : std::vector<double>{0.3, 0.6, 0.9};
    std::vector<cluster::RouterPolicy> policies = {
        cluster::RouterPolicy::RoundRobin,
        cluster::RouterPolicy::LeastOutstanding,
        cluster::RouterPolicy::WeightedThroughput,
        cluster::RouterPolicy::SessionAffinity,
    };
    double horizon = quick ? 4.0 : 15.0;

    cluster::ClusterSpec base;
    base.model = model;
    base.promptLen = prompt;
    base.genTokens = tokens;
    base.horizonSec = horizon;
    cluster::ReplicaSpec replica;
    replica.platform = platform;
    replica.maxActive = max_active;
    base.replicas.assign(1, replica);

    // Per-replica decode capacity in requests/s anchors the load axis:
    // offered load = frac x fleet capacity, so "0.6" saturates a
    // 2-replica fleet and an 8-replica fleet equally.
    cluster::CostCache costs;
    costs.build(base);
    double per_replica_rps = max_active /
        (costs.get(platform.name).decodeNs(max_active) / 1e9) / tokens;

    std::vector<Scenario> grid;
    for (int fleet : fleets)
        for (cluster::RouterPolicy policy : policies)
            for (double frac : fracs) {
                Scenario scenario;
                scenario.replicas = fleet;
                scenario.router = policy;
                scenario.loadFrac = frac;
                grid.push_back(scenario);
            }

    pool.run(grid.size(), [&](std::size_t i) {
        Scenario &scenario = grid[i];
        cluster::ClusterSpec spec = base;
        spec.replicas.assign(
            static_cast<std::size_t>(scenario.replicas), replica);
        spec.router = scenario.router;
        spec.arrivalRatePerSec =
            scenario.loadFrac * per_replica_rps * scenario.replicas;
        spec.seed = mixSeed(base.seed, i);
        scenario.result = cluster::simulateCluster(spec, costs);
    });

    TextTable table(strprintf(
        "Cluster scale-out: %s on %s (prompt=%d, %d tokens, "
        "~%.0f rps/replica capacity, horizon %.0fs)",
        model.name.c_str(), platform.name.c_str(), prompt, tokens,
        per_replica_rps, horizon));
    table.setHeader({"Replicas", "Router", "Load", "Rate (rps)",
                     "TTFT p50 (ms)", "TTFT p99 (ms)", "e2e p99 (ms)",
                     "SLO %", "Goodput (rps)"});
    for (const Scenario &scenario : grid)
        table.addRow(
            {std::to_string(scenario.replicas),
             cluster::routerPolicyName(scenario.router),
             strprintf("%.0f%%", 100.0 * scenario.loadFrac),
             strprintf("%.0f", scenario.result.arrivalRatePerSec),
             strprintf("%.1f", scenario.result.p50TtftNs / 1e6),
             strprintf("%.1f", scenario.result.p99TtftNs / 1e6),
             strprintf("%.1f", scenario.result.p99E2eNs / 1e6),
             strprintf("%.1f", 100.0 * scenario.result.sloAttainment),
             strprintf("%.1f", scenario.result.goodputRps)});
    std::fputs(flags.csv ? table.renderCsv().c_str()
                               : table.render().c_str(),
               stdout);
    std::puts("");

    // Fault resilience: crash 1 of 4 replicas mid-horizon and compare
    // what each routing policy salvages.
    cluster::FaultSpec crash;
    crash.atSec = horizon / 2.0;
    crash.replica = 0;
    crash.kind = cluster::FaultKind::Crash;

    // Probe collectors on the fault scenarios (one per policy, indexed
    // like `faulted`, so the export order is deterministic).
    const bool want_obs = flags.wantObs();
    const double obs_interval_ms = flags.obsIntervalMs;
    std::vector<std::unique_ptr<obs::Collector>> collectors(
        policies.size());
    if (want_obs) {
        for (std::size_t i = 0; i < policies.size(); ++i)
            collectors[i] =
                std::make_unique<obs::Collector>(obs_interval_ms);
    }

    std::vector<Scenario> faulted(policies.size());
    pool.run(policies.size(), [&](std::size_t i) {
        Scenario &scenario = faulted[i];
        scenario.replicas = 4;
        scenario.router = policies[i];
        scenario.loadFrac = 0.6;
        cluster::ClusterSpec spec = base;
        spec.replicas.assign(4, replica);
        spec.router = policies[i];
        spec.arrivalRatePerSec = 0.6 * per_replica_rps * 4;
        spec.faults.push_back(crash);
        spec.seed = mixSeed(base.seed, 1000 + i);
        scenario.result = cluster::simulateCluster(spec, costs,
                                                   collectors[i].get());
    });

    TextTable fault_table(strprintf(
        "Fault resilience: crash replica 0 of 4 at t=%.1fs "
        "(60%% load, detect delay %.0f ms)",
        crash.atSec, base.detectDelaySec * 1e3));
    fault_table.setHeader({"Router", "Offered", "Done", "Lost",
                           "Rerouted", "TTFT p99 (ms)", "SLO %",
                           "Goodput (rps)", "Obs samples"});
    for (std::size_t i = 0; i < faulted.size(); ++i) {
        const Scenario &scenario = faulted[i];
        fault_table.addRow(
            {cluster::routerPolicyName(scenario.router),
             std::to_string(scenario.result.offered),
             std::to_string(scenario.result.completed),
             std::to_string(scenario.result.lost),
             std::to_string(scenario.result.rerouted),
             strprintf("%.1f", scenario.result.p99TtftNs / 1e6),
             strprintf("%.1f", 100.0 * scenario.result.sloAttainment),
             strprintf("%.1f", scenario.result.goodputRps),
             want_obs
                 ? std::to_string(collectors[i]->sampleCount())
                 : std::string("-")});
    }
    std::fputs(flags.csv ? fault_table.renderCsv().c_str()
                               : fault_table.render().c_str(),
               stdout);

    if (want_obs) {
        json::Object doc;
        doc.set("interval_ms", obs_interval_ms);
        json::Value::Array scenario_docs;
        for (std::size_t i = 0; i < faulted.size(); ++i) {
            json::Object entry;
            entry.set("router",
                      cluster::routerPolicyName(faulted[i].router));
            entry.set("obs", collectors[i]->toJson());
            scenario_docs.push_back(json::Value(std::move(entry)));
        }
        doc.set("scenarios", json::Value(std::move(scenario_docs)));
        json::writeFile(flags.obsOut, json::Value(doc));
        std::printf("\nobs report -> %s\n", flags.obsOut.c_str());
    }

    std::puts("\nKey takeaway: load-aware routing (least-outstanding, "
              "weighted) holds tail TTFT flat as the fleet grows, while "
              "round-robin and affinity pay a p99 penalty whenever "
              "arrival bursts pile onto one replica. After a crash the "
              "router's view lags by the detection delay; the requests "
              "stranded in that window dominate the lost count, so "
              "goodput degrades by roughly the crashed replica's share "
              "plus the detection-window backlog.");
    return 0;
}

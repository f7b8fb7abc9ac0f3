#include "check/properties.hh"

#include <cmath>
#include <memory>
#include <mutex>

#include "analysis/sweep.hh"
#include "check/mdc.hh"
#include "check/span_check.hh"
#include "cluster/cluster.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "json/writer.hh"
#include "kv/tier.hh"
#include "obs/attribution.hh"
#include "obs/span.hh"
#include "serving/arrival.hh"
#include "serving/latency_model.hh"
#include "serving/server_sim.hh"
#include "skip/profile.hh"
#include "workload/model_config.hh"

namespace skipsim::check
{

namespace
{

/**
 * Directional comparison with a hair of relative slack: the engines
 * are deterministic, but a property may legitimately hold with
 * equality (e.g. a perturbation outside the binding constraint), and
 * double arithmetic along two different code paths can differ in the
 * last ulp.
 */
bool
nonDecreasing(double base, double perturbed)
{
    return perturbed >= base - 1e-9 * (std::abs(base) + 1.0);
}

bool
nonIncreasing(double base, double perturbed)
{
    return perturbed <= base + 1e-9 * (std::abs(base) + 1.0);
}

PropertyResult
judge(const std::string &name, const std::string &engine, double base,
      double perturbed, bool passed, std::string detail)
{
    PropertyResult r;
    r.name = name;
    r.engine = engine;
    r.passed = passed;
    r.baseValue = base;
    r.perturbedValue = perturbed;
    r.detail = std::move(detail);
    return r;
}

/** One prefill profile of GPT2 on @p platform (deterministic). */
skip::ProfileResult
runSim(const hw::Platform &platform, int batch, int seq_len,
       workload::ExecMode mode = workload::ExecMode::Eager)
{
    return skip::profilePrefill(workload::gpt2(), platform, batch, seq_len,
                                mode);
}

/**
 * Synthetic linear batch-latency sweep, latency(b) = base + slope * b.
 * Keeps the serving properties independent of the calibrated platform
 * numbers: the laws under test are queueing laws, not cost-model laws.
 */
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

serving::ServingConfig
servingBase()
{
    serving::ServingConfig config;
    config.arrivalRatePerSec = 400.0;
    config.horizonSec = 10.0;
    config.maxBatch = 16;
    config.maxWaitNs = 2e6;
    config.seed = 7;
    return config;
}

/**
 * Small two-replica GH200 cluster near saturation: short horizon and
 * prompt keep the shared cost-model calibration cheap while leaving
 * the fault and capacity laws something to bite on.
 */
cluster::ClusterSpec
clusterBase()
{
    cluster::ClusterSpec spec;
    spec.model = workload::gpt2();
    cluster::ReplicaSpec replica;
    replica.platform = hw::platforms::gh200();
    replica.maxActive = 8;
    spec.replicas = {replica, replica};
    spec.arrivalRatePerSec = 40.0;
    spec.horizonSec = 8.0;
    spec.promptLen = 64;
    spec.genTokens = 8;
    spec.ttftSloMs = 250.0;
    spec.e2eSloMs = 1000.0;
    spec.seed = 7;
    return spec;
}

/**
 * KV-pressured variant of clusterBase(): the HBM is shrunk until
 * retained sessions cannot all stay resident and chatty multi-turn
 * traffic keeps asking for its prefixes back, so the tiering policy
 * and the offload link are both on the critical path. The platform
 * *name* stays GH200, so the shared cost cache still applies (compute
 * costs do not depend on HBM capacity or link speed).
 */
cluster::ClusterSpec
kvClusterBase(kv::OffloadPolicy policy)
{
    cluster::ClusterSpec spec = clusterBase();
    for (cluster::ReplicaSpec &replica : spec.replicas)
        replica.platform.gpu.hbmCapacityGiB = 0.33;
    spec.kvTier.policy = policy;
    spec.kvTier.hostCapacityGiB = 0.05;
    spec.kvTier.watermarkFrac = 0.9;
    serving::SessionProcess::Params chat;
    chat.sessionRatePerSec = 10.0;
    chat.meanTurns = 4.0;
    chat.thinkSec = 1.0;
    chat.cachedFrac = 0.8;
    chat.sessions = spec.sessions;
    spec.traffic = std::make_shared<serving::SessionProcess>(chat);
    return spec;
}

/**
 * Cost models shared by every cluster property (same model/prompt, one
 * platform), built once on first use.
 */
const cluster::CostCache &
sharedCosts()
{
    static cluster::CostCache cache;
    static std::once_flag once;
    std::call_once(once, [] { cache.build(clusterBase()); });
    return cache;
}

std::vector<Property>
buildCatalog()
{
    std::vector<Property> props;
    auto add = [&props](const char *name, const char *engine,
                        const char *law,
                        std::function<PropertyResult()> run) {
        Property p;
        p.name = name;
        p.engine = engine;
        p.law = law;
        p.run = std::move(run);
        props.push_back(std::move(p));
    };

    add("sim.launch-overhead-tklqt", "sim",
        "a larger kernel-launch overhead never decreases TKLQT", [] {
            hw::Platform base = hw::platforms::gh200();
            hw::Platform slow = base;
            slow.cpu.launchOverheadNs *= 2.0;
            double a = runSim(base, 1, 128).metrics.tklqtNs;
            double b = runSim(slow, 1, 128).metrics.tklqtNs;
            return judge("sim.launch-overhead-tklqt", "sim", a, b,
                         nonDecreasing(a, b),
                         strprintf("TKLQT %.0f ns -> %.0f ns after "
                                   "doubling launchOverheadNs",
                                   a, b));
        });

    add("sim.launch-overhead-bound-region", "sim",
        "a larger launch overhead never decreases the launch-bound "
        "share of the run (GPU idle while the CPU dispatches)",
        [] {
            hw::Platform base = hw::platforms::gh200();
            hw::Platform slow = base;
            slow.cpu.launchOverheadNs *= 2.0;
            slow.cpu.launchCpuNs *= 2.0;
            skip::ProfileResult pa = runSim(base, 1, 128);
            skip::ProfileResult pb = runSim(slow, 1, 128);
            double a = pa.metrics.gpuIdleNs / pa.metrics.ilNs;
            double b = pb.metrics.gpuIdleNs / pb.metrics.ilNs;
            return judge("sim.launch-overhead-bound-region", "sim", a,
                         b, nonDecreasing(a, b),
                         strprintf("GPU-idle fraction %.4f -> %.4f "
                                   "after doubling launch costs",
                                   a, b));
        });

    // Note the law deliberately compares IL, not TKLQT: a faster CPU
    // issues launches back-to-back faster, which *deepens* the launch
    // queue and can legitimately raise TKLQT (queueing is part of it).
    // The direction that must hold is end-to-end: shrinking every CPU
    // segment can only move kernel starts earlier, never later.
    add("sim.cpu-speed-latency", "sim",
        "a faster CPU single-thread score never increases prefill "
        "latency (IL)",
        [] {
            hw::Platform base = hw::platforms::gh200();
            hw::Platform fast = base;
            fast.cpu.singleThreadScore *= 2.0;
            double a = runSim(base, 1, 128).metrics.ilNs;
            double b = runSim(fast, 1, 128).metrics.ilNs;
            return judge("sim.cpu-speed-latency", "sim", a, b,
                         nonIncreasing(a, b),
                         strprintf("IL %.0f ns -> %.0f ns after "
                                   "doubling singleThreadScore",
                                   a, b));
        });

    add("sim.batch-latency", "sim",
        "a larger batch never decreases prefill latency (IL)", [] {
            hw::Platform platform = hw::platforms::gh200();
            double a = runSim(platform, 2, 128).metrics.ilNs;
            double b = runSim(platform, 8, 128).metrics.ilNs;
            return judge("sim.batch-latency", "sim", a, b,
                         nonDecreasing(a, b),
                         strprintf("IL %.0f ns (batch 2) -> %.0f ns "
                                   "(batch 8)",
                                   a, b));
        });

    add("sim.seqlen-latency", "sim",
        "a longer sequence never decreases prefill latency (IL)", [] {
            hw::Platform platform = hw::platforms::gh200();
            double a = runSim(platform, 2, 128).metrics.ilNs;
            double b = runSim(platform, 2, 256).metrics.ilNs;
            return judge("sim.seqlen-latency", "sim", a, b,
                         nonDecreasing(a, b),
                         strprintf("IL %.0f ns (seq 128) -> %.0f ns "
                                   "(seq 256)",
                                   a, b));
        });

    add("sim.fusion-launches", "sim",
        "a fused execution mode never launches more kernels than "
        "eager (K_fused <= K_eager, paper Eq. 7)",
        [] {
            hw::Platform platform = hw::platforms::gh200();
            double a = static_cast<double>(
                runSim(platform, 2, 128, workload::ExecMode::Eager)
                    .metrics.numKernels);
            double b = static_cast<double>(
                runSim(platform, 2, 128,
                       workload::ExecMode::CompileDefault)
                    .metrics.numKernels);
            return judge("sim.fusion-launches", "sim", a, b,
                         nonIncreasing(a, b),
                         strprintf("kernel launches %.0f (eager) -> "
                                   "%.0f (compiled)",
                                   a, b));
        });

    add("serving.load-ttft", "serving",
        "a higher arrival rate never decreases p50 TTFT", [] {
            serving::LatencyModel latency(linearSweep(2e6, 1e6));
            serving::ServingConfig base = servingBase();
            serving::ServingConfig loaded = base;
            loaded.arrivalRatePerSec *= 2.0;
            double a =
                serving::simulateServing(latency, base).p50TtftNs;
            double b =
                serving::simulateServing(latency, loaded).p50TtftNs;
            return judge("serving.load-ttft", "serving", a, b,
                         nonDecreasing(a, b),
                         strprintf("p50 TTFT %.0f ns at %.0f rps -> "
                                   "%.0f ns at %.0f rps",
                                   a, base.arrivalRatePerSec, b,
                                   loaded.arrivalRatePerSec));
        });

    add("serving.horizon-completed", "serving",
        "a longer horizon never decreases completed requests (the "
        "arrival process is a prefix of the longer run)",
        [] {
            serving::LatencyModel latency(linearSweep(2e6, 1e6));
            serving::ServingConfig base = servingBase();
            serving::ServingConfig longer = base;
            longer.horizonSec *= 2.0;
            double a = static_cast<double>(
                serving::simulateServing(latency, base).completed);
            double b = static_cast<double>(
                serving::simulateServing(latency, longer).completed);
            return judge("serving.horizon-completed", "serving", a, b,
                         nonDecreasing(a, b),
                         strprintf("completed %.0f in %.0f s -> %.0f "
                                   "in %.0f s",
                                   a, base.horizonSec, b,
                                   longer.horizonSec));
        });

    add("serving.mdc-oracle", "serving",
        "with unit batches the serving engine's mean latency matches "
        "the exact M/D/1 Pollaczek-Khinchine closed form within 5%",
        [] {
            serving::LatencyModel latency(linearSweep(2e6, 1e6));
            double service_ns = latency.latencyNs(1);
            serving::ServingConfig config;
            config.arrivalRatePerSec = 200.0; // rho = 0.6 at 3 ms
            config.horizonSec = 200.0;
            config.maxBatch = 1;
            config.maxWaitNs = 0.0;
            config.seed = 7;
            MdcSolution mdc = solveMdc(config.arrivalRatePerSec,
                                       service_ns, 1);
            double a = serving::simulateServing(latency, config)
                           .meanLatencyNs;
            double b = mdc.meanResponseNs;
            bool passed = std::abs(a - b) <= 0.05 * b;
            return judge(
                "serving.mdc-oracle", "serving", a, b, passed,
                strprintf("simulated mean latency %.0f ns vs M/D/1 "
                          "closed form %.0f ns at rho %.2f "
                          "(%.1f%% apart)",
                          a, b, mdc.utilization,
                          100.0 * std::abs(a - b) / b));
        });

    add("cluster.crash-goodput", "cluster",
        "injecting a replica crash never increases goodput", [] {
            cluster::ClusterSpec base = clusterBase();
            cluster::ClusterSpec faulty = base;
            cluster::FaultSpec crash;
            crash.atSec = 2.0;
            crash.replica = 1;
            crash.kind = cluster::FaultKind::Crash;
            faulty.faults.push_back(crash);
            double a =
                cluster::simulateCluster(base, sharedCosts()).goodputRps;
            double b = cluster::simulateCluster(faulty, sharedCosts())
                           .goodputRps;
            return judge("cluster.crash-goodput", "cluster", a, b,
                         nonIncreasing(a, b),
                         strprintf("goodput %.2f rps -> %.2f rps with "
                                   "one crash at 2 s",
                                   a, b));
        });

    add("cluster.slo-looseness", "cluster",
        "loosening both SLOs never decreases SLO attainment", [] {
            cluster::ClusterSpec base = clusterBase();
            cluster::ClusterSpec loose = base;
            loose.ttftSloMs *= 2.0;
            loose.e2eSloMs *= 2.0;
            double a = cluster::simulateCluster(base, sharedCosts())
                           .sloAttainment;
            double b = cluster::simulateCluster(loose, sharedCosts())
                           .sloAttainment;
            return judge("cluster.slo-looseness", "cluster", a, b,
                         nonDecreasing(a, b),
                         strprintf("attainment %.4f -> %.4f after "
                                   "doubling both SLOs",
                                   a, b));
        });

    add("cluster.replica-capacity", "cluster",
        "adding a replica never decreases completed requests", [] {
            cluster::ClusterSpec two = clusterBase();
            cluster::ClusterSpec one = two;
            one.replicas.resize(1);
            double a = static_cast<double>(
                cluster::simulateCluster(one, sharedCosts()).completed);
            double b = static_cast<double>(
                cluster::simulateCluster(two, sharedCosts()).completed);
            return judge("cluster.replica-capacity", "cluster", a, b,
                         nonDecreasing(a, b),
                         strprintf("completed %.0f (1 replica) -> "
                                   "%.0f (2 replicas)",
                                   a, b));
        });

    add("cluster.mdc-oracle", "cluster",
        "a three-replica single-slot cluster tracks the closed-form "
        "M/D/3 median response within 35%",
        [] {
            // Single-slot replicas serving one token make each request
            // one deterministic service; least-outstanding routing
            // approximates the central M/D/c queue. The service time
            // is calibrated from a near-idle run (the median response
            // with nobody waiting), which also absorbs any fixed
            // dispatch overhead.
            cluster::ClusterSpec idle = clusterBase();
            for (cluster::ReplicaSpec &replica : idle.replicas)
                replica.maxActive = 1;
            idle.replicas.push_back(idle.replicas.front());
            idle.genTokens = 1;
            idle.arrivalRatePerSec = 1.0;
            idle.horizonSec = 20.0;
            double service_ns =
                cluster::simulateCluster(idle, sharedCosts()).p50E2eNs;

            double rho = 0.8;
            double rate = rho * 3.0 / (service_ns / 1e9);
            cluster::ClusterSpec loaded = idle;
            loaded.arrivalRatePerSec = rate;
            loaded.horizonSec = 3000.0 / rate;
            MdcSolution mdc = solveMdc(rate, service_ns, 3);
            double a = cluster::simulateCluster(loaded, sharedCosts())
                           .p50E2eNs;
            double b = mdc.medianResponseNs;
            bool passed = std::abs(a - b) <= 0.35 * b;
            return judge(
                "cluster.mdc-oracle", "cluster", a, b, passed,
                strprintf("simulated p50 E2E %.0f ns vs M/D/3 median "
                          "%.0f ns at rho %.2f, service %.0f ns "
                          "(%.1f%% apart)",
                          a, b, mdc.utilization, service_ns,
                          100.0 * std::abs(a - b) / b));
        });

    add("cluster.mmpp-burst-ttft", "cluster",
        "burstier MMPP traffic at equal mean rate never improves p99 "
        "TTFT",
        [] {
            cluster::ClusterSpec steady = clusterBase();
            steady.traffic = std::make_shared<serving::MmppProcess>(
                std::vector<serving::MmppProcess::State>{{40.0, 1.0}},
                steady.sessions);
            // Same 40 rps long-run mean, but half the time at nearly
            // double the sustainable rate.
            cluster::ClusterSpec bursty = clusterBase();
            bursty.traffic = std::make_shared<serving::MmppProcess>(
                std::vector<serving::MmppProcess::State>{{5.0, 1.0},
                                                         {75.0, 1.0}},
                bursty.sessions);
            double a = cluster::simulateCluster(steady, sharedCosts())
                           .p99TtftNs;
            double b = cluster::simulateCluster(bursty, sharedCosts())
                           .p99TtftNs;
            return judge("cluster.mmpp-burst-ttft", "cluster", a, b,
                         nonDecreasing(a, b),
                         strprintf("p99 TTFT %.0f ns (steady 40 rps) "
                                   "-> %.0f ns (5/75 rps burst, same "
                                   "mean)",
                                   a, b));
        });

    add("cluster.session-cache-ttft", "cluster",
        "prefix-cache hits on multi-turn follow-ups never worsen p99 "
        "TTFT (same arrival timeline, less prefill compute)",
        [] {
            serving::SessionProcess::Params chat;
            chat.sessionRatePerSec = 10.0;
            chat.meanTurns = 4.0;
            chat.thinkSec = 1.0;
            chat.sessions = clusterBase().sessions;
            serving::SessionProcess::Params cold = chat;
            cold.cachedFrac = 0.0;
            serving::SessionProcess::Params warm = chat;
            warm.cachedFrac = 0.75;
            cluster::ClusterSpec a_spec = clusterBase();
            a_spec.traffic =
                std::make_shared<serving::SessionProcess>(cold);
            cluster::ClusterSpec b_spec = clusterBase();
            b_spec.traffic =
                std::make_shared<serving::SessionProcess>(warm);
            double a = cluster::simulateCluster(a_spec, sharedCosts())
                           .p99TtftNs;
            double b = cluster::simulateCluster(b_spec, sharedCosts())
                           .p99TtftNs;
            return judge("cluster.session-cache-ttft", "cluster", a, b,
                         nonIncreasing(a, b),
                         strprintf("p99 TTFT %.0f ns (cold prompts) -> "
                                   "%.0f ns (75%% prefix cached)",
                                   a, b));
        });

    add("cluster.tenant-slo-looseness", "cluster",
        "loosening every tenant's SLOs never decreases overall SLO "
        "attainment",
        [] {
            cluster::ClusterSpec base = clusterBase();
            base.traffic = std::make_shared<serving::TieredProcess>(
                std::vector<serving::TieredProcess::Tier>{
                    {"premium", 20.0}, {"standard", 20.0}},
                base.sessions);
            cluster::TenantSpec premium;
            premium.name = "premium";
            premium.ttftSloMs = 250.0;
            premium.e2eSloMs = 1000.0;
            cluster::TenantSpec standard;
            standard.name = "standard";
            standard.ttftSloMs = 500.0;
            standard.e2eSloMs = 2000.0;
            base.tenants = {premium, standard};
            cluster::ClusterSpec loose = base;
            for (cluster::TenantSpec &tenant : loose.tenants) {
                tenant.ttftSloMs *= 2.0;
                tenant.e2eSloMs *= 2.0;
            }
            double a = cluster::simulateCluster(base, sharedCosts())
                           .sloAttainment;
            double b = cluster::simulateCluster(loose, sharedCosts())
                           .sloAttainment;
            return judge("cluster.tenant-slo-looseness", "cluster", a, b,
                         nonDecreasing(a, b),
                         strprintf("attainment %.4f -> %.4f after "
                                   "doubling every tenant SLO",
                                   a, b));
        });

    add("cluster.kv-link-speed-ttft", "cluster",
        "a faster offload interconnect never raises p99 TTFT, under "
        "any tiering policy",
        [] {
            double worst_slow = 0.0, worst_fast = 0.0;
            bool passed = true;
            std::string detail;
            for (kv::OffloadPolicy policy :
                 {kv::OffloadPolicy::StaticWatermark,
                  kv::OffloadPolicy::LruBySession,
                  kv::OffloadPolicy::PrefixAware}) {
                cluster::ClusterSpec slow = kvClusterBase(policy);
                for (cluster::ReplicaSpec &r : slow.replicas) {
                    r.platform.link.bwGBs = 4.0;
                    r.platform.link.latencyNs = 5000.0;
                }
                cluster::ClusterSpec fast = kvClusterBase(policy);
                for (cluster::ReplicaSpec &r : fast.replicas) {
                    r.platform.link.bwGBs = 450.0;
                    r.platform.link.latencyNs = 300.0;
                }
                double a =
                    cluster::simulateCluster(slow, sharedCosts())
                        .p99TtftNs;
                double b =
                    cluster::simulateCluster(fast, sharedCosts())
                        .p99TtftNs;
                bool ok = nonIncreasing(a, b);
                if (!ok || detail.empty()) {
                    worst_slow = a;
                    worst_fast = b;
                    detail = strprintf(
                        "p99 TTFT %.0f ns (PCIe-class link) -> %.0f "
                        "ns (C2C-class link) under %s",
                        a, b, kv::offloadPolicyName(policy));
                }
                passed = passed && ok;
                if (!ok)
                    break;
            }
            return judge("cluster.kv-link-speed-ttft", "cluster",
                         worst_slow, worst_fast, passed, detail);
        });

    add("cluster.kv-capacity-bounds", "cluster",
        "KV tiering never holds more bytes than the HBM it offloads "
        "from or the host pool it offloads into",
        [] {
            cluster::ClusterSpec spec =
                kvClusterBase(kv::OffloadPolicy::LruBySession);
            cluster::ClusterResult r =
                cluster::simulateCluster(spec, sharedCosts());
            double peak_hbm = 0.0, peak_host = 0.0;
            for (const cluster::ReplicaStats &stats : r.replicas) {
                peak_hbm = std::max(peak_hbm, stats.peakKvBytes);
                peak_host = std::max(peak_host, stats.peakHostKvBytes);
            }
            double hbm_cap =
                spec.replicas.front().platform.gpu.hbmBytes();
            double host_cap = spec.kvTier.hostCapacityBytes();
            bool pressured = r.kv.offloads > 0;
            bool passed = pressured && peak_hbm <= hbm_cap + 0.5 &&
                peak_host <= host_cap + 0.5;
            return judge(
                "cluster.kv-capacity-bounds", "cluster", peak_hbm,
                peak_host, passed,
                strprintf("peak KV %.0f B of %.0f B HBM, peak host "
                          "%.0f B of %.0f B pool (%zu offloads)",
                          peak_hbm, hbm_cap, peak_host, host_cap,
                          static_cast<std::size_t>(r.kv.offloads)));
        });

    add("cluster.disagg-collapse", "cluster",
        "a role-annotated spec collapsed to co-located (every replica "
        "Mixed, tiering off) byte-matches the plain spec",
        [] {
            cluster::ClusterSpec plain = clusterBase();
            // Round-trip through serde and annotate every replica
            // with the explicit Mixed role: the collapsed form must
            // take the exact non-disaggregated code path (no handoff
            // lanes, no staging charges, no kv report section).
            cluster::ClusterSpec collapsed =
                cluster::ClusterSpec::fromJson(plain.toJson());
            for (cluster::ReplicaSpec &r : collapsed.replicas)
                r.role = cluster::ReplicaRole::Mixed;
            collapsed.kvTier = kv::TierSpec{};
            std::string a = json::write(
                cluster::simulateCluster(plain, sharedCosts())
                    .toJson());
            std::string b = json::write(
                cluster::simulateCluster(collapsed, sharedCosts())
                    .toJson());
            bool passed = a == b;
            return judge("cluster.disagg-collapse", "cluster",
                         static_cast<double>(a.size()),
                         static_cast<double>(b.size()), passed,
                         passed ? strprintf("identical %zu-byte "
                                            "reports",
                                            a.size())
                                : "collapsed disagg report diverged "
                                  "from the co-located report");
        });

    add("cluster.span-attribution-jobs", "cluster",
        "lifecycle spans satisfy the stage-partition invariant and "
        "the span export and attribution are pure functions of the "
        "spec (byte-identical across independent runs, the contract "
        "--jobs fan-out relies on)",
        [] {
            // The KV-pressured spec exercises every stage kind:
            // queue, prefill_wait, kv_fetch stalls, prefill, decode.
            cluster::ClusterSpec spec =
                kvClusterBase(kv::OffloadPolicy::LruBySession);

            // Run twice exactly as two --jobs workers would: one
            // against the shared cache, one against a private
            // rebuild. Spans and attribution must not notice.
            obs::SpanLog spans_a;
            cluster::simulateCluster(spec, sharedCosts(), nullptr,
                                     &spans_a);
            cluster::CostCache private_costs;
            private_costs.build(spec);
            obs::SpanLog spans_b;
            cluster::simulateCluster(spec, private_costs, nullptr,
                                     &spans_b);

            SpanCheckReport report = checkSpans(spans_a.spans());
            std::string a = spans_a.toChromeText();
            std::string b = spans_b.toChromeText();
            std::string attr_a = json::write(
                obs::attributeSpans(spans_a.spans(), spec.ttftSloMs,
                                    spec.e2eSloMs)
                    .toJson());
            std::string attr_b = json::write(
                obs::attributeSpans(spans_b.spans(), spec.ttftSloMs,
                                    spec.e2eSloMs)
                    .toJson());
            bool passed = report.ok() && !spans_a.spans().empty() &&
                a == b && attr_a == attr_b;
            std::string detail;
            if (!report.ok())
                detail = strprintf("%zu span invariant violations "
                                   "([%s] ...)",
                                   report.violations.size(),
                                   report.violations.front()
                                       .code.c_str());
            else if (a != b)
                detail = "span export diverged between runs";
            else if (attr_a != attr_b)
                detail = "attribution diverged between runs";
            else
                detail = strprintf("%zu spans partition %zu "
                                   "requests; %zu-byte export and "
                                   "%zu-byte attribution stable",
                                   spans_a.spans().size(),
                                   spans_a.requestCount(), a.size(),
                                   attr_a.size());
            return judge("cluster.span-attribution-jobs", "cluster",
                         static_cast<double>(a.size()),
                         static_cast<double>(b.size()), passed,
                         detail);
        });

    return props;
}

} // namespace

const std::vector<Property> &
properties()
{
    static const std::vector<Property> catalog = buildCatalog();
    return catalog;
}

std::vector<PropertyResult>
runProperties(const std::string &filter)
{
    std::vector<PropertyResult> results;
    for (const Property &p : properties()) {
        if (!filter.empty() &&
            p.name.find(filter) == std::string::npos)
            continue;
        results.push_back(p.run());
    }
    return results;
}

std::string
renderProperties(const std::vector<PropertyResult> &results)
{
    std::string out;
    std::size_t passed = 0;
    for (const PropertyResult &r : results) {
        if (r.passed)
            ++passed;
        out += strprintf("  %-34s [%-7s] %s  (%s)\n", r.name.c_str(),
                         r.engine.c_str(), r.passed ? "PASS" : "FAIL",
                         r.detail.c_str());
    }
    out += strprintf("properties: %zu/%zu passed\n", passed,
                     results.size());
    return out;
}

json::Value
propertiesToJson(const std::vector<PropertyResult> &results)
{
    json::Value::Array items;
    std::size_t passed = 0;
    for (const PropertyResult &r : results) {
        if (r.passed)
            ++passed;
        json::Object item;
        item.set("name", r.name);
        item.set("engine", r.engine);
        item.set("passed", json::Value(r.passed));
        item.set("base", r.baseValue);
        item.set("perturbed", r.perturbedValue);
        item.set("detail", r.detail);
        items.push_back(json::Value(std::move(item)));
    }
    json::Object doc;
    doc.set("passed", static_cast<unsigned long long>(passed));
    doc.set("total", static_cast<unsigned long long>(results.size()));
    doc.set("properties", json::Value(std::move(items)));
    return json::Value(std::move(doc));
}

} // namespace skipsim::check

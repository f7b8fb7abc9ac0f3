#include "skip/metrics.hh"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "stats/summary.hh"

namespace skipsim::skip
{

std::vector<KernelStat>
MetricsReport::topK(std::size_t k, TopKBy by) const
{
    std::vector<KernelStat> sorted = byKernel;
    auto key = [by](const KernelStat &s) -> double {
        switch (by) {
          case TopKBy::Count: return static_cast<double>(s.count);
          case TopKBy::LaunchOverhead: return s.totalLaunchNs;
          case TopKBy::Duration: return s.totalDurNs;
        }
        return 0.0;
    };
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const KernelStat &a, const KernelStat &b) {
                         return key(a) > key(b);
                     });
    if (sorted.size() > k)
        sorted.resize(k);
    return sorted;
}

std::string
MetricsReport::render() const
{
    std::string out;
    out += strprintf("Inference latency (IL)      : %s\n",
                     formatNs(ilNs).c_str());
    out += strprintf("TKLQT                       : %s\n",
                     formatNs(tklqtNs).c_str());
    out += strprintf("  of which queuing          : %s\n",
                     formatNs(tklqtQueueNs).c_str());
    out += strprintf("Average kernel dur. (AKD)   : %s\n",
                     formatNs(akdNs).c_str());
    out += strprintf("GPU busy / idle             : %s / %s\n",
                     formatNs(gpuBusyNs).c_str(),
                     formatNs(gpuIdleNs).c_str());
    out += strprintf("CPU busy / idle             : %s / %s\n",
                     formatNs(cpuBusyNs).c_str(),
                     formatNs(cpuIdleNs).c_str());
    out += strprintf("Kernels / operators         : %zu / %zu\n",
                     numKernels, numOps);
    out += strprintf("Mean launch-to-start        : %s\n",
                     formatNs(avgLaunchNs).c_str());
    return out;
}

json::Value
MetricsReport::toJson() const
{
    json::Object obj;
    obj.set("tklqt_ns", tklqtNs);
    obj.set("tklqt_queue_ns", tklqtQueueNs);
    obj.set("launch_baseline_ns", launchBaselineNs);
    obj.set("akd_ns", akdNs);
    obj.set("il_ns", ilNs);
    obj.set("gpu_idle_ns", gpuIdleNs);
    obj.set("cpu_idle_ns", cpuIdleNs);
    obj.set("gpu_busy_ns", gpuBusyNs);
    obj.set("cpu_busy_ns", cpuBusyNs);
    obj.set("num_kernels", static_cast<unsigned long long>(numKernels));
    obj.set("num_ops", static_cast<unsigned long long>(numOps));
    obj.set("avg_launch_ns", avgLaunchNs);

    json::Value::Array kernels;
    for (const auto &stat : byKernel) {
        json::Object k;
        k.set("name", stat.name);
        k.set("count", static_cast<unsigned long long>(stat.count));
        k.set("total_dur_ns", stat.totalDurNs);
        k.set("total_launch_ns", stat.totalLaunchNs);
        kernels.push_back(json::Value(std::move(k)));
    }
    obj.set("kernels", json::Value(std::move(kernels)));
    return json::Value(std::move(obj));
}

MetricsReport
computeMetrics(const DependencyGraph &graph)
{
    MetricsReport report;
    const trace::Trace &trace = graph.trace();

    report.numOps = trace.countOf(trace::EventKind::Operator);

    // First root ATen operator begin (Eq. 4's ts_b(p_1)).
    std::int64_t first_op_begin = 0;
    bool have_op = false;
    for (std::uint64_t root : graph.rootOps()) {
        std::int64_t b = trace.byId(root).tsBeginNs;
        if (!have_op || b < first_op_begin) {
            first_op_begin = b;
            have_op = true;
        }
    }

    // Per-kernel statistics in first-seen order, found by a view of
    // the trace's names: each distinct name is copied once.
    std::unordered_map<std::string_view, std::size_t> slot_of;
    std::int64_t last_kernel_end = 0;
    bool have_kernel = false;
    std::vector<double> launch_latencies;

    for (const auto &link : graph.kernels()) {
        const trace::TraceEvent &k = trace.byId(link.kernelId);
        if (k.kind != trace::EventKind::Kernel)
            continue;
        report.tklqtNs += static_cast<double>(link.launchToStartNs);
        launch_latencies.push_back(
            static_cast<double>(link.launchToStartNs));
        report.gpuBusyNs += static_cast<double>(k.durNs);
        ++report.numKernels;
        last_kernel_end = std::max(last_kernel_end, k.tsEndNs());
        have_kernel = true;

        auto [slot, fresh] =
            slot_of.try_emplace(k.name, report.byKernel.size());
        if (fresh)
            report.byKernel.emplace_back().name = k.name;
        KernelStat &stat = report.byKernel[slot->second];
        ++stat.count;
        stat.totalDurNs += static_cast<double>(k.durNs);
        stat.totalLaunchNs += static_cast<double>(link.launchToStartNs);
    }

    if (!have_kernel)
        return report;

    // Queuing share of TKLQT: latency above the pure-launch baseline.
    report.launchBaselineNs =
        stats::percentile(launch_latencies, 10.0);
    for (double latency : launch_latencies) {
        report.tklqtQueueNs +=
            std::max(0.0, latency - report.launchBaselineNs);
    }

    report.akdNs =
        report.gpuBusyNs / static_cast<double>(report.numKernels);
    report.avgLaunchNs =
        report.tklqtNs / static_cast<double>(report.numKernels);

    if (have_op) {
        report.ilNs =
            static_cast<double>(last_kernel_end - first_op_begin);
        report.gpuIdleNs = std::max(0.0, report.ilNs - report.gpuBusyNs);

        for (std::uint64_t root : graph.rootOps()) {
            const trace::TraceEvent &op = trace.byId(root);
            // Only CPU time inside the IL window counts as busy.
            std::int64_t end = std::min(op.tsEndNs(), last_kernel_end);
            if (end > op.tsBeginNs)
                report.cpuBusyNs += static_cast<double>(
                    end - op.tsBeginNs);
        }
        report.cpuIdleNs = std::max(0.0, report.ilNs - report.cpuBusyNs);
    }

    // Count descending, then name ascending: names are distinct, so
    // the order is total.
    std::sort(report.byKernel.begin(), report.byKernel.end(),
              [](const KernelStat &a, const KernelStat &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.name < b.name;
              });
    return report;
}

} // namespace skipsim::skip

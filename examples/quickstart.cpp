/**
 * @file
 * Quickstart: profile one LLM prefill on one platform with SKIP and
 * print the paper's metrics (TKLQT, AKD, IL, idle times, top-k
 * kernels), then export the trace for chrome://tracing / Perfetto.
 *
 * Usage: quickstart [--model GPT2] [--platform GH200] [--batch 1]
 *                   [--seq 512] [--mode eager] [--trace out.json]
 *                   [--model-file m.json] [--platform-file p.json]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "hw/serde.hh"
#include "skip/dep_graph.hh"
#include "skip/op_breakdown.hh"
#include "skip/profile.hh"
#include "trace/chrome.hh"
#include "trace/timeline.hh"
#include "workload/model_config.hh"
#include "workload/serde.hh"

using namespace skipsim;

int
main(int argc, char **argv)
try {
    CliArgs args(argc, argv);

    workload::ModelConfig model = args.has("model-file")
        ? workload::loadModel(args.getString("model-file"))
        : workload::modelByName(args.getString("model", "GPT2"));
    hw::Platform platform = args.has("platform-file")
        ? hw::loadPlatform(args.getString("platform-file"))
        : hw::platforms::byName(args.getString("platform", "GH200"));
    workload::BuildOptions build;
    build.batch = args.getInt("batch", 1);
    build.seqLen = args.getInt("seq", 512);
    build.mode = workload::execModeByName(args.getString("mode", "eager"));

    std::printf("SKIP profile: %s on %s (%s), batch=%d, seq=%d, %s\n\n",
                model.name.c_str(), platform.name.c_str(),
                hw::couplingName(platform.coupling), build.batch,
                build.seqLen, workload::execModeName(build.mode));

    skip::ProfileResult result = skip::profile(model, platform, build);
    std::fputs(result.metrics.render().c_str(), stdout);

    std::puts("\nTop-5 kernels by launch count:");
    for (const auto &stat :
         result.metrics.topK(5, skip::TopKBy::Count)) {
        std::printf("  %-40s x%-4zu mean dur %-10s mean launch %s\n",
                    stat.name.c_str(), stat.count,
                    formatNs(stat.meanDurNs()).c_str(),
                    formatNs(stat.meanLaunchNs()).c_str());
    }

    std::puts("");
    skip::DependencyGraph dep = skip::DependencyGraph::build(result.trace);
    std::fputs(skip::computeOpBreakdown(dep).render(8).c_str(), stdout);

    std::puts("");
    trace::TimelineOptions timeline_opts;
    timeline_opts.width = 92;
    std::fputs(trace::renderTimeline(result.trace, timeline_opts).c_str(),
               stdout);

    if (args.has("trace")) {
        std::string path = args.getString("trace");
        trace::writeChromeFile(path, result.trace);
        std::printf("\ntrace written to %s (open in chrome://tracing)\n",
                    path.c_str());
    }
    return 0;
} catch (const FatalError &err) {
    std::fprintf(stderr, "quickstart: %s\n", err.what());
    return 1;
}

/**
 * @file
 * Extension experiment: speculative decoding vs coupling paradigm.
 * Draft steps are launch-dominated micro-forwards, so the speedup a
 * draft model can deliver is gated by CPU dispatch speed — the same
 * bottleneck the paper identifies for GH200 at low batch. Reports
 * effective TPOT speedup per platform across draft lengths k.
 *
 * Usage: ext_speculative_decoding [--draft TinyLlama-1.1B]
 *        [--target Llama-2-7B] [--accept 0.7] [--context 512] [--csv]
 */

#include <cstdio>

#include "analysis/speculative.hh"
#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "hw/catalog.hh"
#include "workload/model_config.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    workload::ModelConfig draft = workload::modelByName(
        args.getString("draft", "TinyLlama-1.1B"));
    workload::ModelConfig target = workload::modelByName(
        args.getString("target", "Llama-2-7B"));
    double accept = args.getDouble("accept", 0.7);
    int context = args.getInt("context", 512);

    for (auto mode : {workload::ExecMode::Eager,
                      workload::ExecMode::CompileReduceOverhead}) {
        TextTable table(strprintf(
            "Speculative decoding (%s): %s drafting for %s "
            "(accept %.2f, context %d) - TPOT speedup vs plain "
            "decoding",
            workload::execModeName(mode), draft.name.c_str(),
            target.name.c_str(), accept, context));
        table.setHeader({"Platform", "baseline TPOT (ms)", "k=2",
                         "k=4", "k=8"});

        workload::BuildOptions shape;
        shape.seqLen = context;
        shape.mode = mode;
        for (const auto &platform : hw::platforms::paperTrio()) {
            std::vector<std::string> row{platform.name};
            double baseline = 0.0;
            for (int k : {2, 4, 8}) {
                analysis::SpeculativeResult result =
                    analysis::evaluateSpeculative(
                        platform, {draft, target, k, accept}, shape);
                baseline = result.baselineTpotNs;
                if (row.size() == 1)
                    row.push_back(strprintf("%.2f", baseline / 1e6));
                row.push_back(strprintf("%.2fx", result.speedup));
            }
            table.addRow(row);
        }
        std::fputs(args.has("csv") ? table.renderCsv().c_str()
                                   : table.render().c_str(),
                   stdout);
        std::puts("");
    }

    std::puts("Key takeaway: speculation multiplies small launches - "
              "k draft forwards per verified batch - so its payoff is "
              "largest where CPU dispatch is fast and shrinks on the "
              "Grace CPU; on CC systems, kernel-launch optimization "
              "(the paper's fusion recommendation) is a prerequisite "
              "for speculative decoding to pay off.");
    return 0;
}

/**
 * @file
 * Extension experiment: decode-phase characterization. The paper
 * evaluates prefill (TTFT) only; this bench extends the comparison to
 * autoregressive decoding — TTFT, mean time-per-output-token (TPOT)
 * and aggregate decode throughput per platform and batch size. Decode
 * steps launch a full kernel count for ~1/seq of the work, so the
 * launch tax dominates and the CPU gap between coupling paradigms is
 * at its widest.
 *
 * Usage: ext_generation_tpot [--model Llama-3.2-1B] [--prompt 512]
 *                            [--tokens 16] [--csv]
 */

#include <cstdio>

#include "analysis/generation.hh"
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
    workload::ModelConfig model =
        workload::modelByName(args.getString("model", "Llama-3.2-1B"));
    int prompt = args.getInt("prompt", 512);
    int tokens = args.getInt("tokens", 16);

    TextTable table(strprintf(
        "Decode-phase extension: %s, prompt=%d, %d generated tokens",
        model.name.c_str(), prompt, tokens));
    table.setHeader({"Platform", "Batch", "TTFT (ms)", "TPOT (ms)",
                     "tok/s", "E2E (ms)"});

    for (const auto &platform : hw::platforms::paperTrio()) {
        for (int batch : {1, 8, 32}) {
            workload::BuildOptions shape;
            shape.batch = batch;
            shape.seqLen = prompt;
            analysis::GenerationResult result =
                analysis::simulateGeneration(model, platform, shape,
                                             tokens);
            table.addRow({platform.name, std::to_string(batch),
                          strprintf("%.2f", result.ttftNs / 1e6),
                          strprintf("%.3f", result.tpotNs() / 1e6),
                          strprintf("%.0f",
                                    result.tokensPerSecond(batch)),
                          strprintf("%.2f", result.totalNs / 1e6)});
        }
    }
    std::fputs(args.has("csv") ? table.renderCsv().c_str()
                               : table.render().c_str(),
               stdout);

    std::puts("\nKey takeaway: TPOT is launch-dominated, so the Grace "
              "CPU's single-thread deficit shows up almost undiluted in "
              "per-token latency, while batchable decode throughput "
              "still favours the high-bandwidth CC system - the "
              "paper's prefill conclusions sharpen further in the "
              "decode phase.");
    return 0;
}

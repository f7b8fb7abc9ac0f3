/**
 * @file
 * RAG / agentic-pipeline scenario (paper Sec. I and II-A): a chained
 * pipeline where an encoder reranker feeds a decoder generator. Each
 * stage's prefill latency is simulated per platform and summed;
 * because stage outputs feed stage inputs, per-stage latency (not
 * throughput) governs the user-visible response time. The example
 * shows how batch-size pressure compounds across the chain and which
 * coupling paradigm keeps the end-to-end TTFT inside an SLO.
 *
 * Usage: rag_pipeline [--reranker Bert-Base-Uncased]
 *                     [--generator Llama-3.2-1B] [--seq 512]
 *                     [--candidates 8] [--slo-ms 200]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "hw/catalog.hh"
#include "skip/profile.hh"
#include "workload/model_config.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    workload::ModelConfig reranker = workload::modelByName(
        args.getString("reranker", "Bert-Base-Uncased"));
    workload::ModelConfig generator = workload::modelByName(
        args.getString("generator", "Llama-3.2-1B"));
    int seq = args.getInt("seq", 512);
    int candidates = args.getInt("candidates", 8);
    double slo_ms = args.getDouble("slo-ms", 200.0);

    std::printf("RAG pipeline: rerank %d candidates with %s, then "
                "generate with %s (seq=%d)\n\n",
                candidates, reranker.name.c_str(),
                generator.name.c_str(), seq);

    TextTable table("End-to-end time-to-first-token per platform (ms)");
    table.setHeader({"Platform", "Rerank", "Generate", "Total",
                     strprintf("SLO %.0fms", slo_ms)});

    for (const auto &platform : hw::platforms::all()) {
        // Stage 1: the reranker scores all retrieved candidates in one
        // batch (batch = candidate count).
        skip::ProfileResult rerank = skip::profilePrefill(
            reranker, platform, candidates, seq);
        // Stage 2: the generator prefills the winning context at
        // batch 1 (a single user turn).
        skip::ProfileResult generate =
            skip::profilePrefill(generator, platform, 1, seq);

        double rerank_ms = rerank.ttftNs() / 1e6;
        double gen_ms = generate.ttftNs() / 1e6;
        double total_ms = rerank_ms + gen_ms;
        table.addRow({platform.name,
                      strprintf("%.2f", rerank_ms),
                      strprintf("%.2f", gen_ms),
                      strprintf("%.2f", total_ms),
                      total_ms <= slo_ms ? "ok" : "MISS"});
    }
    std::fputs(table.render().c_str(), stdout);

    // Sensitivity: how does widening retrieval (more candidates)
    // stress each coupling paradigm?
    std::puts("\nRerank-stage latency vs candidate count:");
    TextTable sens("");
    std::vector<std::string> header{"Candidates"};
    for (const auto &platform : hw::platforms::all())
        header.push_back(platform.name);
    sens.setHeader(header);
    for (int n : {4, 8, 16, 32, 64}) {
        std::vector<std::string> row{std::to_string(n)};
        for (const auto &platform : hw::platforms::all()) {
            skip::ProfileResult run =
                skip::profilePrefill(reranker, platform, n, seq);
            row.push_back(strprintf("%.2f", run.ttftNs() / 1e6));
        }
        sens.addRow(row);
    }
    std::fputs(sens.render().c_str(), stdout);

    std::puts("\nKey takeaway: chained stages accumulate latency, so "
              "every stage must stay in its platform's low-latency "
              "region; wide reranking favours the CC/TC systems while "
              "the single-stream generation stage favours strong CPUs "
              "- a mixed fleet (or a TC part) covers both.");
    return 0;
}

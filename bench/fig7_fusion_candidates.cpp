/**
 * @file
 * Regenerates paper Fig. 7 (a-d): the scalable kernel-fusion
 * recommendation metrics from SKIP during prefill on Intel+H100 —
 * unique fusion chains, total instances, kernels fused with PS=1, and
 * eager-mode kernel launches (K_eager) across batch sizes and chain
 * lengths, for GPT2 and XLM-Roberta-Base.
 *
 * Usage: fig7_fusion_candidates [--seq 512] [--batches 1,2,4,8,16,32]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "fusion/proximity.hh"
#include "hw/catalog.hh"
#include "skip/profile.hh"
#include "workload/model_config.hh"

using namespace skipsim;

namespace
{

void
reportModel(const workload::ModelConfig &model, int seq,
            const std::vector<int> &batches, bool csv)
{
    hw::Platform intel = hw::platforms::intelH100();
    auto lengths = fusion::defaultChainLengths();

    // Mine every (batch, length) cell once.
    std::vector<std::vector<fusion::ChainStats>> cells;
    std::vector<std::size_t> k_eager;
    for (int batch : batches) {
        skip::ProfileResult run =
            skip::profilePrefill(model, intel, batch, seq);
        fusion::ProximityAnalyzer analyzer(
            fusion::kernelSequenceFromTrace(run.trace));
        k_eager.push_back(analyzer.sequenceLength());
        std::vector<fusion::ChainStats> row;
        for (std::size_t length : lengths)
            row.push_back(analyzer.analyze(length));
        cells.push_back(std::move(row));
    }

    auto heatmap = [&](const char *title,
                       std::size_t (fusion::ChainStats::*field)) {
        TextTable table(strprintf("Fig. 7: %s - %s (rows: batch, "
                                  "cols: chain length)",
                                  model.name.c_str(), title));
        std::vector<std::string> header{"Batch"};
        for (std::size_t length : lengths)
            header.push_back("L=" + std::to_string(length));
        table.setHeader(header);
        for (std::size_t bi = 0; bi < batches.size(); ++bi) {
            std::vector<std::string> row{std::to_string(batches[bi])};
            for (std::size_t li = 0; li < lengths.size(); ++li)
                row.push_back(
                    std::to_string(cells[bi][li].*field));
            table.addRow(row);
        }
        std::fputs(csv ? table.renderCsv().c_str()
                       : table.render().c_str(),
                   stdout);
        std::puts("");
    };

    heatmap("(a) unique fusion chains detected",
            &fusion::ChainStats::uniqueChains);
    heatmap("(b) total instances of detected chains",
            &fusion::ChainStats::totalInstances);
    heatmap("(c) kernels fused with proximity score = 1",
            &fusion::ChainStats::kernelsFused);

    TextTable keager(strprintf(
        "Fig. 7: %s - (d) eager-mode kernel launches K_eager",
        model.name.c_str()));
    keager.setHeader({"Batch", "K_eager"});
    for (std::size_t bi = 0; bi < batches.size(); ++bi)
        keager.addRow({std::to_string(batches[bi]),
                       std::to_string(k_eager[bi])});
    std::fputs(csv ? keager.renderCsv().c_str()
                   : keager.render().c_str(),
               stdout);
    std::puts("");
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    int seq = args.getInt("seq", 512);
    std::vector<int> batches =
        args.getIntList("batches", {1, 2, 4, 8, 16, 32});

    reportModel(workload::gpt2(), seq, batches, args.has("csv"));
    reportModel(workload::xlmRobertaBase(), seq, batches,
                args.has("csv"));

    std::puts("Key takeaway: short chains are plentiful but mostly "
              "non-deterministic; as L grows the unique-chain count "
              "stabilizes while instances shrink, and only a few "
              "non-overlapping deterministic (PS=1) chains survive - "
              "yet those few long chains fuse the most kernels.");
    return 0;
}

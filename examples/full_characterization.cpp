/**
 * @file
 * Full characterization artifact: run the complete analysis pipeline
 * for a model across every catalog platform and write a markdown
 * report plus a machine-readable JSON bundle — the deliverable a
 * platform-selection study would produce.
 *
 * Usage: full_characterization [--model Llama-3.2-1B] [--seq 512]
 *                              [--out characterization]
 */

#include <cstdio>

#include "analysis/report.hh"
#include "common/cli.hh"
#include "hw/catalog.hh"
#include "json/writer.hh"
#include "workload/model_config.hh"

using namespace skipsim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    workload::ModelConfig model = workload::modelByName(
        args.getString("model", "Llama-3.2-1B"));
    int seq = args.getInt("seq", 512);
    std::string out = args.getString("out", "characterization");

    analysis::CharacterizationReport report = analysis::characterize(
        model, hw::platforms::all(), seq);

    std::string markdown = report.renderMarkdown();
    std::fputs(markdown.c_str(), stdout);

    std::string md_path = out + ".md";
    std::string json_path = out + ".json";
    {
        FILE *f = std::fopen(md_path.c_str(), "w");
        if (f) {
            std::fputs(markdown.c_str(), f);
            std::fclose(f);
        }
    }
    json::writeFile(json_path, report.toJson());
    std::printf("\nwritten: %s, %s\n", md_path.c_str(),
                json_path.c_str());
    return 0;
}

#include "exec/sweep_spec.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "hw/serde.hh"
#include "json/parser.hh"
#include "json/schema.hh"
#include "json/writer.hh"
#include "workload/serde.hh"

namespace skipsim::exec
{

std::size_t
SweepSpec::size() const
{
    return models.size() * platforms.size() * batches.size() *
        seqLens.size() * modes.size();
}

void
SweepSpec::validate() const
{
    if (models.empty())
        fatal("SweepSpec: no models");
    if (platforms.empty())
        fatal("SweepSpec: no platforms");
    if (batches.empty())
        fatal("SweepSpec: no batches");
    if (seqLens.empty())
        fatal("SweepSpec: no seqLens");
    if (modes.empty())
        fatal("SweepSpec: no modes");
}

RunSpec
SweepSpec::at(std::size_t index) const
{
    validate();
    if (index >= size())
        fatal(strprintf("SweepSpec: point %zu out of range (size %zu)",
                        index, size()));

    // Mixed-radix decode; mode varies fastest, model slowest.
    std::size_t rest = index;
    std::size_t mode_i = rest % modes.size();
    rest /= modes.size();
    std::size_t seq_i = rest % seqLens.size();
    rest /= seqLens.size();
    std::size_t batch_i = rest % batches.size();
    rest /= batches.size();
    std::size_t platform_i = rest % platforms.size();
    rest /= platforms.size();
    std::size_t model_i = rest;

    RunSpec spec = RunSpec::of(models[model_i])
                       .on(platforms[platform_i])
                       .batch(batches[batch_i])
                       .seqLen(seqLens[seq_i])
                       .mode(modes[mode_i])
                       .seed(mixSeed(baseSeed, index))
                       .jitter(jitter, jitterFrac);
    for (const auto &[key, value] : options)
        spec.opt(key, value);
    for (const auto &[key, value] : strOptions)
        spec.strOpt(key, value);
    return spec;
}

std::vector<RunSpec>
SweepSpec::expand() const
{
    validate();
    std::vector<RunSpec> points;
    points.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
        points.push_back(at(i));
    return points;
}

json::Value
SweepSpec::toJson() const
{
    json::Object doc;
    json::stampSchemaVersion(doc);

    json::Value::Array model_names;
    for (const auto &model : models)
        model_names.emplace_back(model.name);
    doc.set("models", std::move(model_names));

    json::Value::Array platform_names;
    for (const auto &platform : platforms)
        platform_names.emplace_back(platform.name);
    doc.set("platforms", std::move(platform_names));

    json::Value::Array batch_list;
    for (int batch : batches)
        batch_list.emplace_back(batch);
    doc.set("batches", std::move(batch_list));

    json::Value::Array seq_list;
    for (int seq : seqLens)
        seq_list.emplace_back(seq);
    doc.set("seqLens", std::move(seq_list));

    json::Value::Array mode_names;
    for (workload::ExecMode mode : modes)
        mode_names.emplace_back(workload::execModeName(mode));
    doc.set("modes", std::move(mode_names));

    doc.set("seed", static_cast<unsigned long long>(baseSeed));
    doc.set("jitter", jitter);
    if (jitter)
        doc.set("jitter_frac", jitterFrac);
    if (!options.empty()) {
        json::Object opts;
        for (const auto &[key, value] : options)
            opts.set(key, value);
        doc.set("options", std::move(opts));
    }
    if (!strOptions.empty()) {
        json::Object opts;
        for (const auto &[key, value] : strOptions)
            opts.set(key, value);
        doc.set("str_options", std::move(opts));
    }
    return doc;
}

SweepSpec
SweepSpec::fromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    json::checkSchemaVersion(obj, "SweepSpec");
    SweepSpec spec;

    if (!obj.has("models"))
        fatal("SweepSpec: missing 'models' array");
    for (const auto &entry : obj.at("models").asArray()) {
        spec.models.push_back(entry.isString()
                                  ? workload::modelByName(entry.asString())
                                  : workload::modelFromJson(entry));
    }

    if (!obj.has("platforms"))
        fatal("SweepSpec: missing 'platforms' array");
    for (const auto &entry : obj.at("platforms").asArray()) {
        spec.platforms.push_back(entry.isString()
                                     ? hw::platforms::byName(entry.asString())
                                     : hw::platformFromJson(entry));
    }

    auto int_axis = [&obj](const char *key, std::vector<int> def) {
        if (!obj.has(key))
            return def;
        std::vector<int> out;
        for (const auto &entry : obj.at(key).asArray())
            out.push_back(json::intValue(entry, key));
        return out;
    };
    spec.batches = int_axis("batches", spec.batches);
    spec.seqLens = int_axis("seqLens", spec.seqLens);

    if (obj.has("modes")) {
        spec.modes.clear();
        for (const auto &entry : obj.at("modes").asArray())
            spec.modes.push_back(
                workload::execModeByName(entry.asString()));
    }

    if (obj.has("seed"))
        spec.baseSeed = json::uint64Member(obj, "seed");
    if (obj.has("jitter"))
        spec.jitter = obj.at("jitter").asBool();
    if (obj.has("jitter_frac"))
        spec.jitterFrac = obj.at("jitter_frac").asDouble();
    if (const json::Value *options = obj.find("options"))
        for (const json::Member &member : options->asObject())
            spec.options[member.key] = member.value.asDouble();
    if (const json::Value *options = obj.find("str_options"))
        for (const json::Member &member : options->asObject())
            spec.strOptions[member.key] = member.value.asString();

    spec.validate();
    return spec;
}

SweepSpec
SweepSpec::load(const std::string &path)
{
    return fromJson(json::parseFile(path));
}

void
SweepSpec::save(const std::string &path) const
{
    json::writeFile(path, toJson());
}

} // namespace skipsim::exec

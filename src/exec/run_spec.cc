#include "exec/run_spec.hh"

#include "common/logging.hh"
#include "common/strutil.hh"
#include "hw/catalog.hh"
#include "hw/serde.hh"
#include "json/schema.hh"
#include "workload/serde.hh"

namespace skipsim::exec
{

RunSpec::RunSpec() = default;

RunSpec
RunSpec::of(const workload::ModelConfig &model)
{
    RunSpec spec;
    spec._model = model;
    return spec;
}

RunSpec
RunSpec::of(const std::string &model_name)
{
    return of(workload::modelByName(model_name));
}

RunSpec &
RunSpec::on(const hw::Platform &platform)
{
    _platform = platform;
    return *this;
}

RunSpec &
RunSpec::on(const std::string &platform_name)
{
    return on(hw::platforms::byName(platform_name));
}

RunSpec &
RunSpec::batch(int n)
{
    if (n <= 0)
        fatal("RunSpec: batch must be positive");
    _build.batch = n;
    return *this;
}

RunSpec &
RunSpec::seqLen(int n)
{
    if (n <= 0)
        fatal("RunSpec: seqLen must be positive");
    _build.seqLen = n;
    return *this;
}

RunSpec &
RunSpec::mode(workload::ExecMode m)
{
    _build.mode = m;
    return *this;
}

RunSpec &
RunSpec::mode(const std::string &mode_name)
{
    return mode(workload::execModeByName(mode_name));
}

RunSpec &
RunSpec::seed(std::uint64_t s)
{
    _sim.seed = s;
    return *this;
}

RunSpec &
RunSpec::jitter(bool on, double frac)
{
    _sim.jitter = on;
    _sim.jitterFrac = frac;
    return *this;
}

RunSpec &
RunSpec::opt(const std::string &key, double value)
{
    _options[key] = value;
    return *this;
}

double
RunSpec::opt(const std::string &key, double def) const
{
    auto it = _options.find(key);
    return it == _options.end() ? def : it->second;
}

int
RunSpec::intOpt(const std::string &key, int def) const
{
    return json::intValue(json::Value(opt(key, def)), key);
}

RunSpec &
RunSpec::strOpt(const std::string &key, const std::string &value)
{
    _strOptions[key] = value;
    return *this;
}

std::string
RunSpec::strOpt(const std::string &key, const std::string &def) const
{
    auto it = _strOptions.find(key);
    return it == _strOptions.end() ? def : it->second;
}

std::string
RunSpec::label() const
{
    return strprintf("%s/%s b%d s%d %s seed%llu", _model.name.c_str(),
                     _platform.name.c_str(), _build.batch, _build.seqLen,
                     workload::execModeName(_build.mode),
                     static_cast<unsigned long long>(_sim.seed));
}

serving::ServingConfig
RunSpec::servingConfig() const
{
    serving::ServingConfig config;
    config.arrivalRatePerSec = opt("rate", config.arrivalRatePerSec);
    config.horizonSec = opt("horizon-sec", config.horizonSec);
    config.maxBatch = intOpt("max-batch", config.maxBatch);
    config.maxWaitNs = opt("max-wait-ms", config.maxWaitNs / 1e6) * 1e6;
    config.seed = _sim.seed;
    return config;
}

json::Value
RunSpec::toJson() const
{
    json::Object doc;
    json::stampSchemaVersion(doc);
    doc.set("model", _model.name);
    doc.set("platform", _platform.name);
    doc.set("batch", _build.batch);
    doc.set("seq", _build.seqLen);
    doc.set("mode", workload::execModeName(_build.mode));
    doc.set("seed", static_cast<unsigned long long>(_sim.seed));
    doc.set("jitter", _sim.jitter);
    if (_sim.jitter)
        doc.set("jitter_frac", _sim.jitterFrac);
    if (!_options.empty()) {
        json::Object options;
        for (const auto &[key, value] : _options)
            options.set(key, value);
        doc.set("options", std::move(options));
    }
    if (!_strOptions.empty()) {
        json::Object options;
        for (const auto &[key, value] : _strOptions)
            options.set(key, value);
        doc.set("str_options", std::move(options));
    }
    return doc;
}

RunSpec
RunSpec::fromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    json::checkSchemaVersion(obj, "RunSpec");
    RunSpec spec;
    if (obj.has("model")) {
        const json::Value &model = obj.at("model");
        spec._model = model.isString()
            ? workload::modelByName(model.asString())
            : workload::modelFromJson(model);
    }
    if (obj.has("platform")) {
        const json::Value &platform = obj.at("platform");
        spec._platform = platform.isString()
            ? hw::platforms::byName(platform.asString())
            : hw::platformFromJson(platform);
    }
    if (obj.has("batch"))
        spec.batch(json::intValue(obj.at("batch"), "batch"));
    if (obj.has("seq"))
        spec.seqLen(json::intValue(obj.at("seq"), "seq"));
    if (obj.has("mode"))
        spec.mode(obj.at("mode").asString());
    if (obj.has("seed"))
        spec.seed(json::uint64Member(obj, "seed"));
    if (obj.has("jitter"))
        spec._sim.jitter = obj.at("jitter").asBool();
    if (obj.has("jitter_frac"))
        spec._sim.jitterFrac = obj.at("jitter_frac").asDouble();
    if (const json::Value *options = obj.find("options"))
        for (const json::Member &member : options->asObject())
            spec._options[member.key] = member.value.asDouble();
    if (const json::Value *options = obj.find("str_options"))
        for (const json::Member &member : options->asObject())
            spec._strOptions[member.key] = member.value.asString();
    return spec;
}

} // namespace skipsim::exec

#include "workload/serde.hh"

#include "common/logging.hh"
#include "json/parser.hh"
#include "json/writer.hh"

namespace skipsim::workload
{

namespace
{

const char *
activationName(Activation act)
{
    switch (act) {
      case Activation::Gelu: return "gelu";
      case Activation::GeluNew: return "gelu_new";
      case Activation::SwiGlu: return "swiglu";
      case Activation::GeGlu: return "geglu";
    }
    panic("activationName: invalid Activation");
}

Activation
activationFromName(const std::string &name)
{
    if (name == "gelu")
        return Activation::Gelu;
    if (name == "gelu_new")
        return Activation::GeluNew;
    if (name == "swiglu")
        return Activation::SwiGlu;
    if (name == "geglu")
        return Activation::GeGlu;
    fatal("modelFromJson: unknown activation '" + name + "'");
}

} // namespace

json::Value
modelToJson(const ModelConfig &m)
{
    json::Object obj;
    obj.set("name", m.name);
    obj.set("family",
            m.family == ModelFamily::EncoderOnly ? "encoder-only"
                                                 : "decoder-only");
    obj.set("layers", m.layers);
    obj.set("hidden", m.hidden);
    obj.set("heads", m.heads);
    obj.set("kv_heads", m.kvHeads);
    obj.set("intermediate", m.intermediate);
    obj.set("vocab", m.vocab);
    obj.set("activation", activationName(m.activation));
    obj.set("norm",
            m.norm == NormKind::LayerNorm ? "layer_norm" : "rms_norm");
    obj.set("rotary", m.rotary);
    obj.set("fused_qkv", m.fusedQkv);
    obj.set("biases", m.biases);
    obj.set("pooler", m.pooler);
    return json::Value(std::move(obj));
}

ModelConfig
modelFromJson(const json::Value &doc)
{
    const json::Object &obj = doc.asObject();
    ModelConfig m;
    auto get_int = [&](const char *key, int def) {
        return obj.has(key) ? json::intValue(obj.at(key), key) : def;
    };
    auto get_bool = [&](const char *key, bool def) {
        return obj.has(key) ? obj.at(key).asBool() : def;
    };

    if (obj.has("name"))
        m.name = obj.at("name").asString();
    if (obj.has("family")) {
        const std::string &family = obj.at("family").asString();
        if (family == "encoder-only")
            m.family = ModelFamily::EncoderOnly;
        else if (family == "decoder-only")
            m.family = ModelFamily::DecoderOnly;
        else
            fatal("modelFromJson: unknown family '" + family + "'");
    }
    m.layers = get_int("layers", m.layers);
    m.hidden = get_int("hidden", m.hidden);
    m.heads = get_int("heads", m.heads);
    m.kvHeads = get_int("kv_heads", m.heads);
    m.intermediate = get_int("intermediate", m.intermediate);
    m.vocab = get_int("vocab", m.vocab);
    if (obj.has("activation"))
        m.activation = activationFromName(obj.at("activation").asString());
    if (obj.has("norm")) {
        const std::string &norm = obj.at("norm").asString();
        if (norm == "layer_norm")
            m.norm = NormKind::LayerNorm;
        else if (norm == "rms_norm")
            m.norm = NormKind::RmsNorm;
        else
            fatal("modelFromJson: unknown norm '" + norm + "'");
    }
    m.rotary = get_bool("rotary", m.rotary);
    m.fusedQkv = get_bool("fused_qkv", m.fusedQkv);
    m.biases = get_bool("biases", m.biases);
    m.pooler = get_bool("pooler", m.pooler);

    if (m.layers <= 0 || m.hidden <= 0 || m.heads <= 0 ||
        m.intermediate <= 0 || m.vocab <= 0) {
        fatal("modelFromJson: dimensions must be positive");
    }
    if (m.hidden % m.heads != 0)
        fatal("modelFromJson: hidden must be divisible by heads");
    if (m.kvHeads <= 0 || m.kvHeads > m.heads ||
        m.heads % m.kvHeads != 0) {
        fatal("modelFromJson: kv_heads must divide heads");
    }
    return m;
}

void
saveModel(const std::string &path, const ModelConfig &model)
{
    json::writeFile(path, modelToJson(model));
}

ModelConfig
loadModel(const std::string &path)
{
    return modelFromJson(json::parseFile(path));
}

} // namespace skipsim::workload

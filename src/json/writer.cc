#include "json/writer.hh"

#include <fstream>

#include "common/logging.hh"
#include "json/emitter.hh"

namespace skipsim::json
{

namespace
{

void
emitValue(Emitter &out, const Value &v)
{
    switch (v.kind()) {
      case Kind::Null:
        out.null();
        break;
      case Kind::Bool:
        out.boolean(v.asBool());
        break;
      case Kind::Number:
        out.number(v.asDouble());
        break;
      case Kind::String:
        out.string(v.asString());
        break;
      case Kind::Array:
        out.beginArray();
        for (const Value &item : v.asArray())
            emitValue(out, item);
        out.endArray();
        break;
      case Kind::Object:
        out.beginObject();
        for (const Member &member : v.asObject()) {
            out.key(member.key);
            emitValue(out, member.value);
        }
        out.endObject();
        break;
    }
}

std::string
writeIndented(const Value &value, int indent)
{
    std::string out;
    Emitter emitter(out, indent);
    emitValue(emitter, value);
    return out;
}

} // namespace

std::string
write(const Value &value)
{
    return writeIndented(value, -1);
}

std::string
writePretty(const Value &value)
{
    return writeIndented(value, 2);
}

void
writeFile(const std::string &path, const Value &value, bool pretty)
{
    writeTextFile(path, pretty ? writePretty(value) : write(value));
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("json: cannot open file '" + path + "' for writing");
    out << text;
    if (!out)
        fatal("json: write to '" + path + "' failed");
}

} // namespace skipsim::json

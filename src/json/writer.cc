#include "json/writer.hh"

#include <charconv>
#include <cmath>
#include <fstream>

#include "common/logging.hh"

namespace skipsim::json
{

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        // Copy the plain run before this character in one append.
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            out += "\\u00";
            out.push_back(kHex[c >> 4]);
            out.push_back(kHex[c & 0xf]);
        }
    }
    out.append(s, run, std::string::npos);
    out.push_back('"');
}

void
appendNumber(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        // JSON has no NaN/Inf; emit null, matching common tooling.
        out += "null";
        return;
    }
    // Integers below 2^53 print as "%lld" would; everything else as
    // "%.17g", which to_chars(general, 17) matches byte for byte.
    char buf[32];
    double rounded = std::nearbyint(d);
    std::to_chars_result res =
        d == rounded && std::abs(d) < 9.007199254740992e15
        ? std::to_chars(buf, buf + sizeof(buf),
                        static_cast<long long>(rounded))
        : std::to_chars(buf, buf + sizeof(buf), d,
                        std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

void
writeValue(std::string &out, const Value &v, int indent, int depth)
{
    auto newline = [&](int d) {
        if (indent >= 0) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };

    switch (v.kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case Kind::Number:
        appendNumber(out, v.asDouble());
        break;
      case Kind::String:
        appendEscaped(out, v.asString());
        break;
      case Kind::Array: {
        const auto &arr = v.asArray();
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            newline(depth + 1);
            writeValue(out, arr[i], indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      }
      case Kind::Object: {
        const auto &obj = v.asObject();
        if (obj.size() == 0) {
            out += "{}";
            break;
        }
        out.push_back('{');
        bool first = true;
        for (const Member &member : obj) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            appendEscaped(out, member.key);
            out.push_back(':');
            if (indent >= 0)
                out.push_back(' ');
            writeValue(out, member.value, indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
      }
    }
}

} // namespace

std::string
write(const Value &value)
{
    std::string out;
    writeValue(out, value, -1, 0);
    return out;
}

std::string
writePretty(const Value &value)
{
    std::string out;
    writeValue(out, value, 2, 0);
    return out;
}

void
writeFile(const std::string &path, const Value &value, bool pretty)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("json: cannot open file '" + path + "' for writing");
    out << (pretty ? writePretty(value) : write(value));
    if (!out)
        fatal("json: write to '" + path + "' failed");
}

} // namespace skipsim::json

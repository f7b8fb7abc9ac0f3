/**
 * @file
 * Streaming JSON writer: appends one document to a string as its
 * values are pushed, with no document tree in between. Compact output
 * has no whitespace; pretty output indents by a fixed step and writes
 * empty containers as [] and {}. json::write and json::writePretty
 * are a walk of a json::Value that pushes into an Emitter, so a
 * document pushed here is byte-identical to the same document built
 * as a Value and written.
 */

#ifndef SKIPSIM_JSON_EMITTER_HH
#define SKIPSIM_JSON_EMITTER_HH

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

namespace skipsim::json
{

namespace detail
{

/** Bytes a JSON string must escape: quote, backslash, controls. */
inline constexpr std::array<bool, 256> kEscape = [] {
    std::array<bool, 256> escape{};
    for (int c = 0; c < 0x20; ++c)
        escape[static_cast<std::size_t>(c)] = true;
    escape['"'] = true;
    escape['\\'] = true;
    return escape;
}();

/**
 * Append "%.17g" of @p d, a finite non-integer, when its magnitude is
 * in [1e-4, 2^53): the range where that format is fixed-point, which
 * holds the microsecond timestamps of every trace.
 * @return false, appending nothing, outside that range.
 */
bool appendSeventeenDigits(std::string &out, double d);

} // namespace detail

// The two appenders are inline: the DOM walk of json::write calls
// them once per string and number, and out of line they cost it
// about 5%.

/** Append @p s as a quoted, escaped JSON string. */
inline void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (!detail::kEscape[c])
            continue;
        // Copy the plain run before this character in one append.
        out.append(s.data() + run, i - run);
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
    out.append(s.data() + run, s.size() - run);
    out.push_back('"');
}

/**
 * Append @p d as a JSON number: integers below 2^53 in magnitude as
 * "%lld" would print them, other finite values as "%.17g", and
 * non-finite values as null.
 */
inline void
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
    const bool integer = d == rounded && std::abs(d) < 9.007199254740992e15;
    if (!integer && detail::appendSeventeenDigits(out, d))
        return;
    std::to_chars_result res = integer
        ? std::to_chars(buf, buf + sizeof(buf),
                        static_cast<long long>(rounded))
        : std::to_chars(buf, buf + sizeof(buf), d,
                        std::chars_format::general, 17);
    out.append(buf, res.ptr);
}



/** Writer; see file comment. */
class Emitter
{
  public:
    /**
     * Append to @p out, which must outlive the emitter. @p indent < 0
     * writes compact JSON, otherwise each level indents @p indent
     * spaces more.
     */
    explicit Emitter(std::string &out, int indent = -1)
        : _out(out), _indent(indent)
    {}

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** Name the next member of the open object. */
    void key(std::string_view name)
    {
        separate();
        appendEscaped(_out, name);
        _out.push_back(':');
        if (_indent >= 0)
            _out.push_back(' ');
        _next = Next::Nothing;
    }

    void string(std::string_view s)
    {
        separate();
        appendEscaped(_out, s);
    }

    void number(double d)
    {
        separate();
        appendNumber(_out, d);
    }

    /** Same text as number(static_cast<double>(i)). */
    void integer(std::int64_t i);

    void boolean(bool b)
    {
        separate();
        _out += b ? "true" : "false";
    }

    void null()
    {
        separate();
        _out += "null";
    }

  private:
    /**
     * What goes before the next value or key. An int, not a byte, so
     * that the compiler need not assume the characters appended to
     * the output overwrite it.
     */
    enum class Next : int
    {
        /** Nothing: the document's value, or a member's after its key. */
        Nothing,
        /** A line break: the first item of a container. */
        First,
        /** A comma and a line break: a later item. */
        Later,
    };

    void separate()
    {
        if (_next != Next::Nothing) {
            if (_next == Next::Later)
                _out.push_back(',');
            newline(_depth);
        }
        // After the document's one value nothing follows, so Later is
        // right at any depth.
        _next = Next::Later;
    }

    void newline(std::size_t depth)
    {
        if (_indent >= 0) {
            _out.push_back('\n');
            _out.append(static_cast<std::size_t>(_indent) * depth, ' ');
        }
    }

    void open(char bracket)
    {
        separate();
        _out.push_back(bracket);
        ++_depth;
        _next = Next::First;
    }

    void close(char bracket)
    {
        const bool items = _next == Next::Later;
        --_depth;
        if (items)
            newline(_depth);
        _out.push_back(bracket);
        _next = Next::Later;
    }

    std::string &_out;
    int _indent;
    /** Open containers. */
    std::size_t _depth = 0;
    Next _next = Next::Nothing;
};

} // namespace skipsim::json

#endif // SKIPSIM_JSON_EMITTER_HH

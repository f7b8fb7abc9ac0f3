#include "json/parser.hh"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::json
{

namespace
{

/** Deepest array/object nesting a document may have. */
constexpr int kMaxDepth = 512;

/** Internal cursor over the input text with position tracking. */
class Parser
{
  public:
    explicit Parser(std::string_view text)
        : _text(text)
    {}

    Value
    parseDocument()
    {
        skipWs();
        Value v = parseValue();
        skipWs();
        if (!atEnd())
            error("trailing characters after JSON document");
        return v;
    }

  private:
    std::string_view _text;
    std::size_t _pos = 0;
    int _depth = 0;
    /**
     * Members of every object still open, innermost last; each object
     * moves its own run out when it closes.
     */
    std::vector<Member> _memberStack;

    bool atEnd() const { return _pos >= _text.size(); }

    char
    peek() const
    {
        return atEnd() ? '\0' : _text[_pos];
    }

    char
    advance()
    {
        if (atEnd())
            error("unexpected end of input");
        return _text[_pos++];
    }

    void
    skipWs()
    {
        while (!atEnd()) {
            char c = _text[_pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++_pos;
            else
                break;
        }
    }

    [[noreturn]] void
    error(const std::string &msg) const
    {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < _pos && i < _text.size(); ++i) {
            if (_text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal(strprintf("json parse error at %zu:%zu: %s", line, col,
                        msg.c_str()));
    }

    void
    expect(char c)
    {
        if (peek() != c)
            error(strprintf("expected '%c'", c));
        ++_pos;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (_text.substr(_pos, lit.size()) != lit)
            return false;
        _pos += lit.size();
        return true;
    }

    /** Count one more open array/object; the cap bounds recursion. */
    void
    enter()
    {
        if (++_depth > kMaxDepth)
            error(strprintf("nesting deeper than %d levels", kMaxDepth));
    }

    Value
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Value(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            error("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            error("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value(nullptr);
            error("invalid literal");
          default:
            return parseNumber();
        }
    }

    Value
    parseObject()
    {
        enter();
        expect('{');
        const std::size_t base = _memberStack.size();
        skipWs();
        if (peek() == '}') {
            ++_pos;
            --_depth;
            return Value(Object{});
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                error("expected object key string");
            std::string key = parseString();
            skipWs();
            expect(':');
            Value value = parseValue();
            _memberStack.emplace_back(std::move(key), std::move(value));
            skipWs();
            char c = advance();
            if (c == '}')
                break;
            if (c != ',')
                error("expected ',' or '}' in object");
        }
        const auto first = _memberStack.begin() + static_cast<long>(base);
        std::vector<Member> members(
            std::make_move_iterator(first),
            std::make_move_iterator(_memberStack.end()));
        _memberStack.erase(first, _memberStack.end());
        --_depth;
        return Value(Object(std::move(members)));
    }

    Value
    parseArray()
    {
        enter();
        expect('[');
        Value::Array arr;
        skipWs();
        if (peek() == ']') {
            ++_pos;
            --_depth;
            return Value(std::move(arr));
        }
        while (true) {
            arr.push_back(parseValue());
            skipWs();
            char c = advance();
            if (c == ']')
                break;
            if (c != ',')
                error("expected ',' or ']' in array");
        }
        --_depth;
        return Value(std::move(arr));
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote, escape or control
            // character in one append.
            const std::size_t run = _pos;
            std::size_t end = run;
            while (end < _text.size()) {
                const auto c = static_cast<unsigned char>(_text[end]);
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                ++end;
            }
            out.append(_text.data() + run, end - run);
            _pos = end;
            char c = advance();
            if (c == '"')
                break;
            if (c == '\\') {
                char esc = advance();
                switch (esc) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': out += parseUnicodeEscape(); break;
                  default: error("invalid escape sequence");
                }
            } else {
                error("unescaped control character in string");
            }
        }
        return out;
    }

    std::string
    parseUnicodeEscape()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            char c = advance();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                error("invalid \\u escape");
        }
        // Encode as UTF-8 (surrogate pairs are not recombined; BMP only,
        // which is sufficient for trace names).
        std::string out;
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        return out;
    }

    bool
    atDigit() const
    {
        return _pos < _text.size() && _text[_pos] >= '0' &&
            _text[_pos] <= '9';
    }

    Value
    parseNumber()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        if (!atDigit())
            error("invalid number");
        while (atDigit())
            ++_pos;
        if (peek() == '.') {
            ++_pos;
            if (!atDigit())
                error("invalid number: digit expected after '.'");
            while (atDigit())
                ++_pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++_pos;
            if (peek() == '+' || peek() == '-')
                ++_pos;
            if (!atDigit())
                error("invalid number: digit expected in exponent");
            while (atDigit())
                ++_pos;
        }
        const char *first = _text.data() + start;
        const char *last = _text.data() + _pos;
        // The slice is validated JSON, which from_chars reads exactly
        // as strtod would, except that it reports overflow and
        // underflow instead of returning +-inf or a denormal/zero;
        // strtod supplies those values.
        double d = 0.0;
        if (std::from_chars(first, last, d).ec ==
            std::errc::result_out_of_range)
            d = std::strtod(std::string(first, last).c_str(), nullptr);
        return Value(d);
    }
};

} // namespace

Value
parse(const std::string &text)
{
    Parser parser(text);
    return parser.parseDocument();
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("json: cannot open file '" + path + "'");
    // One buffer sized from the file length. The length is only a
    // hint: a file can hold more than it reports (procfs reports 0,
    // a trace may still be growing) and a pipe reports none, so
    // whatever follows is appended up to the end of the stream.
    std::string text;
    std::error_code no_size;
    const std::uintmax_t size = std::filesystem::file_size(path, no_size);
    if (!no_size) {
        text.resize(size);
        if (!in.read(text.data(), static_cast<std::streamsize>(size)))
            fatal("json: short read on file '" + path + "'");
    }
    if (in.peek() != std::char_traits<char>::eof()) {
        std::ostringstream rest;
        rest << in.rdbuf();
        if (text.empty())
            text = std::move(rest).str();
        else
            text += rest.view();
    }
    return parse(text);
}

} // namespace skipsim::json

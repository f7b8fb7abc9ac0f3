#include "json/reader.hh"

#include <array>
#include <charconv>
#include <cstdlib>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::json
{

namespace
{

/** Bytes that end a plain run inside a string: quote, backslash, controls. */
constexpr std::array<bool, 256> kStringStop = [] {
    std::array<bool, 256> stop{};
    for (int c = 0; c < 0x20; ++c)
        stop[static_cast<std::size_t>(c)] = true;
    stop['"'] = true;
    stop['\\'] = true;
    return stop;
}();

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/**
 * Read the validated JSON number [@p first, @p last) into @p out when
 * it has at most 15 significant digits and a decimal exponent within
 * 10^+-22: the digits and the power of ten are then exact doubles, so
 * one multiplication or division rounds correctly and gives the value
 * from_chars would (Clinger's fast path). Most trace numbers are such
 * integers and short decimals.
 * @return false, leaving @p out alone, for every other number.
 */
bool
fastNumber(const char *first, const char *last, double &out)
{
    static constexpr double kPow10[] = {
        1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
        1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
        1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    const bool negative = *first == '-';
    const char *p = first + (negative ? 1 : 0);
    std::uint64_t digits = 0;
    int significant = 0;
    int exponent = 0;
    for (; p != last && isDigit(*p); ++p) {
        if (significant > 0 || *p != '0')
            ++significant;
        digits = digits * 10 + static_cast<unsigned>(*p - '0');
        if (significant > 15)
            return false;
    }
    if (p != last && *p == '.') {
        for (++p; p != last && isDigit(*p); ++p) {
            if (significant > 0 || *p != '0')
                ++significant;
            digits = digits * 10 + static_cast<unsigned>(*p - '0');
            --exponent;
            if (significant > 15)
                return false;
        }
    }
    if (p != last) {
        // An exponent: e or E, an optional sign, then digits.
        ++p;
        const bool minus = *p == '-';
        if (*p == '+' || *p == '-')
            ++p;
        int written = 0;
        for (; p != last; ++p) {
            written = written * 10 + (*p - '0');
            if (written > 1000)
                return false;
        }
        exponent += minus ? -written : written;
    }
    if (exponent < -22 || exponent > 22)
        return false;
    double value = static_cast<double>(digits);
    value = exponent < 0 ? value / kPow10[-exponent]
                         : value * kPow10[exponent];
    out = negative ? -value : value;
    return true;
}

} // namespace

Reader::Reader(std::string_view text) : _text(text) {}

void
Reader::error(const std::string &msg) const
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
Reader::skipWs()
{
    while (_pos < _text.size()) {
        const char c = _text[_pos];
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
            return;
        ++_pos;
    }
}

char
Reader::advance()
{
    if (_pos >= _text.size())
        error("unexpected end of input");
    return _text[_pos++];
}

Reader::Token
Reader::next()
{
    switch (_state) {
      case State::Value:
        return value();
      case State::FirstInArray:
        skipWs();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return close(Token::EndArray);
        }
        return value();
      case State::FirstInObject:
        skipWs();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return close(Token::EndObject);
        }
        return key();
      case State::KeyNext:
        return key();
      case State::AfterValue: {
        skipWs();
        const char c = advance();
        if (_open.back() == '[') {
            if (c == ']')
                return close(Token::EndArray);
            if (c != ',')
                error("expected ',' or ']' in array");
            return value();
        }
        if (c == '}')
            return close(Token::EndObject);
        if (c != ',')
            error("expected ',' or '}' in object");
        return key();
      }
      case State::Done:
        break;
    }
    skipWs();
    if (_pos < _text.size())
        error("trailing characters after JSON document");
    return Token::End;
}

void
Reader::skip(Token token)
{
    if (token != Token::BeginObject && token != Token::BeginArray)
        return;
    const std::size_t depth = _open.size();
    while (true) {
        const Token t = next();
        if ((t == Token::EndObject || t == Token::EndArray) &&
            _open.size() < depth)
            return;
    }
}

Reader::Token
Reader::close(Token token)
{
    _open.pop_back();
    _state = afterValue();
    return token;
}

Reader::Token
Reader::value()
{
    skipWs();
    const char c = _pos < _text.size() ? _text[_pos] : '\0';
    switch (c) {
      case '{':
      case '[':
        // The cap is checked before the bracket is consumed, so the
        // error names its position.
        if (_open.size() >= static_cast<std::size_t>(kMaxDepth))
            error(strprintf("nesting deeper than %d levels", kMaxDepth));
        _open.push_back(c);
        ++_pos;
        _state = c == '{' ? State::FirstInObject : State::FirstInArray;
        return c == '{' ? Token::BeginObject : Token::BeginArray;
      case '"':
        readString(_stringScratch);
        _state = afterValue();
        return Token::String;
      case 't':
        literal("true");
        return Token::True;
      case 'f':
        literal("false");
        return Token::False;
      case 'n':
        literal("null");
        return Token::Null;
      default:
        readNumber();
        _state = afterValue();
        return Token::Number;
    }
}

Reader::Token
Reader::key()
{
    skipWs();
    if (_pos >= _text.size() || _text[_pos] != '"')
        error("expected object key string");
    readString(_keyScratch);
    skipWs();
    if (_pos >= _text.size() || _text[_pos] != ':')
        error("expected ':'");
    ++_pos;
    _state = State::Value;
    return Token::Key;
}

void
Reader::literal(std::string_view word)
{
    if (_text.substr(_pos, word.size()) != word)
        error("invalid literal");
    _pos += word.size();
    _state = afterValue();
}

void
Reader::readString(std::string &scratch)
{
    const std::size_t start = ++_pos; // past the opening quote
    std::size_t end = start;
    while (end < _text.size() &&
           !kStringStop[static_cast<unsigned char>(_text[end])])
        ++end;
    if (end < _text.size() && _text[end] == '"') {
        // No escapes: the string is a slice of the input.
        _string = _text.substr(start, end - start);
        _pos = end + 1;
        return;
    }
    scratch.assign(_text.data() + start, end - start);
    _pos = end;
    while (true) {
        const char c = advance();
        if (c == '"')
            break;
        if (c == '\\')
            readEscape(scratch);
        else
            error("unescaped control character in string");
        // Copy the run up to the next quote, escape or control
        // character in one append.
        end = _pos;
        while (end < _text.size() &&
               !kStringStop[static_cast<unsigned char>(_text[end])])
            ++end;
        scratch.append(_text.data() + _pos, end - _pos);
        _pos = end;
    }
    _string = scratch;
}

void
Reader::readEscape(std::string &out)
{
    const char esc = advance();
    switch (esc) {
      case '"': out.push_back('"'); return;
      case '\\': out.push_back('\\'); return;
      case '/': out.push_back('/'); return;
      case 'b': out.push_back('\b'); return;
      case 'f': out.push_back('\f'); return;
      case 'n': out.push_back('\n'); return;
      case 'r': out.push_back('\r'); return;
      case 't': out.push_back('\t'); return;
      case 'u': break;
      default: error("invalid escape sequence");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
        const char c = advance();
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
}

void
Reader::readNumber()
{
    const std::size_t start = _pos;
    auto at_digit = [this] {
        return _pos < _text.size() && isDigit(_text[_pos]);
    };
    auto at = [this](char c) {
        return _pos < _text.size() && _text[_pos] == c;
    };
    if (at('-'))
        ++_pos;
    if (!at_digit())
        error("invalid number");
    while (at_digit())
        ++_pos;
    if (at('.')) {
        ++_pos;
        if (!at_digit())
            error("invalid number: digit expected after '.'");
        while (at_digit())
            ++_pos;
    }
    if (at('e') || at('E')) {
        ++_pos;
        if (at('+') || at('-'))
            ++_pos;
        if (!at_digit())
            error("invalid number: digit expected in exponent");
        while (at_digit())
            ++_pos;
    }
    const char *first = _text.data() + start;
    const char *last = _text.data() + _pos;
    if (fastNumber(first, last, _number))
        return;
    // The slice is validated JSON, which from_chars reads exactly as
    // strtod would, except that it reports overflow and underflow
    // instead of returning +-inf or a denormal/zero; strtod supplies
    // those values.
    if (std::from_chars(first, last, _number).ec ==
        std::errc::result_out_of_range)
        _number = std::strtod(std::string(first, last).c_str(), nullptr);
}

} // namespace skipsim::json

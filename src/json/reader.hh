/**
 * @file
 * Pull tokenizer over one JSON document in a byte buffer. Each next()
 * returns the following token and checks the grammar up to it, so a
 * caller that pulls every token sees the first syntax error in the
 * text, with the same line:column message json::parse reports (parse
 * is itself a Reader loop). Arrays and objects may nest at most 512
 * levels deep. No document tree is built: a caller keeps what it
 * needs and skips the rest.
 */

#ifndef SKIPSIM_JSON_READER_HH
#define SKIPSIM_JSON_READER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace skipsim::json
{

/** Deepest array/object nesting a document may have. */
inline constexpr int kMaxDepth = 512;

/** Tokenizer; see file comment. */
class Reader
{
  public:
    enum class Token : std::uint8_t
    {
        BeginObject,
        EndObject,
        BeginArray,
        EndArray,
        /** An object member name; the member's value follows. */
        Key,
        String,
        Number,
        True,
        False,
        Null,
        /** The document ended; every later call returns End again. */
        End,
    };

    /** Read @p text, which must outlive the reader. */
    explicit Reader(std::string_view text);

    /**
     * The next token.
     * @throws skipsim::FatalError "json parse error at L:C: ..." on
     *         the first syntax error.
     */
    Token next();

    /**
     * Decoded text of the last Key or String token. A key stays valid
     * until the next Key, a string until the next String.
     */
    std::string_view string() const { return _string; }

    /** Value of the last Number token. */
    double number() const { return _number; }

    /**
     * Skip the rest of the value whose first token was @p token: a
     * container's members through its closing bracket, nothing for a
     * scalar. The skipped text is still checked.
     */
    void skip(Token token);

  private:
    enum class State : std::uint8_t
    {
        Value,
        FirstInArray,
        FirstInObject,
        KeyNext,
        AfterValue,
        Done,
    };

    [[noreturn]] void error(const std::string &msg) const;
    void skipWs();
    char advance();
    Token value();
    Token key();
    Token close(Token token);
    /** State after a complete value at the current depth. */
    State afterValue() const
    {
        return _open.empty() ? State::Done : State::AfterValue;
    }
    /** Decode the string at the cursor into _string (@p scratch). */
    void readString(std::string &scratch);
    void readEscape(std::string &scratch);
    void readNumber();
    void literal(std::string_view word);

    std::string_view _text;
    std::size_t _pos = 0;
    State _state = State::Value;
    /** Open containers, innermost last: '{' or '['. */
    std::vector<char> _open;
    std::string_view _string;
    double _number = 0.0;
    /** Decoded keys and strings that held escapes. */
    std::string _keyScratch;
    std::string _stringScratch;
};

} // namespace skipsim::json

#endif // SKIPSIM_JSON_READER_HH

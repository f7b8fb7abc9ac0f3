/**
 * @file
 * A minimal JSON document model. Holds null / bool / number / string /
 * array / object values and provides checked accessors. Used for the
 * Chrome-trace import/export in skipsim::trace and for report
 * serialization; kept dependency-free on purpose.
 */

#ifndef SKIPSIM_JSON_VALUE_HH
#define SKIPSIM_JSON_VALUE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace skipsim::json
{

class Value;
struct Member;

/**
 * Ordered key/value object; insertion order preserved for stable
 * output. Members live in one flat vector. Objects of fewer than
 * kIndexMin members find keys by linear scan; larger ones keep an
 * open-addressing index of member positions, maintained by every
 * mutation (never built inside a const accessor, so a const document
 * is safe to read from several threads).
 */
class Object
{
  public:
    using const_iterator = std::vector<Member>::const_iterator;

    /** Member count from which lookups go through the hash index. */
    static constexpr std::size_t kIndexMin = 16;

    Object() = default;
    /**
     * Adopt @p members in order. Repeated keys fold as set() folds
     * them: first position, last value.
     */
    explicit Object(std::vector<Member> members);
    Object(const Object &other);
    Object &operator=(const Object &other);
    Object(Object &&) noexcept = default;
    Object &operator=(Object &&) noexcept = default;

    /**
     * Insert or overwrite a member. A repeated key keeps its first
     * position and takes the last value.
     */
    void set(std::string key, Value value);

    /** @return the member named @p key, or nullptr when absent. */
    const Value *find(std::string_view key) const;

    /** @return true when @p key is a member. */
    bool has(std::string_view key) const { return find(key) != nullptr; }

    /** Checked member access. @throws FatalError when absent. */
    const Value &at(std::string_view key) const;

    /** Member access with default fallback when absent. */
    const Value &get(std::string_view key, const Value &def) const;

    /** Members in insertion order. */
    const_iterator begin() const;
    const_iterator end() const;

    std::size_t size() const;

  private:
    /** Slot in _index holding @p key, or the empty slot it would take. */
    std::size_t slotOf(std::string_view key, std::size_t hash) const;
    void rebuildIndex();

    std::vector<Member> _members;
    /**
     * Open-addressing table of member positions + 1 (0 = empty slot),
     * sized to a power of two at least twice the member count; null
     * below kIndexMin members, and held by pointer so that the many
     * small objects stay small. Positions, not key pointers: member
     * strings move when the vector grows.
     */
    std::unique_ptr<std::vector<std::uint32_t>> _index;
};

/** Kinds a Value can hold. */
enum class Kind { Null, Bool, Number, String, Array, Object };

/**
 * A JSON value. Numbers are stored as double; integer fidelity is
 * preserved up to 2^53, which covers every nanosecond timestamp and
 * counter in this project.
 */
class Value
{
  public:
    using Array = std::vector<Value>;

    Value() : _data(nullptr) {}
    Value(std::nullptr_t) : _data(nullptr) {}
    Value(bool b) : _data(b) {}
    Value(double d) : _data(d) {}
    Value(int i) : _data(static_cast<double>(i)) {}
    Value(long i) : _data(static_cast<double>(i)) {}
    Value(long long i) : _data(static_cast<double>(i)) {}
    Value(unsigned long long i) : _data(static_cast<double>(i)) {}
    Value(unsigned long i) : _data(static_cast<double>(i)) {}
    Value(unsigned i) : _data(static_cast<double>(i)) {}
    Value(const char *s) : _data(std::string(s)) {}
    Value(std::string s) : _data(std::move(s)) {}
    Value(Array a) : _data(std::move(a)) {}
    Value(Object o) : _data(std::move(o)) {}

    Kind kind() const;

    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isNumber() const { return kind() == Kind::Number; }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isObject() const { return kind() == Kind::Object; }

    /** Checked accessors; each throws FatalError on kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    /** @throws FatalError unless an integer in [-2^63, 2^63). */
    std::int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        _data;
};

/** One object member. */
struct Member
{
    std::string key;
    Value value;
};

inline Object::const_iterator
Object::begin() const
{
    return _members.begin();
}

inline Object::const_iterator
Object::end() const
{
    return _members.end();
}

inline std::size_t
Object::size() const
{
    return _members.size();
}

/**
 * Member @p key of @p obj as an unsigned 64-bit integer (RNG seeds).
 * JSON numbers are doubles, so values above 2^53 arrive rounded; the
 * check makes the conversion defined, not exact.
 * @throws FatalError naming @p key unless the member is a finite,
 *         non-negative integer below 2^64.
 */
std::uint64_t uint64Member(const Object &obj, const std::string &key);

/**
 * @p value, read from member (or array) @p key, as an int.
 * @throws FatalError naming @p key unless @p value is an integer
 *         within int's range (asInt() alone would let a cast wrap it).
 */
int intValue(const Value &value, const std::string &key);

} // namespace skipsim::json

#endif // SKIPSIM_JSON_VALUE_HH

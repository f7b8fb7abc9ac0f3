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
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace skipsim::json
{

class Value;

/** Ordered key/value object; insertion order preserved for stable output. */
class Object
{
  public:
    /** Insert or overwrite a member. */
    void set(const std::string &key, Value value);

    /** @return true when @p key is a member. */
    bool has(const std::string &key) const;

    /** Checked member access. @throws FatalError when absent. */
    const Value &at(const std::string &key) const;

    /** Member access with default fallback when absent. */
    const Value &get(const std::string &key, const Value &def) const;

    /** Keys in insertion order. */
    const std::vector<std::string> &keys() const { return _keys; }

    std::size_t size() const { return _keys.size(); }

  private:
    std::vector<std::string> _keys;
    std::map<std::string, std::shared_ptr<Value>> _members;
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
    std::int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Mutable access for building documents in place. */
    Array &mutableArray();
    Object &mutableObject();

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        _data;
};

/**
 * Member @p key of @p obj as an unsigned 64-bit integer (RNG seeds).
 * JSON numbers are doubles, so values above 2^53 arrive rounded; the
 * check makes the conversion defined, not exact.
 * @throws FatalError naming @p key unless the member is a finite,
 *         non-negative integer below 2^64.
 */
std::uint64_t uint64Member(const Object &obj, const std::string &key);

} // namespace skipsim::json

#endif // SKIPSIM_JSON_VALUE_HH

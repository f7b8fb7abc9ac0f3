#include "json/value.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::json
{

void
Object::set(const std::string &key, Value value)
{
    auto it = _members.find(key);
    if (it == _members.end()) {
        _keys.push_back(key);
        _members.emplace(key, std::make_shared<Value>(std::move(value)));
    } else {
        *it->second = std::move(value);
    }
}

bool
Object::has(const std::string &key) const
{
    return _members.count(key) > 0;
}

const Value &
Object::at(const std::string &key) const
{
    auto it = _members.find(key);
    if (it == _members.end())
        fatal("json: missing object member '" + key + "'");
    return *it->second;
}

const Value &
Object::get(const std::string &key, const Value &def) const
{
    auto it = _members.find(key);
    return it == _members.end() ? def : *it->second;
}

Kind
Value::kind() const
{
    switch (_data.index()) {
      case 0: return Kind::Null;
      case 1: return Kind::Bool;
      case 2: return Kind::Number;
      case 3: return Kind::String;
      case 4: return Kind::Array;
      default: return Kind::Object;
    }
}

bool
Value::asBool() const
{
    if (!isBool())
        fatal("json: value is not a bool");
    return std::get<bool>(_data);
}

double
Value::asDouble() const
{
    if (!isNumber())
        fatal("json: value is not a number");
    return std::get<double>(_data);
}

std::int64_t
Value::asInt() const
{
    double d = asDouble();
    if (d != std::nearbyint(d))
        fatal("json: number is not an integer");
    return static_cast<std::int64_t>(std::llround(d));
}

const std::string &
Value::asString() const
{
    if (!isString())
        fatal("json: value is not a string");
    return std::get<std::string>(_data);
}

const Value::Array &
Value::asArray() const
{
    if (!isArray())
        fatal("json: value is not an array");
    return std::get<Array>(_data);
}

const Object &
Value::asObject() const
{
    if (!isObject())
        fatal("json: value is not an object");
    return std::get<Object>(_data);
}

Value::Array &
Value::mutableArray()
{
    if (!isArray())
        _data = Array{};
    return std::get<Array>(_data);
}

Object &
Value::mutableObject()
{
    if (!isObject())
        _data = Object{};
    return std::get<Object>(_data);
}

std::uint64_t
uint64Member(const Object &obj, const std::string &key)
{
    const Value &value = obj.at(key);
    if (!value.isNumber())
        fatal(strprintf("json: '%s' must be a number", key.c_str()));
    // 2^64 is exact as a double, and every integral double below it
    // converts to uint64_t without overflow.
    constexpr double kTwo64 = 18446744073709551616.0;
    const double d = value.asDouble();
    if (!(d >= 0.0 && d < kTwo64) || d != std::floor(d))
        fatal(strprintf("json: '%s' must be an integer in [0, 2^64), "
                        "got %.17g",
                        key.c_str(), d));
    return static_cast<std::uint64_t>(d);
}

} // namespace skipsim::json

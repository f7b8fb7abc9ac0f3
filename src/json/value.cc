#include "json/value.hh"

#include <cmath>
#include <functional>
#include <limits>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::json
{

namespace
{

std::size_t
hashKey(std::string_view key)
{
    return std::hash<std::string_view>{}(key);
}

/** Index slots for @p members members: a power of two, load <= 1/2. */
std::size_t
indexCapacity(std::size_t members)
{
    std::size_t capacity = 2 * Object::kIndexMin;
    while (capacity < 2 * members)
        capacity *= 2;
    return capacity;
}

/** Key equality with the cheap mismatches (length, first byte) first. */
bool
sameKey(const std::string &a, const std::string &b)
{
    return a.size() == b.size() && (a.empty() || a[0] == b[0]) && a == b;
}

} // namespace

Object::Object(std::vector<Member> members) : _members(std::move(members))
{
    if (_members.size() >= kIndexMin)
        _index = std::make_unique<std::vector<std::uint32_t>>(
            indexCapacity(_members.size()), 0);
    // Compact in place: members [0, kept) hold distinct keys, and the
    // index, when present, covers exactly them.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < _members.size(); ++i) {
        Member &member = _members[i];
        if (_index) {
            std::uint32_t &entry =
                (*_index)[slotOf(member.key, hashKey(member.key))];
            if (entry != 0) {
                _members[entry - 1].value = std::move(member.value);
                continue;
            }
            entry = static_cast<std::uint32_t>(kept + 1);
        } else {
            std::size_t j = 0;
            while (j < kept && !sameKey(_members[j].key, member.key))
                ++j;
            if (j < kept) {
                _members[j].value = std::move(member.value);
                continue;
            }
        }
        if (kept != i)
            _members[kept] = std::move(member);
        ++kept;
    }
    _members.erase(_members.begin() + static_cast<long>(kept),
                   _members.end());
}

Object::Object(const Object &other) : _members(other._members)
{
    if (other._index)
        _index = std::make_unique<std::vector<std::uint32_t>>(*other._index);
}

Object &
Object::operator=(const Object &other)
{
    // Copy first: @p other may live inside one of our own members.
    Object copy(other);
    *this = std::move(copy);
    return *this;
}

std::size_t
Object::slotOf(std::string_view key, std::size_t hash) const
{
    const std::vector<std::uint32_t> &slots = *_index;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
        const std::uint32_t entry = slots[slot];
        if (entry == 0 || _members[entry - 1].key == key)
            return slot;
    }
}

void
Object::rebuildIndex()
{
    _index = std::make_unique<std::vector<std::uint32_t>>(
        indexCapacity(_members.size()), 0);
    for (std::size_t i = 0; i < _members.size(); ++i) {
        const std::string &key = _members[i].key;
        (*_index)[slotOf(key, hashKey(key))] =
            static_cast<std::uint32_t>(i + 1);
    }
}

void
Object::set(std::string key, Value value)
{
    if (!_index) {
        for (Member &member : _members) {
            if (member.key == key) {
                member.value = std::move(value);
                return;
            }
        }
        _members.push_back({std::move(key), std::move(value)});
        if (_members.size() >= kIndexMin)
            rebuildIndex();
        return;
    }
    std::uint32_t &entry = (*_index)[slotOf(key, hashKey(key))];
    if (entry != 0) {
        _members[entry - 1].value = std::move(value);
        return;
    }
    _members.push_back({std::move(key), std::move(value)});
    entry = static_cast<std::uint32_t>(_members.size());
    if (2 * _members.size() > _index->size())
        rebuildIndex();
}

const Value *
Object::find(std::string_view key) const
{
    if (!_index) {
        for (const Member &member : _members)
            if (member.key == key)
                return &member.value;
        return nullptr;
    }
    const std::uint32_t entry = (*_index)[slotOf(key, hashKey(key))];
    return entry == 0 ? nullptr : &_members[entry - 1].value;
}

const Value &
Object::at(std::string_view key) const
{
    const Value *member = find(key);
    if (!member)
        fatal("json: missing object member '" + std::string(key) + "'");
    return *member;
}

const Value &
Object::get(std::string_view key, const Value &def) const
{
    const Value *member = find(key);
    return member ? *member : def;
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
    const double d = asDouble();
    if (d != std::nearbyint(d))
        fatal("json: number is not an integer");
    // 2^63 is exact as a double; every integral double in
    // [-2^63, 2^63) converts to int64_t without overflow.
    constexpr double kTwo63 = 9223372036854775808.0;
    if (!(d >= -kTwo63 && d < kTwo63))
        fatal(strprintf("json: integer %.17g is outside [-2^63, 2^63)", d));
    return static_cast<std::int64_t>(d);
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

int
intValue(const Value &value, const std::string &key)
{
    if (!value.isNumber())
        fatal(strprintf("json: '%s' must be a number", key.c_str()));
    const double d = value.asDouble();
    constexpr int kMin = std::numeric_limits<int>::min();
    constexpr int kMax = std::numeric_limits<int>::max();
    if (!(d >= kMin && d <= kMax) || d != std::floor(d))
        fatal(strprintf("json: '%s' must be an integer in [%d, %d], "
                        "got %.17g",
                        key.c_str(), kMin, kMax, d));
    return static_cast<int>(d);
}

} // namespace skipsim::json

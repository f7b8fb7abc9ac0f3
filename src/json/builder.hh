/**
 * @file
 * Builds a json::Value from the same pushes a json::Emitter takes, so
 * one encoder can produce either text or a document. Object members
 * wait on one shared stack until their object closes, which is then
 * built once at its final size; array elements go straight into their
 * array.
 */

#ifndef SKIPSIM_JSON_BUILDER_HH
#define SKIPSIM_JSON_BUILDER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/value.hh"

namespace skipsim::json
{

/** Document builder; see file comment. */
class DomBuilder
{
  public:
    void beginObject() { open(true, _members.size()); }
    void endObject();
    void beginArray() { open(false, 0); }
    void endArray();

    /** Name the next member of the open object (not assign(): GCC 12
     *  at -O3 mis-warns -Wrestrict on it). */
    void key(std::string_view name) { _key.clear(); _key.append(name); }

    void string(std::string_view s)
    {
        // Appending to an empty string gives a long string at least
        // 30 bytes of capacity, so most names share one allocation
        // size; exact-size strings made trace parses about 10% slower.
        std::string value;
        value.append(s);
        deliver(_key, std::move(value));
    }
    void number(double d) { deliver(_key, d); }
    void integer(std::int64_t i)
    {
        deliver(_key, static_cast<long long>(i));
    }
    void boolean(bool b) { deliver(_key, b); }
    void null() { deliver(_key, nullptr); }

    /** The finished document; the builder is empty afterwards. */
    Value take();

  private:
    struct Frame
    {
        bool object;
        /** First slot of this object's members on the member stack. */
        std::size_t base;
        /** Member name the container takes in an enclosing object. */
        std::string key;
        /** This array's elements so far. */
        Value::Array items;
    };

    void open(bool object, std::size_t base)
    {
        _frames.push_back({object, base, std::move(_key), {}});
    }

    /**
     * Hand a finished value to the open container, as member @p key
     * of an object, or make it the root. The value is built in place.
     */
    template <class T>
    void deliver(std::string &key, T &&value)
    {
        if (_frames.empty())
            _root.emplace(std::forward<T>(value));
        else if (_frames.back().object)
            _members.emplace_back(std::move(key), std::forward<T>(value));
        else
            _frames.back().items.emplace_back(std::forward<T>(value));
    }

    std::vector<Frame> _frames;
    std::vector<Member> _members;
    /** Name of the next member of the open object. */
    std::string _key;
    std::optional<Value> _root;
};

} // namespace skipsim::json

#endif // SKIPSIM_JSON_BUILDER_HH

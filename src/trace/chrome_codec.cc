#include "trace/chrome_codec.hh"

#include <functional>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "json/reader.hh"

namespace skipsim::trace::codec
{

namespace
{

/** A json::Value of @p kind (and @p number), for the accessors' checks. */
json::Value
probeOf(json::Kind kind, double number = 0.0)
{
    switch (kind) {
      case json::Kind::Null: return json::Value(nullptr);
      case json::Kind::Bool: return json::Value(false);
      case json::Kind::Number: return json::Value(number);
      case json::Kind::String: return json::Value(std::string());
      case json::Kind::Array: return json::Value(json::Value::Array());
      case json::Kind::Object: break;
    }
    return json::Value(json::Object());
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

} // namespace

Key
classify(std::string_view name)
{
    switch (name.size()) {
      case 2:
        if (name == "ph") return Key::Ph;
        if (name == "ts") return Key::Ts;
        break;
      case 3:
        if (name == "cat") return Key::Cat;
        if (name == "dur") return Key::Dur;
        if (name == "tid") return Key::Tid;
        break;
      case 4:
        if (name == "name") return Key::Name;
        if (name == "args") return Key::Args;
        break;
      case 5:
        if (name == "ts_ns") return Key::TsNs;
        if (name == "flops") return Key::Flops;
        if (name == "bytes") return Key::Bytes;
        if (name == "value") return Key::Value;
        break;
      case 6:
        if (name == "dur_ns") return Key::DurNs;
        if (name == "thread") return Key::Thread;
        if (name == "stream") return Key::Stream;
        if (name == "parent") return Key::Parent;
        if (name == "detail") return Key::Detail;
        break;
      case 7:
        if (name == "span_id") return Key::SpanId;
        if (name == "request") return Key::Request;
        if (name == "replica") return Key::Replica;
        break;
      case 11:
        if (name == "correlation") return Key::Correlation;
        if (name == "traceEvents") return Key::Events;
        if (name == "skipsimMeta") return Key::Meta;
        break;
      default:
        break;
    }
    return Key::Other;
}

void
Field::set(const Scalar &value, std::uint64_t at)
{
    stamp = at;
    kind = value.kind;
    number = value.number;
    if (value.stable) {
        text = value.text;
    } else {
        _copy.assign(value.text);
        text = _copy;
    }
}

std::string_view
Field::asString() const
{
    if (kind != json::Kind::String)
        probe().asString(); // throws the accessor's message
    return text;
}

json::Value
Field::probe() const
{
    return probeOf(kind, number);
}

void
EventFields::clear()
{
    ++_stamp;
    beginArgs(false);
}

void
EventFields::beginArgs(bool object)
{
    _argsObject = object;
    ++_argStamp;
    _argOrder.clear();
    _otherCount = 0;
}

void
EventFields::setArg(Key key, std::string_view name, const Scalar &value)
{
    if (key == Key::Other) {
        if (_otherCount == _others.size())
            _others.emplace_back();
        OtherArg &other = _others[_otherCount];
        other.name.assign(name);
        other.kind = value.kind;
        other.number = value.number;
        _argOrder.emplace_back(Key::Other, _otherCount++);
        return;
    }
    Field &field = _args[static_cast<std::size_t>(key)];
    if (field.stamp != _argStamp)
        _argOrder.emplace_back(key, 0);
    field.set(value, _argStamp);
}

const Field *
EventFields::find(Key key) const
{
    const Field &field = _top[static_cast<std::size_t>(key)];
    return field.stamp == _stamp ? &field : nullptr;
}

const Field &
EventFields::at(Key key, const char *name) const
{
    const Field *field = find(key);
    if (!field)
        fatal(strprintf("json: missing object member '%s'", name));
    return *field;
}

const Field *
EventFields::arg(Key key) const
{
    const Field &field = _args[static_cast<std::size_t>(key)];
    return _argsObject && field.stamp == _argStamp ? &field : nullptr;
}

const Field &
EventFields::argAt(Key key, const char *name) const
{
    const Field *field = arg(key);
    if (!field)
        fatal(strprintf("json: missing object member '%s'", name));
    return *field;
}

std::optional<double>
EventFields::firstNumericArg() const
{
    if (!_argsObject)
        return std::nullopt;
    // Last occurrence of each unnamed member; kNone once judged.
    std::unordered_map<std::string_view, std::size_t> last;
    for (std::size_t i = 0; i < _otherCount; ++i)
        last[_others[i].name] = i;
    for (const auto &[key, index] : _argOrder) {
        if (key != Key::Other) {
            const Field &field = _args[static_cast<std::size_t>(key)];
            if (field.kind == json::Kind::Number)
                return field.number;
            continue;
        }
        std::size_t &final_index = last.at(_others[index].name);
        if (final_index == kNone)
            continue; // a repeat of a member already judged
        const OtherArg &other = _others[final_index];
        final_index = kNone;
        if (other.kind == json::Kind::Number)
            return other.number;
    }
    return std::nullopt;
}

std::vector<const MetaEntry *>
Document::metaStrings() const
{
    std::vector<const MetaEntry *> folded;
    if (!meta)
        return folded;
    if (*meta != json::Kind::Object)
        probeOf(*meta).asObject(); // throws the accessor's message
    std::unordered_map<std::string_view, std::size_t> slot;
    for (const MetaEntry &entry : metaEntries) {
        const auto [it, fresh] = slot.emplace(entry.key, folded.size());
        if (fresh)
            folded.push_back(&entry);
        else
            folded[it->second] = &entry;
    }
    for (const MetaEntry *entry : folded)
        if (entry->kind != json::Kind::String)
            probeOf(entry->kind).asString(); // throws
    return folded;
}

namespace
{

using Token = json::Reader::Token;

json::Kind
kindOf(Token token)
{
    switch (token) {
      case Token::BeginObject: return json::Kind::Object;
      case Token::BeginArray: return json::Kind::Array;
      case Token::String: return json::Kind::String;
      case Token::Number: return json::Kind::Number;
      case Token::True:
      case Token::False: return json::Kind::Bool;
      default: return json::Kind::Null;
    }
}

Scalar
scalarOf(const json::Value &value)
{
    Scalar out;
    out.kind = value.kind();
    if (out.kind == json::Kind::Number)
        out.number = value.asDouble();
    else if (out.kind == json::Kind::String)
        out.text = value.asString();
    return out;
}

/** Shared by both walks: the Document and the held event error. */
class Walk
{
  public:
    Walk(EventSink &sink, const char *prefix) : _sink(sink), _prefix(prefix)
    {}

  protected:
    void
    hold(std::size_t index, const char *message)
    {
        _doc.eventError =
            strprintf("%s: event %zu: %s", _prefix, index, message);
    }

    /** Decode the event in _fields, holding its error. */
    void
    decode(std::size_t index)
    {
        try {
            _sink.decode(_fields);
        } catch (const FatalError &err) {
            hold(index, err.what());
        }
    }

    EventSink &_sink;
    const char *_prefix;
    Document _doc;
    EventFields _fields;
};

class TextWalk : public Walk
{
  public:
    TextWalk(std::string_view text, EventSink &sink, const char *prefix)
        : Walk(sink, prefix), _text(text), _reader(text)
    {}

    Document
    run(bool arrayRoot)
    {
        Token t = _reader.next();
        _doc.root = kindOf(t);
        if (t == Token::BeginArray && arrayRoot) {
            readEvents();
        } else if (t == Token::BeginObject) {
            for (t = _reader.next(); t != Token::EndObject;
                 t = _reader.next()) {
                const Key key = classify(_reader.string());
                t = _reader.next();
                if (key == Key::Meta) {
                    readMeta(t);
                    continue;
                }
                if (key == Key::Events) {
                    _doc.events = kindOf(t);
                    if (t == Token::BeginArray) {
                        readEvents();
                        continue;
                    }
                }
                _reader.skip(t);
            }
        } else {
            _reader.skip(t);
        }
        _reader.next(); // End, or the trailing-characters error
        return std::move(_doc);
    }

  private:
    Scalar
    scalar(Token token) const
    {
        Scalar out;
        out.kind = kindOf(token);
        if (token == Token::Number) {
            out.number = _reader.number();
        } else if (token == Token::String) {
            out.text = _reader.string();
            // A string without escapes is a slice of the input and
            // lasts; a decoded one is overwritten by the next string.
            const std::less<const char *> before;
            out.stable = !before(out.text.data(), _text.data()) &&
                before(out.text.data(), _text.data() + _text.size());
        }
        return out;
    }

    void
    readMeta(Token t)
    {
        _doc.meta = kindOf(t);
        _doc.metaEntries.clear();
        if (t != Token::BeginObject) {
            _reader.skip(t);
            return;
        }
        for (t = _reader.next(); t != Token::EndObject; t = _reader.next()) {
            MetaEntry entry;
            entry.key = _reader.string();
            t = _reader.next();
            entry.kind = kindOf(t);
            if (t == Token::String)
                entry.value = _reader.string();
            _reader.skip(t);
            _doc.metaEntries.push_back(std::move(entry));
        }
    }

    void
    readEvents()
    {
        _sink.reset(0);
        _doc.eventError.reset();
        std::size_t index = 0;
        for (Token t = _reader.next(); t != Token::EndArray;
             t = _reader.next(), ++index) {
            if (_doc.eventError) {
                _reader.skip(t); // only the syntax is left to check
            } else if (t != Token::BeginObject) {
                _reader.skip(t);
                hold(index, "event is not a JSON object");
            } else {
                readEvent();
                decode(index);
            }
        }
    }

    void
    readEvent()
    {
        _fields.clear();
        for (Token t = _reader.next(); t != Token::EndObject;
             t = _reader.next()) {
            const Key key = classify(_reader.string());
            t = _reader.next();
            if (key == Key::Args) {
                _fields.beginArgs(t == Token::BeginObject);
                if (t == Token::BeginObject) {
                    readArgs();
                    continue;
                }
            } else if (key != Key::Other) {
                _fields.setTop(key, scalar(t));
            }
            _reader.skip(t);
        }
    }

    void
    readArgs()
    {
        for (Token t = _reader.next(); t != Token::EndObject;
             t = _reader.next()) {
            const std::string_view name = _reader.string();
            const Key key = classify(name);
            t = _reader.next();
            _fields.setArg(key, name, scalar(t));
            _reader.skip(t);
        }
    }

    std::string_view _text;
    json::Reader _reader;
};

class DomWalk : public Walk
{
  public:
    using Walk::Walk;

    Document
    run(const json::Value &doc, bool arrayRoot)
    {
        _doc.root = doc.kind();
        if (doc.isArray() && arrayRoot) {
            readEvents(doc.asArray());
        } else if (doc.isObject()) {
            for (const json::Member &member : doc.asObject()) {
                const Key key = classify(member.key);
                if (key == Key::Meta)
                    readMeta(member.value);
                else if (key == Key::Events)
                    readEvents(member.value);
            }
        }
        return std::move(_doc);
    }

  private:
    void
    readMeta(const json::Value &meta)
    {
        _doc.meta = meta.kind();
        if (!meta.isObject())
            return;
        for (const json::Member &member : meta.asObject()) {
            MetaEntry entry;
            entry.key = member.key;
            entry.kind = member.value.kind();
            if (member.value.isString())
                entry.value = member.value.asString();
            _doc.metaEntries.push_back(std::move(entry));
        }
    }

    void
    readEvents(const json::Value &events)
    {
        _doc.events = events.kind();
        if (!events.isArray())
            return;
        const json::Value::Array &items = events.asArray();
        _sink.reset(items.size());
        for (std::size_t index = 0; index < items.size(); ++index) {
            const json::Value &item = items[index];
            if (!item.isObject()) {
                hold(index, "event is not a JSON object");
                return;
            }
            _fields.clear();
            for (const json::Member &member : item.asObject()) {
                const Key key = classify(member.key);
                if (key == Key::Args) {
                    _fields.beginArgs(member.value.isObject());
                    if (member.value.isObject())
                        for (const json::Member &arg : member.value.asObject())
                            _fields.setArg(classify(arg.key), arg.key,
                                           scalarOf(arg.value));
                } else if (key != Key::Other) {
                    _fields.setTop(key, scalarOf(member.value));
                }
            }
            decode(index);
            if (_doc.eventError)
                return;
        }
    }
};

} // namespace

Document
readText(std::string_view text, EventSink &sink, const char *prefix,
         bool arrayRoot)
{
    return TextWalk(text, sink, prefix).run(arrayRoot);
}

Document
readDom(const json::Value &doc, EventSink &sink, const char *prefix,
        bool arrayRoot)
{
    return DomWalk(sink, prefix).run(doc, arrayRoot);
}

} // namespace skipsim::trace::codec

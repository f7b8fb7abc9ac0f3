/**
 * @file
 * The decoding half shared by the Chrome-trace codec (trace/chrome.cc)
 * and the span codec (obs/span.cc). A walk reads a document, either
 * as text through a json::Reader or as a json::Value, and hands each
 * event object to an EventSink as one EventFields record: the members
 * the decoders read, gathered in a single pass, with no json::Value
 * built per event. What lies outside the events (the root's shape,
 * skipsimMeta, traceEvents) comes back as a Document, which each
 * format checks in its own order.
 *
 * The walks reproduce what parsing the text to a json::Value and then
 * reading it would do:
 *  - a syntax error anywhere wins, so an event's error is held until
 *    the document has been read to its end;
 *  - a repeated key keeps its first position and takes its last
 *    value, for root members ("traceEvents" too: only the last
 *    array's events count), event members and args members alike;
 *  - a field read with the wrong kind fails with the json::Value
 *    accessor's own message.
 */

#ifndef SKIPSIM_TRACE_CHROME_CODEC_HH
#define SKIPSIM_TRACE_CHROME_CODEC_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/value.hh"

namespace skipsim::trace::codec
{

/** Member names the decoders read; everything else is Other. */
enum class Key : std::uint8_t
{
    Other,
    Ph,
    Name,
    Cat,
    Ts,
    Dur,
    Tid,
    TsNs,
    DurNs,
    Args,
    Thread,
    Stream,
    Correlation,
    Flops,
    Bytes,
    Value,
    SpanId,
    Parent,
    Request,
    Replica,
    Detail,
    Meta,
    Events,
    Count,
};

/** The Key for member name @p name. */
Key classify(std::string_view name);

/**
 * A member value as a walk hands it over: its kind, its number, and
 * its text. @c stable says whether the text outlives the walk's next
 * step (a slice of the input or of a json::Value).
 */
struct Scalar
{
    json::Kind kind = json::Kind::Null;
    double number = 0.0;
    std::string_view text;
    bool stable = true;
};

/**
 * One member value as a decoder reads it: its kind, its number, and
 * its text, which views the input (or a copy when the input's text
 * does not last). A container keeps only its kind. Not copyable: the
 * view may point into the field itself.
 */
struct Field
{
    Field() = default;
    Field(const Field &) = delete;
    Field &operator=(const Field &) = delete;

    /** Take @p value as the member of event (or args) @p stamp. */
    void set(const Scalar &value, std::uint64_t stamp);

    /** The event (or args) this field was last set for. */
    std::uint64_t stamp = 0;
    json::Kind kind = json::Kind::Null;
    double number = 0.0;
    std::string_view text;

    /** @name Reads with the json::Value accessors' checks and messages
     *  @{ */
    std::int64_t asInt() const { return probe().asInt(); }
    double asDouble() const { return probe().asDouble(); }
    std::string_view asString() const;
    /** json::intValue of this field, named @p key in its message. */
    int asIntNamed(const std::string &key) const
    {
        return json::intValue(probe(), key);
    }
    /** @} */

  private:
    /** A value of the same kind and number (strings come back empty). */
    json::Value probe() const;

    /** Backing store for text that does not last. */
    std::string _copy;
};

/** The members of one event object, gathered in one pass. */
class EventFields
{
  public:
    /** Member @p key, or nullptr when absent. */
    const Field *find(Key key) const;

    /** Member @p key. @throws FatalError naming @p name when absent. */
    const Field &at(Key key, const char *name) const;

    /** Member @p key of an "args" object, or nullptr. */
    const Field *arg(Key key) const;

    /** As arg(), but @throws FatalError naming @p name when absent. */
    const Field &argAt(Key key, const char *name) const;

    /**
     * The first numeric "args" member in member order (first position
     * of each name, last value), or nothing.
     */
    std::optional<double> firstNumericArg() const;

    /** @name Filled by the walks
     *  @{ */
    void clear();
    /** An "args" member starts: drop earlier args; @p object says
     *  whether it holds an object. */
    void beginArgs(bool object);
    void setTop(Key key, const Scalar &value)
    {
        _top[static_cast<std::size_t>(key)].set(value, _stamp);
    }
    /** Args member @p name, classified as @p key. */
    void setArg(Key key, std::string_view name, const Scalar &value);
    /** @} */

  private:
    static constexpr std::size_t kKeys = static_cast<std::size_t>(Key::Count);

    /** An args member the decoders do not name: kept for counters. */
    struct OtherArg
    {
        std::string name;
        json::Kind kind;
        double number;
    };

    /**
     * Fields hold the stamp of the event (or args object) that set
     * them, so starting the next one is one increment: a field is
     * present only while its stamp is current.
     */
    std::array<Field, kKeys> _top;
    std::array<Field, kKeys> _args;
    std::uint64_t _stamp = 1;
    std::uint64_t _argStamp = 1;
    bool _argsObject = false;
    /**
     * Args members in member order: a named key once, at its first
     * position; an Other member at every occurrence (index into
     * _others), folded when read.
     */
    std::vector<std::pair<Key, std::size_t>> _argOrder;
    /** Other args members; entries past _otherCount are spare. */
    std::vector<OtherArg> _others;
    std::size_t _otherCount = 0;
};

/** Receives the events of a walk. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /**
     * A traceEvents array starts, holding @p events items (0 when not
     * known yet). Whatever earlier arrays added is dropped.
     */
    virtual void reset(std::size_t events) = 0;

    /**
     * Decode one event object.
     * @throws FatalError, which the walk holds as the event's error.
     */
    virtual void decode(const EventFields &event) = 0;
};

/** One skipsimMeta member. */
struct MetaEntry
{
    std::string key;
    json::Kind kind = json::Kind::Null;
    std::string value;
};

/** What a walk saw outside the event objects. */
struct Document
{
    json::Kind root = json::Kind::Null;

    /** Kind of the last skipsimMeta member, when there is one. */
    std::optional<json::Kind> meta;
    /** Members of that skipsimMeta object, repeats included. */
    std::vector<MetaEntry> metaEntries;

    /** Kind of the last traceEvents member, when there is one. */
    std::optional<json::Kind> events;

    /** The first failing event of the events read, with its index. */
    std::optional<std::string> eventError;

    /**
     * The skipsimMeta members with repeats folded (first position,
     * last value).
     * @throws FatalError with the json::Value accessors' message
     *         when skipsimMeta is not an object or a value is not a
     *         string.
     */
    std::vector<const MetaEntry *> metaStrings() const;
};

/**
 * Walk the text of one document. Events are read from the last
 * traceEvents array of an object root, or from an array root when
 * @p arrayRoot is set; an event's error is held in the Document as
 * "<prefix>: event N: <message>".
 * @throws FatalError "json parse error at L:C: ..." on the first
 *         syntax error of the text.
 */
Document readText(std::string_view text, EventSink &sink,
                  const char *prefix, bool arrayRoot);

/** As readText(), over a parsed document. */
Document readDom(const json::Value &doc, EventSink &sink,
                 const char *prefix, bool arrayRoot);

} // namespace skipsim::trace::codec

#endif // SKIPSIM_TRACE_CHROME_CODEC_HH

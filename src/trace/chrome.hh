/**
 * @file
 * Chrome-trace (about://tracing, Perfetto-compatible) import/export for
 * Traces. The exporter writes complete "X" events with exact nanosecond
 * timestamps carried in args (ts_ns/dur_ns) alongside the conventional
 * microsecond ts/dur, so a round trip is lossless while the file stays
 * loadable in standard viewers; the importer also accepts traces that
 * only carry microsecond fields (e.g. real PyTorch Kineto exports).
 * Counter events ("ph":"C", one args member "value") and instant
 * markers ("ph":"i") round-trip too, carrying their exact nanosecond
 * timestamp in a top-level "ts_ns" field.
 *
 * One encoder and one decoder serve every entry point. The text
 * paths stream: the encoder pushes into a json::Emitter and the
 * decoder pulls from a json::Reader, so no json::Value is built per
 * event. toChromeJson and fromChromeJson run the same encoder and
 * decoder with a document as output or input (trace/chrome_codec.hh).
 */

#ifndef SKIPSIM_TRACE_CHROME_HH
#define SKIPSIM_TRACE_CHROME_HH

#include <cstdint>
#include <string>

#include "json/value.hh"
#include "trace/trace.hh"

namespace skipsim::trace
{

/** Serialize a trace to a Chrome-trace JSON document. */
json::Value toChromeJson(const Trace &trace);

/** Serialize a trace to Chrome-trace JSON text. */
std::string toChromeText(const Trace &trace);

/** Write a Chrome-trace JSON file. */
void writeChromeFile(const std::string &path, const Trace &trace);

/**
 * Parse a Chrome-trace JSON document into a Trace. "X" events of the
 * modeled categories become TraceEvents; "C" events become counters
 * and "i"/"I" events instant markers. Unknown event categories and
 * other phases are skipped. Integer fields must lie in [-2^63, 2^63),
 * microsecond ts/dur must convert to int64 nanoseconds, and every "X"
 * event needs a non-negative duration whose end fits int64.
 * @throws skipsim::FatalError on malformed documents, naming the
 *         event index.
 */
Trace fromChromeJson(const json::Value &doc);

/**
 * Reject an interval no reader accepts: a negative @p durNs (the field
 * @p durKey), or an end @p tsNs + @p durNs past the int64 range.
 * @throws skipsim::FatalError.
 */
void checkInterval(std::int64_t tsNs, std::int64_t durNs,
                   const char *durKey);

/**
 * Read Chrome-trace JSON text straight from its tokens, with the
 * rules and messages of fromChromeJson. A syntax error anywhere wins
 * over a malformed event, as if the text were parsed first.
 */
Trace fromChromeText(const std::string &text);

/** Read a Chrome-trace JSON file; see fromChromeText(). */
Trace readChromeFile(const std::string &path);

} // namespace skipsim::trace

#endif // SKIPSIM_TRACE_CHROME_HH

/**
 * @file
 * Differential oracle for the Chrome-trace and span codecs. The
 * references are the DOM reader and writer the codecs replaced: each
 * event built as a json::Value and written with json::write, each
 * document parsed with json::parse and read one Object::find per
 * field. diffChromeCodec() runs the codecs' text and document entry
 * points next to them and requires byte-identical text, identical
 * decoded contents and identical error text.
 */

#ifndef SKIPSIM_CHECK_CHROME_ORACLE_HH
#define SKIPSIM_CHECK_CHROME_ORACLE_HH

#include <map>
#include <string>
#include <vector>

#include "json/value.hh"
#include "obs/span.hh"
#include "trace/trace.hh"

namespace skipsim::check
{

/** Reference writer of trace::toChromeJson. */
json::Value referenceTraceToChromeJson(const trace::Trace &trace);

/** Reference reader of trace::fromChromeJson. */
trace::Trace referenceTraceFromChromeJson(const json::Value &doc);

/** Reference writer of obs::SpanLog::toChromeJson for these spans. */
json::Value
referenceSpansToChromeJson(const std::map<std::string, std::string> &meta,
                           const std::vector<obs::Span> &spans);

/** Reference reader of obs::spansFromChromeJson. */
obs::SpanFile referenceSpansFromChromeJson(const json::Value &doc);

/**
 * Read @p text as a trace and as a span file through the codecs'
 * text and document entry points and through the references, then
 * write what each read back out.
 * @return empty when every pair agrees, else the first disagreement.
 */
std::string diffChromeCodec(const std::string &text);

/**
 * Write @p trace through the codec's text and document entry points
 * and through the reference, then diffChromeCodec() the text.
 */
std::string diffChromeCodec(const trace::Trace &trace);

/** As the trace overload, for a recorded span log. */
std::string diffChromeCodec(const obs::SpanLog &spans);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_CHROME_ORACLE_HH

/**
 * @file
 * JSON documents from text: parse() builds a json::Value from the
 * tokens of a json::Reader, so it accepts standard RFC 8259 JSON and
 * reports errors with line/column. Arrays and objects may nest at
 * most 512 levels deep. A repeated object key keeps its first
 * position and takes the last value, as Object::set does.
 */

#ifndef SKIPSIM_JSON_PARSER_HH
#define SKIPSIM_JSON_PARSER_HH

#include <string>

#include "json/value.hh"

namespace skipsim::json
{

/**
 * Parse a JSON document from text.
 * @param text the complete JSON document.
 * @return the parsed value.
 * @throws skipsim::FatalError with a line:column message on syntax errors.
 */
Value parse(const std::string &text);

/**
 * The whole content of a file, read to the end of the stream even
 * when the file reports another size.
 * @throws skipsim::FatalError when the file cannot be read.
 */
std::string readFile(const std::string &path);

/**
 * Parse the JSON document in a file.
 * @throws skipsim::FatalError when the file cannot be read or parsed.
 */
Value parseFile(const std::string &path);

} // namespace skipsim::json

#endif // SKIPSIM_JSON_PARSER_HH

/**
 * @file
 * JSON serialization for json::Value documents: compact or pretty
 * (2-space indented) forms, with stable object member order. Each is
 * a walk of the document that pushes into a json::Emitter.
 */

#ifndef SKIPSIM_JSON_WRITER_HH
#define SKIPSIM_JSON_WRITER_HH

#include <string>

#include "json/value.hh"

namespace skipsim::json
{

/** Serialize a value compactly (no whitespace). */
std::string write(const Value &value);

/** Serialize a value with 2-space indentation. */
std::string writePretty(const Value &value);

/** Serialize to a file. @throws skipsim::FatalError on IO failure. */
void writeFile(const std::string &path, const Value &value,
               bool pretty = true);

/**
 * Write already serialized @p text to a file.
 * @throws skipsim::FatalError on IO failure.
 */
void writeTextFile(const std::string &path, const std::string &text);

} // namespace skipsim::json

#endif // SKIPSIM_JSON_WRITER_HH

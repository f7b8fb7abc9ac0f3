#include "json/parser.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "json/builder.hh"
#include "json/reader.hh"

namespace skipsim::json
{

Value
parse(const std::string &text)
{
    Reader reader(text);
    DomBuilder builder;
    while (true) {
        switch (reader.next()) {
          case Reader::Token::BeginObject: builder.beginObject(); break;
          case Reader::Token::EndObject: builder.endObject(); break;
          case Reader::Token::BeginArray: builder.beginArray(); break;
          case Reader::Token::EndArray: builder.endArray(); break;
          case Reader::Token::Key: builder.key(reader.string()); break;
          case Reader::Token::String: builder.string(reader.string()); break;
          case Reader::Token::Number: builder.number(reader.number()); break;
          case Reader::Token::True: builder.boolean(true); break;
          case Reader::Token::False: builder.boolean(false); break;
          case Reader::Token::Null: builder.null(); break;
          case Reader::Token::End: return builder.take();
        }
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("json: cannot open file '" + path + "'");
    // One buffer sized from the file length. The length is only a
    // hint: a file can hold more than it reports (procfs reports 0,
    // a trace may still be growing) and a pipe reports none, so
    // whatever follows is appended up to the end of the stream.
    std::string text;
    std::error_code no_size;
    const std::uintmax_t size = std::filesystem::file_size(path, no_size);
    if (!no_size) {
        text.resize(size);
        if (!in.read(text.data(), static_cast<std::streamsize>(size)))
            fatal("json: short read on file '" + path + "'");
    }
    if (in.peek() != std::char_traits<char>::eof()) {
        std::ostringstream rest;
        rest << in.rdbuf();
        if (text.empty())
            text = std::move(rest).str();
        else
            text += rest.view();
    }
    return text;
}

Value
parseFile(const std::string &path)
{
    return parse(readFile(path));
}

} // namespace skipsim::json

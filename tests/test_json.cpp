/**
 * @file
 * Unit tests for the JSON substrate: value model, parser (including
 * error reporting) and writer (compact/pretty, round trips).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "check/number_oracle.hh"
#include "common/logging.hh"
#include "json/parser.hh"
#include "json/value.hh"
#include "json/writer.hh"

namespace skipsim::json
{
namespace
{

// ------------------------------------------------------------------ value

TEST(JsonValue, DefaultIsNull)
{
    Value v;
    EXPECT_TRUE(v.isNull());
}

TEST(JsonValue, KindsAreDistinguished)
{
    EXPECT_TRUE(Value(true).isBool());
    EXPECT_TRUE(Value(1.5).isNumber());
    EXPECT_TRUE(Value("s").isString());
    EXPECT_TRUE(Value(Value::Array{}).isArray());
    EXPECT_TRUE(Value(Object{}).isObject());
}

TEST(JsonValue, IntegersPreserved)
{
    Value v(1234567890123LL);
    EXPECT_EQ(v.asInt(), 1234567890123LL);
}

TEST(JsonValue, AsIntRejectsFractions)
{
    EXPECT_THROW(Value(1.5).asInt(), FatalError);
}

TEST(JsonValue, AsIntRejectsNonFiniteAndOutOfRange)
{
    constexpr double kTwo63 = 9223372036854775808.0;
    for (double bad : {std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN(), kTwo63,
                       1e19, -1e19, std::nextafter(-kTwo63, -1e300)})
        EXPECT_THROW(Value(bad).asInt(), FatalError) << bad;
    EXPECT_EQ(Value(-kTwo63).asInt(),
              std::numeric_limits<std::int64_t>::min());
    const double below = std::nextafter(kTwo63, 0.0);
    EXPECT_EQ(Value(below).asInt(), static_cast<std::int64_t>(below));
}

TEST(JsonValue, Uint64MemberAcceptsIntegersBelowTwoTo64)
{
    Object obj;
    obj.set("seed", 0.0);
    EXPECT_EQ(uint64Member(obj, "seed"), 0u);
    obj.set("seed", 9007199254740992.0); // 2^53
    EXPECT_EQ(uint64Member(obj, "seed"), 9007199254740992ull);
    obj.set("seed", 18446744073709549568.0); // largest double < 2^64
    EXPECT_EQ(uint64Member(obj, "seed"), 18446744073709549568ull);
}

TEST(JsonValue, Uint64MemberRejectsValuesNoUint64Holds)
{
    // Each of these made the old double-to-uint64 cast undefined or
    // silently truncating; now each fails naming the field.
    for (double bad : {-1.0, 1.5, 1e20, 18446744073709551616.0,
                       std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        Object obj;
        obj.set("seed", bad);
        try {
            uint64Member(obj, "seed");
            FAIL() << "accepted " << bad;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("'seed'"),
                      std::string::npos)
                << err.what();
        }
    }
    Object text;
    text.set("seed", "42");
    EXPECT_THROW(uint64Member(text, "seed"), FatalError);
    EXPECT_THROW(uint64Member(parse("{\"seed\": -1}").asObject(),
                              "seed"),
                 FatalError);
}

TEST(JsonValue, KindMismatchThrows)
{
    EXPECT_THROW(Value(1.0).asString(), FatalError);
    EXPECT_THROW(Value("x").asDouble(), FatalError);
    EXPECT_THROW(Value(true).asArray(), FatalError);
    EXPECT_THROW(Value(nullptr).asObject(), FatalError);
}

TEST(JsonObject, SetAndGet)
{
    Object obj;
    obj.set("a", 1);
    obj.set("b", "two");
    EXPECT_TRUE(obj.has("a"));
    EXPECT_EQ(obj.at("b").asString(), "two");
    EXPECT_EQ(obj.size(), 2u);
}

TEST(JsonObject, OverwriteKeepsOrder)
{
    Object obj;
    obj.set("x", 1);
    obj.set("y", 2);
    obj.set("x", 3);
    ASSERT_EQ(obj.size(), 2u);
    EXPECT_EQ(obj.begin()->key, "x");
    EXPECT_EQ(obj.at("x").asInt(), 3);
}

TEST(JsonObject, DuplicateKeysKeepFirstPositionAndLastValue)
{
    // Below and above the size where lookups switch to the hash index.
    for (int extra : {0, 40}) {
        std::string text = "{\"x\": 1, \"y\": 2";
        Object built;
        built.set("x", 1);
        built.set("y", 2);
        for (int i = 0; i < extra; ++i) {
            std::string key = "k";
            key += std::to_string(i);
            text += ", \"" + key + "\": " + std::to_string(i);
            built.set(key, i);
        }
        text += ", \"x\": 3}";
        built.set("x", 3);
        for (const Object &obj : {built, parse(text).asObject()}) {
            ASSERT_EQ(obj.size(), static_cast<std::size_t>(2 + extra));
            EXPECT_EQ(obj.begin()->key, "x");
            EXPECT_EQ(obj.begin()->value.asInt(), 3);
            EXPECT_EQ(obj.at("x").asInt(), 3);
            EXPECT_EQ(obj.at("y").asInt(), 2);
        }
        EXPECT_EQ(write(Value(built)), write(parse(text)));
    }
}

TEST(JsonObject, FindAndIterationAcrossTheIndexThreshold)
{
    Object obj;
    for (int i = 0; i < 100; ++i) {
        obj.set("key" + std::to_string(i), i);
        for (int j = 0; j <= i; j += 7) {
            const Value *member = obj.find("key" + std::to_string(j));
            ASSERT_NE(member, nullptr) << i << " " << j;
            EXPECT_EQ(member->asInt(), j);
        }
        EXPECT_EQ(obj.find("key" + std::to_string(i + 1)), nullptr);
    }
    // Copies carry their own index; the source may go away.
    Object copy;
    {
        Object source = obj;
        copy = source;
    }
    int expected = 0;
    for (const Member &member : copy) {
        EXPECT_EQ(member.key, "key" + std::to_string(expected));
        EXPECT_EQ(copy.at(member.key).asInt(), expected);
        ++expected;
    }
    EXPECT_EQ(expected, 100);
}

TEST(JsonObject, MissingKeyThrows)
{
    Object obj;
    EXPECT_THROW(obj.at("nope"), FatalError);
}

TEST(JsonObject, GetWithDefault)
{
    Object obj;
    Value def(42);
    EXPECT_EQ(obj.get("nope", def).asInt(), 42);
}

// ----------------------------------------------------------------- parser

TEST(JsonParser, ParsesScalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_TRUE(parse("true").asBool());
    EXPECT_FALSE(parse("false").asBool());
    EXPECT_DOUBLE_EQ(parse("3.25").asDouble(), 3.25);
    EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(JsonParser, ParsesNegativeAndExponent)
{
    EXPECT_DOUBLE_EQ(parse("-12").asDouble(), -12.0);
    EXPECT_DOUBLE_EQ(parse("2e3").asDouble(), 2000.0);
    EXPECT_DOUBLE_EQ(parse("1.5E-2").asDouble(), 0.015);
}

TEST(JsonParser, ParsesNestedStructures)
{
    Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
    const Object &root = v.asObject();
    const auto &arr = root.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[2].asObject().at("b").asString(), "c");
    EXPECT_EQ(root.at("d").asObject().size(), 0u);
}

TEST(JsonParser, ParsesEmptyContainers)
{
    EXPECT_EQ(parse("[]").asArray().size(), 0u);
    EXPECT_EQ(parse("{}").asObject().size(), 0u);
}

TEST(JsonParser, HandlesEscapes)
{
    EXPECT_EQ(parse(R"("a\nb\t\"q\"\\")").asString(), "a\nb\t\"q\"\\");
}

TEST(JsonParser, HandlesUnicodeEscapes)
{
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    // U+00E9 (e-acute) encodes to two UTF-8 bytes.
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(JsonParser, SkipsWhitespace)
{
    Value v = parse(" \n\t { \"k\" : 1 } \r\n");
    EXPECT_EQ(v.asObject().at("k").asInt(), 1);
}

TEST(JsonParser, TrailingGarbageThrows)
{
    EXPECT_THROW(parse("{} extra"), FatalError);
}

TEST(JsonParser, UnterminatedStringThrows)
{
    EXPECT_THROW(parse("\"abc"), FatalError);
}

TEST(JsonParser, MissingCommaThrows)
{
    EXPECT_THROW(parse("[1 2]"), FatalError);
}

TEST(JsonParser, MissingColonThrows)
{
    EXPECT_THROW(parse("{\"a\" 1}"), FatalError);
}

TEST(JsonParser, BadLiteralThrows)
{
    EXPECT_THROW(parse("tru"), FatalError);
    EXPECT_THROW(parse("nul"), FatalError);
}

TEST(JsonParser, BadNumberThrows)
{
    EXPECT_THROW(parse("1."), FatalError);
    EXPECT_THROW(parse("-"), FatalError);
    EXPECT_THROW(parse("1e"), FatalError);
}

TEST(JsonParser, ControlCharacterInStringThrows)
{
    std::string bad = "\"a\nb\"";
    EXPECT_THROW(parse(bad), FatalError);
}

TEST(JsonParser, ErrorMessageHasLineAndColumn)
{
    try {
        parse("{\n  \"a\": ?\n}");
        FAIL() << "expected parse failure";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("2:"), std::string::npos);
    }
}

TEST(JsonParser, ParsesTwoHundredThousandDistinctKeys)
{
    // A quadratic duplicate check would take minutes here.
    constexpr int kKeys = 200000;
    std::string text = "{";
    for (int i = 0; i < kKeys; ++i)
        text += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":" +
            std::to_string(i);
    text += "}";
    const Value doc = parse(text);
    const Object &obj = doc.asObject();
    ASSERT_EQ(obj.size(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(obj.begin()->key, "k0");
    EXPECT_EQ(obj.at("k123456").asInt(), 123456);
    EXPECT_EQ(obj.find("k200000"), nullptr);
    EXPECT_EQ(write(doc), text);
}

/** @p depth nested arrays or single-member objects around a 0. */
std::string
nested(int depth, bool objects)
{
    std::string text;
    for (int i = 0; i < depth; ++i)
        text += objects ? "{\"a\":" : "[";
    text += "0";
    text.append(static_cast<std::size_t>(depth), objects ? '}' : ']');
    return text;
}

TEST(JsonParser, NestingCapParses)
{
    for (bool objects : {false, true}) {
        Value v = parse(nested(512, objects));
        int depth = 0;
        const Value *at = &v;
        while (!at->isNumber()) {
            at = at->isArray() ? &at->asArray()[0]
                               : &at->asObject().at("a");
            ++depth;
        }
        EXPECT_EQ(depth, 512);
    }
}

TEST(JsonParser, NestingPastTheCapThrows)
{
    // Past the cap, including depths that used to overflow the stack.
    for (int depth : {513, 200000}) {
        for (bool objects : {false, true}) {
            try {
                parse(nested(depth, objects));
                FAIL() << "accepted depth " << depth;
            } catch (const FatalError &err) {
                const std::string what = err.what();
                EXPECT_EQ(what.rfind("json parse error at 1:", 0), 0u)
                    << what;
                EXPECT_NE(what.find("nesting deeper than 512"),
                          std::string::npos)
                    << what;
            }
        }
    }
}

TEST(JsonParser, MissingFileThrows)
{
    EXPECT_THROW(parseFile("/nonexistent/path.json"), FatalError);
}

TEST(JsonParser, ParseFileReadsTheWholeFile)
{
    const std::string path = testing::TempDir() + "/skipsim_json_big.json";
    std::string text = "[";
    for (int i = 0; i < 100000; ++i)
        text += (i ? ",\"" : "\"") + std::to_string(i) + "\"";
    text += "]";
    std::FILE *out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    EXPECT_EQ(write(parseFile(path)), text);
    std::remove(path.c_str());
    // A directory has no file size; it is read as a stream, which
    // yields nothing, and fails as a parse error.
    EXPECT_THROW(parseFile(testing::TempDir()), FatalError);
}

TEST(JsonParser, ParseFileReadsAPipeToItsEnd)
{
    const std::string path = testing::TempDir() + "/skipsim_json_fifo";
    std::remove(path.c_str());
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    std::string text = "[";
    for (int i = 0; i < 50000; ++i) {
        text += i ? "," : "";
        text += std::to_string(i);
    }
    text += "]";
    // A FIFO has no file size; opening it blocks until both ends are
    // open, so the writer runs on its own thread.
    std::thread writer([&] {
        std::FILE *out = std::fopen(path.c_str(), "wb");
        if (!out)
            return;
        std::fwrite(text.data(), 1, text.size(), out);
        std::fclose(out);
    });
    const Value v = parseFile(path);
    writer.join();
    std::remove(path.c_str());
    EXPECT_EQ(write(v), text);
}

TEST(JsonParser, ParseFileReadsPastTheReportedSize)
{
    // procfs files report a size of 0 yet have content; this one holds
    // a single number, which is a JSON document.
    const std::string path = "/proc/sys/kernel/pid_max";
    std::error_code error;
    if (std::filesystem::file_size(path, error) != 0 || error)
        GTEST_SKIP() << path << " is not a zero-size procfs file";
    std::ifstream in(path);
    long long expected = 0;
    in >> expected;
    ASSERT_GT(expected, 0);
    EXPECT_EQ(parseFile(path).asInt(), expected);
}

// ----------------------------------------------------------- number I/O

TEST(JsonNumbers, OutOfRangeTextsReadAsStrtodDoes)
{
    EXPECT_EQ(parse("1e999").asDouble(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(parse("-1e999").asDouble(),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(parse("1e-400").asDouble(), check::referenceParseNumber("1e-400"));
    EXPECT_EQ(write(Value(1e21)), "1e+21");
    EXPECT_EQ(write(Value(21.626999999999999)), "21.626999999999999");
    EXPECT_EQ(write(Value(9007199254740992.0)), "9007199254740992");
}

TEST(JsonNumbers, MatchPrintfAndStrtodAtSeveralSeeds)
{
    // Byte-identical writer output and bit-identical parsed doubles
    // against the "%lld"/"%.17g" formatter and strtod.
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 1009ull}) {
        const std::string problem = check::diffNumberIo(seed, 20000);
        EXPECT_TRUE(problem.empty()) << problem;
    }
}

// ----------------------------------------------------------------- writer

TEST(JsonWriter, CompactScalars)
{
    EXPECT_EQ(write(Value(nullptr)), "null");
    EXPECT_EQ(write(Value(true)), "true");
    EXPECT_EQ(write(Value(5)), "5");
    EXPECT_EQ(write(Value("x")), "\"x\"");
}

TEST(JsonWriter, IntegersWrittenWithoutDecimal)
{
    EXPECT_EQ(write(Value(1234567.0)), "1234567");
}

TEST(JsonWriter, FractionsKeepPrecision)
{
    Value v = parse(write(Value(0.1)));
    EXPECT_DOUBLE_EQ(v.asDouble(), 0.1);
}

TEST(JsonWriter, EscapesSpecialCharacters)
{
    EXPECT_EQ(write(Value("a\"b\\c\nd")), R"("a\"b\\c\nd")");
}

TEST(JsonWriter, EscapesControlCharactersAsUnicode)
{
    EXPECT_EQ(write(Value(std::string("x\x01\x1fy\tz\x7f"))),
              "\"x\\u0001\\u001fy\\tz\x7f\"");
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    EXPECT_EQ(write(Value(std::numeric_limits<double>::infinity())),
              "null");
}

TEST(JsonWriter, ObjectOrderStable)
{
    Object obj;
    obj.set("z", 1);
    obj.set("a", 2);
    EXPECT_EQ(write(Value(std::move(obj))), R"({"z":1,"a":2})");
}

TEST(JsonWriter, PrettyIndents)
{
    Object obj;
    obj.set("k", Value(Value::Array{Value(1), Value(2)}));
    std::string pretty = writePretty(Value(std::move(obj)));
    EXPECT_NE(pretty.find("\n  \"k\""), std::string::npos);
}

TEST(JsonWriter, RoundTripComplexDocument)
{
    std::string text =
        R"({"events":[{"name":"k1","ts":12.5,"args":{"id":7}},)"
        R"({"name":"k2","ts":13,"args":{"id":8}}],"ok":true})";
    Value v = parse(text);
    Value v2 = parse(write(v));
    EXPECT_EQ(write(v), write(v2));
}

TEST(JsonWriter, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/skipsim_json_test.json";
    Object obj;
    obj.set("answer", 42);
    writeFile(path, Value(std::move(obj)));
    Value v = parseFile(path);
    EXPECT_EQ(v.asObject().at("answer").asInt(), 42);
}

TEST(JsonWriter, WriteToBadPathThrows)
{
    Object obj;
    EXPECT_THROW(writeFile("/nonexistent/dir/file.json",
                           Value(std::move(obj))),
                 FatalError);
}

} // namespace
} // namespace skipsim::json

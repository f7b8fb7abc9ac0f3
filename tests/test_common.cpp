/**
 * @file
 * Unit tests for the common substrate: string utilities, text tables,
 * CLI parsing, deterministic RNG and logging/error helpers.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "common/table.hh"

namespace skipsim
{
namespace
{

// ---------------------------------------------------------------- strutil

TEST(StrUtil, StrprintfFormatsNumbers)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
}

TEST(StrUtil, StrprintfEmptyFormat)
{
    EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(StrUtil, StrprintfLongOutput)
{
    std::string big(5000, 'a');
    EXPECT_EQ(strprintf("%s", big.c_str()).size(), 5000u);
}

TEST(StrUtil, SplitBasic)
{
    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StrUtil, SplitKeepsEmptyFields)
{
    auto parts = split("a,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(StrUtil, SplitDropsEmptyFieldsWhenAsked)
{
    auto parts = split(",a,,c,", ',', false);
    ASSERT_EQ(parts.size(), 2u);
}

TEST(StrUtil, SplitEmptyString)
{
    auto parts = split("", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(StrUtil, JoinRoundTrip)
{
    std::vector<std::string> parts{"x", "y", "z"};
    EXPECT_EQ(join(parts, "--"), "x--y--z");
}

TEST(StrUtil, JoinEmptyList)
{
    EXPECT_EQ(join({}, ","), "");
}

TEST(StrUtil, TrimWhitespace)
{
    EXPECT_EQ(trim("  hello\t\n "), "hello");
    EXPECT_EQ(trim("none"), "none");
    EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("gemm_f16", "gemm"));
    EXPECT_FALSE(startsWith("ge", "gemm"));
    EXPECT_TRUE(endsWith("kernel_v4", "_v4"));
    EXPECT_FALSE(endsWith("v4", "kernel_v4"));
}

TEST(StrUtil, Contains)
{
    EXPECT_TRUE(contains("abcdef", "cde"));
    EXPECT_FALSE(contains("abcdef", "xyz"));
}

TEST(StrUtil, ToLower)
{
    EXPECT_EQ(toLower("GH200"), "gh200");
}

TEST(StrUtil, FormatNsPicksUnits)
{
    EXPECT_EQ(formatNs(500.0), "500.0 ns");
    EXPECT_EQ(formatNs(2500.0), "2.50 us");
    EXPECT_EQ(formatNs(3.2e6), "3.200 ms");
    EXPECT_EQ(formatNs(1.5e9), "1.5000 s");
}

TEST(StrUtil, FormatBytesPicksUnits)
{
    EXPECT_EQ(formatBytes(512.0), "512 B");
    EXPECT_EQ(formatBytes(2048.0), "2.0 KiB");
    EXPECT_EQ(formatBytes(3.0 * 1024 * 1024), "3.0 MiB");
}

TEST(StrUtil, FormatCountSeparators)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
    EXPECT_EQ(formatCount(1234567), "1,234,567");
}

// ------------------------------------------------------------------ table

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable table("Title");
    table.setHeader({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    std::string out = table.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(table.numRows(), 2u);
}

TEST(TextTable, PadsShortRows)
{
    TextTable table;
    table.setHeader({"a", "b", "c"});
    table.addRow({"only"});
    EXPECT_NO_THROW(table.render());
}

TEST(TextTable, RejectsOverlongRows)
{
    TextTable table;
    table.setHeader({"a"});
    EXPECT_THROW(table.addRow({"1", "2"}), FatalError);
}

TEST(TextTable, CsvEscapesCommasAndQuotes)
{
    TextTable table;
    table.setHeader({"k"});
    table.addRow({"a,b"});
    table.addRow({"say \"hi\""});
    std::string csv = table.renderCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, NumericCellsRightAligned)
{
    TextTable table;
    table.setHeader({"col"});
    table.addRow({"999"});
    table.addRow({"wordy-cell"});
    std::string out = table.render();
    // The numeric row should be padded on the left.
    EXPECT_NE(out.find("       999"), std::string::npos);
}

// -------------------------------------------------------------------- cli

TEST(CliArgs, ParsesKeyValuePairs)
{
    const char *argv[] = {"prog", "--batch", "16", "--name", "gpt2"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.getInt("batch", 0), 16);
    EXPECT_EQ(args.getString("name"), "gpt2");
}

TEST(CliArgs, ParsesEqualsForm)
{
    const char *argv[] = {"prog", "--seq=1024"};
    CliArgs args(2, argv);
    EXPECT_EQ(args.getInt("seq", 0), 1024);
}

TEST(CliArgs, BareFlagIsTrue)
{
    const char *argv[] = {"prog", "--verbose"};
    CliArgs args(2, argv);
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_TRUE(args.getBool("verbose"));
}

TEST(CliArgs, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, argv);
    EXPECT_EQ(args.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
    EXPECT_FALSE(args.getBool("missing"));
    EXPECT_EQ(args.getString("missing", "d"), "d");
}

TEST(CliArgs, PositionalArguments)
{
    const char *argv[] = {"prog", "file1", "--k", "v", "file2"};
    CliArgs args(5, argv);
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "file1");
    EXPECT_EQ(args.positional()[1], "file2");
}

TEST(CliArgs, IntListOption)
{
    const char *argv[] = {"prog", "--batches", "1,2,4,8"};
    CliArgs args(3, argv);
    auto list = args.getIntList("batches", {});
    ASSERT_EQ(list.size(), 4u);
    EXPECT_EQ(list[3], 8);
}

TEST(CliArgs, BadIntegerThrows)
{
    const char *argv[] = {"prog", "--batch", "abc"};
    CliArgs args(3, argv);
    EXPECT_THROW(args.getInt("batch", 0), FatalError);
}

TEST(CliArgs, BadDoubleThrows)
{
    const char *argv[] = {"prog", "--frac", "1.2.3"};
    CliArgs args(3, argv);
    EXPECT_THROW(args.getDouble("frac", 0.0), FatalError);
}

TEST(CliArgs, Uint64ParsesEveryDigitExactly)
{
    // 2^53 + 1 has no double: a parse through strtod would land on
    // 2^53. The digits path keeps it, and the top of the range too.
    const char *argv[] = {"prog", "--seed", "9007199254740993", "--max",
                          "18446744073709551615"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.getUint64("seed", 0), 9007199254740993ull);
    EXPECT_EQ(args.getUint64("max", 0), 18446744073709551615ull);
    EXPECT_EQ(args.getUint64("missing", 42), 42u);
}

TEST(CliArgs, Uint64RejectsSignsFractionsAndOverflow)
{
    for (const char *bad :
         {"-1", "+1", "1.5", "1e3", "inf", "nan", " 7", "7x", "",
          "18446744073709551616", "99999999999999999999999"}) {
        const char *argv[] = {"prog", "--seed", bad};
        CliArgs args(3, argv);
        try {
            args.getUint64("seed", 0);
            FAIL() << "accepted '" << bad << "'";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("--seed"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(RunFlags, SeedIsExactAndValidated)
{
    const char *exact[] = {"prog", "--seed", "9007199254740993"};
    EXPECT_EQ(parseRunFlags(CliArgs(3, exact)).seed,
              9007199254740993ull);
    const char *none[] = {"prog"};
    EXPECT_EQ(parseRunFlags(CliArgs(1, none)).seed, 42u);
    const char *negative[] = {"prog", "--seed", "-1"};
    EXPECT_THROW(parseRunFlags(CliArgs(3, negative)), FatalError);
    const char *huge[] = {"prog", "--seed=1e20"};
    EXPECT_THROW(parseRunFlags(CliArgs(2, huge)), FatalError);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(5.0, 6.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 6.0);
    }
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(10), 10u);
}

TEST(Rng, BelowZeroIsZero)
{
    Rng rng(13);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, GaussianMeanApproximately)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, GaussianBounded)
{
    // Irwin-Hall of 4 uniforms is bounded to about +-3.46 sigma.
    Rng rng(19);
    for (int i = 0; i < 5000; ++i) {
        double g = rng.gaussian(0.0, 1.0);
        EXPECT_GT(g, -4.0);
        EXPECT_LT(g, 4.0);
    }
}

// ---------------------------------------------------------------- logging

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Logging, FatalCarriesMessage)
{
    try {
        fatal("specific message");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "specific message");
    }
}

TEST(Logging, LevelRoundTrip)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(before);
}

TEST(Logging, WarnOnceEmitsPerKeyOnce)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet); // suppress output, keep bookkeeping
    resetWarnOnce();
    EXPECT_TRUE(warnOnce("k1", "first"));
    EXPECT_FALSE(warnOnce("k1", "repeat"));
    EXPECT_TRUE(warnOnce("k2", "other key"));
    resetWarnOnce();
    EXPECT_TRUE(warnOnce("k1", "emits again after reset"));
    resetWarnOnce();
    setLogLevel(before);
}

} // namespace
} // namespace skipsim

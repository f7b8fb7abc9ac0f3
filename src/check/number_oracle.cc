#include "check/number_oracle.hh"

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hh"
#include "common/strutil.hh"
#include "json/parser.hh"
#include "json/writer.hh"

namespace skipsim::check
{

std::string
referenceFormatNumber(double d)
{
    if (!std::isfinite(d))
        return "null";
    double rounded = std::nearbyint(d);
    if (d == rounded && std::abs(d) < 9.007199254740992e15)
        return strprintf("%lld", static_cast<long long>(rounded));
    return strprintf("%.17g", d);
}

double
referenceParseNumber(const std::string &text)
{
    return std::strtod(text.c_str(), nullptr);
}

namespace
{

std::uint64_t
bitsOf(double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

/** Empty when json::parse reads @p text as strtod does. */
std::string
diffParse(const std::string &text)
{
    const double want = referenceParseNumber(text);
    const double got = json::parse(text).asDouble();
    if (bitsOf(got) == bitsOf(want))
        return "";
    return strprintf("parse(\"%s\") = %a, strtod gives %a", text.c_str(),
                     got, want);
}

/** Empty when the writer formats @p d as the reference does, and the
 *  text parses back as strtod reads it. */
std::string
diffDouble(double d)
{
    const std::string want = referenceFormatNumber(d);
    const std::string got = json::write(json::Value(d));
    if (got != want)
        return strprintf("write(%a) = \"%s\", reference \"%s\"", d,
                         got.c_str(), want.c_str());
    return want == "null" ? "" : diffParse(want);
}

/** A random JSON number text: sign, 1-25 digits, optional fraction
 *  and an exponent that reaches past both ends of the double range. */
std::string
randomNumberText(Rng &rng)
{
    std::string text = rng.below(2) ? "-" : "";
    const std::size_t digits = 1 + rng.below(25);
    for (std::size_t i = 0; i < digits; ++i)
        text.push_back(static_cast<char>('0' + rng.below(10)));
    if (rng.below(2)) {
        text.push_back('.');
        const std::size_t fraction = 1 + rng.below(20);
        for (std::size_t i = 0; i < fraction; ++i)
            text.push_back(static_cast<char>('0' + rng.below(10)));
    }
    if (rng.below(2))
        text += strprintf("e%d", static_cast<int>(rng.below(800)) - 400);
    return text;
}

} // namespace

std::string
diffNumberIo(std::uint64_t seed, std::size_t randoms)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> edge_doubles = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN - std::numeric_limits<double>::denorm_min(), DBL_MIN,
        DBL_MAX, -DBL_MAX, 9007199254740991.0, 9007199254740992.0,
        9007199254740994.0, -9007199254740991.0, 1e21, 0.1,
        21.626999999999999, 0.5, 1e15, 1e16, 123456789.125, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()};
    for (double d : edge_doubles)
        if (std::string problem = diffDouble(d); !problem.empty())
            return problem;

    const std::vector<std::string> edge_texts = {
        "1e999", "-1e999", "1e-400", "-1e-400", "9007199254740993",
        "-9007199254740993", "999999999999999", "1000000000000000",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "4.9406564584124654e-324", "2.2250738585072011e-308",
        "1.7976931348623157e308", "1.7976931348623159e308", "0.1",
        "21.626999999999999", "1e21", "-0", "0e0", "00012", "1E+2"};
    for (const std::string &text : edge_texts)
        if (std::string problem = diffParse(text); !problem.empty())
            return problem;

    Rng rng(seed);
    for (std::size_t i = 0; i < randoms; ++i) {
        // Alternate raw bit patterns (every exponent, NaNs included)
        // with integers below 2^53 and short decimals, the values
        // reports and traces carry.
        double d = 0.0;
        switch (i % 3) {
          case 0: {
            const std::uint64_t bits = rng.next();
            std::memcpy(&d, &bits, sizeof d);
            break;
          }
          case 1:
            d = static_cast<double>(rng.next() >> (11 + rng.below(53)));
            break;
          default:
            d = static_cast<double>(rng.below(1000000)) /
                static_cast<double>(1 + rng.below(10000));
        }
        if (std::string problem = diffDouble(d); !problem.empty())
            return strprintf("seed %llu case %zu: %s",
                             static_cast<unsigned long long>(seed), i,
                             problem.c_str());
        if (std::string problem = diffParse(randomNumberText(rng));
            !problem.empty())
            return strprintf("seed %llu case %zu: %s",
                             static_cast<unsigned long long>(seed), i,
                             problem.c_str());
    }
    return "";
}

} // namespace skipsim::check

/**
 * @file
 * Differential oracle for JSON number I/O. The references are the
 * formatter and parser the JSON layer used before it moved to
 * std::to_chars and std::from_chars: "%lld" for integers below 2^53,
 * "%.17g" for every other finite double and "null" otherwise; strtod
 * for parsing. diffNumberIo() draws doubles and number texts from a
 * fixed edge set and a seeded random stream and requires
 * byte-identical writer output and bit-identical parsed values.
 */

#ifndef SKIPSIM_CHECK_NUMBER_ORACLE_HH
#define SKIPSIM_CHECK_NUMBER_ORACLE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace skipsim::check
{

/** Reference text of @p d as a JSON number. */
std::string referenceFormatNumber(double d);

/** Reference value of the JSON number text @p text. */
double referenceParseNumber(const std::string &text);

/**
 * Compare json::write and json::parse with the references on the
 * edge set plus @p randoms random doubles and @p randoms random number
 * texts drawn from @p seed.
 * @return empty when they agree everywhere, else the first
 *         disagreement.
 */
std::string diffNumberIo(std::uint64_t seed, std::size_t randoms);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_NUMBER_ORACLE_HH

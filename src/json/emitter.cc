#include "json/emitter.hh"

#include <array>
#include <charconv>
#include <cmath>
#include <cstring>

namespace skipsim::json
{

namespace detail
{

namespace
{

using u128 = unsigned __int128;

/** Powers of ten up to 10^21, exact in 128 bits. */
constexpr int kMaxPow10 = 21;
constexpr auto kPow10 = [] {
    std::array<u128, kMaxPow10 + 1> pow{};
    pow[0] = 1;
    for (int i = 1; i <= kMaxPow10; ++i)
        pow[static_cast<std::size_t>(i)] = pow[static_cast<std::size_t>(i) - 1] * 10;
    return pow;
}();

constexpr std::uint64_t kTen16 = 10000000000000000ULL;
constexpr std::uint64_t kTen17 = 10 * kTen16;

} // namespace

bool
appendSeventeenDigits(std::string &out, double d)
{
    const double mag = std::fabs(d);
    if (!(mag >= 1e-4 && mag < 9007199254740992.0))
        return false;
    // mag = m * 2^-shift exactly, m the 53-bit significand.
    std::uint64_t bits;
    std::memcpy(&bits, &mag, sizeof bits);
    const int exp2 = static_cast<int>(bits >> 52) - 1022;
    const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
        (std::uint64_t{1} << 52);
    const int shift = 53 - exp2;
    if (shift <= 0)
        return false;
    // 17 significant digits: q = mag * 10^(16 - x) with 10^16 <= q <
    // 10^17, x the decimal exponent. The first guess of x from the
    // binary exponent is off by at most one; m * 10^k < 2^123 and the
    // shift is at most 66, so the arithmetic is exact.
    int x = static_cast<int>(std::floor((exp2 - 1) * 0.30102999566398120));
    const u128 mask = (u128{1} << shift) - 1;
    u128 q = 0;
    u128 rest = 0;
    for (int tries = 0;; ++tries) {
        const int k = 16 - x;
        if (k < 0 || k > kMaxPow10 || tries > 2)
            return false;
        const u128 scaled = u128{m} * kPow10[static_cast<std::size_t>(k)];
        q = scaled >> shift;
        rest = scaled & mask;
        if (q >= kTen17)
            ++x;
        else if (q < kTen16)
            --x;
        else
            break;
    }
    // Round the exact value half to even, as printf does.
    const u128 half = u128{1} << (shift - 1);
    if (rest > half || (rest == half && (q & 1) != 0))
        ++q;
    if (q == kTen17) {
        q = kTen16;
        ++x;
    }
    char digits[17];
    std::uint64_t v = static_cast<std::uint64_t>(q);
    for (int i = 16; i >= 0; --i) {
        digits[i] = static_cast<char>('0' + v % 10);
        v /= 10;
    }
    int last = 16; // last non-zero digit; %g drops trailing zeros
    while (last > 0 && digits[last] == '0')
        --last;
    if (d < 0)
        out.push_back('-');
    if (x >= 0) {
        out.append(digits, static_cast<std::size_t>(x) + 1);
        if (last > x) {
            out.push_back('.');
            out.append(digits + x + 1, static_cast<std::size_t>(last - x));
        }
    } else {
        out += "0.";
        out.append(static_cast<std::size_t>(-x - 1), '0');
        out.append(digits, static_cast<std::size_t>(last) + 1);
    }
    return true;
}

} // namespace detail

void
Emitter::integer(std::int64_t i)
{
    // Every integer of magnitude below 2^53 is exact as a double and
    // prints as itself; larger ones print as their double would.
    constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
    if (i <= -kTwo53 || i >= kTwo53) {
        number(static_cast<double>(i));
        return;
    }
    separate();
    char buf[24];
    _out.append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
}

} // namespace skipsim::json

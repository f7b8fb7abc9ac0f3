#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim
{

CliArgs::CliArgs(int argc, const char *const *argv)
{
    if (argc > 0)
        _program = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            _positional.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            _options[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
            _options[body] = argv[i + 1];
            ++i;
        } else {
            _options[body] = "true";
        }
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return _options.count(key) > 0;
}

std::string
CliArgs::getString(const std::string &key, const std::string &def) const
{
    auto it = _options.find(key);
    return it == _options.end() ? def : it->second;
}

namespace
{

/**
 * Parse @p text as a decimal int, naming --@p key when it is not one:
 * strtol saturates on overflow and long is wider than int, so both
 * bounds are checked before narrowing.
 */
int
parseInt(const std::string &key, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("option --" + key + " expects an integer, got '" + text +
              "'");
    if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        fatal("option --" + key + " is out of range for an int, got '" +
              text + "'");
    return static_cast<int>(v);
}

} // namespace

int
CliArgs::getInt(const std::string &key, int def) const
{
    auto it = _options.find(key);
    return it == _options.end() ? def : parseInt(key, it->second);
}

std::uint64_t
CliArgs::getUint64(const std::string &key, std::uint64_t def) const
{
    auto it = _options.find(key);
    if (it == _options.end())
        return def;
    const std::string &text = it->second;
    // Digits only: strtoull alone would accept a sign ("-1" wraps to
    // 2^64 - 1) and leading blanks.
    const bool digits = !text.empty() &&
        std::all_of(text.begin(), text.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
        });
    errno = 0;
    const unsigned long long v =
        digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE)
        fatal("option --" + key + " expects an integer in [0, 2^64), "
              "got '" + text + "'");
    return v;
}

double
CliArgs::getDouble(const std::string &key, double def) const
{
    auto it = _options.find(key);
    if (it == _options.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("option --" + key + " expects a number, got '" +
              it->second + "'");
    return v;
}

bool
CliArgs::getBool(const std::string &key, bool def) const
{
    auto it = _options.find(key);
    if (it == _options.end())
        return def;
    std::string v = toLower(it->second);
    return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<int>
CliArgs::getIntList(const std::string &key, std::vector<int> def) const
{
    auto it = _options.find(key);
    if (it == _options.end())
        return def;
    std::vector<int> out;
    for (const auto &field : split(it->second, ',', false))
        out.push_back(parseInt(key, field));
    return out;
}

RunFlags
parseRunFlags(const CliArgs &args, int defaultJobs,
              double defaultObsIntervalMs)
{
    RunFlags flags;
    flags.jobs = args.getInt("jobs", defaultJobs);
    flags.seed = args.getUint64("seed", 42);
    flags.quick = args.getBool("quick");
    flags.csv = args.getBool("csv");
    flags.out = args.getString("out");
    flags.obsOut = args.getString("obs-out");
    flags.obsFormat = args.getString("obs-format", "json");
    if (flags.obsFormat != "json" && flags.obsFormat != "openmetrics")
        fatal("option --obs-format expects 'json' or 'openmetrics', "
              "got '" +
              flags.obsFormat + "'");
    flags.obsTrace = args.getString("obs-trace");
    flags.spanOut = args.getString("span-out");
    flags.harnessTrace = args.getString("harness-trace");
    flags.obsIntervalMs =
        args.getDouble("obs-interval-ms", defaultObsIntervalMs);
    if (flags.obsIntervalMs <= 0.0)
        fatal("option --obs-interval-ms expects a positive interval "
              "in milliseconds, got " +
              args.getString("obs-interval-ms"));
    return flags;
}

} // namespace skipsim

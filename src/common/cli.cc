#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

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

long
CliArgs::getInt(const std::string &key, long def) const
{
    auto it = _options.find(key);
    if (it == _options.end())
        return def;
    char *end = nullptr;
    long v = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        fatal("option --" + key + " expects an integer, got '" +
              it->second + "'");
    return v;
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

std::vector<long>
CliArgs::getIntList(const std::string &key, std::vector<long> def) const
{
    auto it = _options.find(key);
    if (it == _options.end())
        return def;
    std::vector<long> out;
    for (const auto &field : split(it->second, ',', false)) {
        char *end = nullptr;
        long v = std::strtol(field.c_str(), &end, 10);
        if (end == field.c_str() || *end != '\0')
            fatal("option --" + key + " expects integers, got '" +
                  field + "'");
        out.push_back(v);
    }
    return out;
}

RunFlags
parseRunFlags(const CliArgs &args, int defaultJobs,
              double defaultObsIntervalMs)
{
    RunFlags flags;
    flags.jobs = static_cast<int>(args.getInt("jobs", defaultJobs));
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

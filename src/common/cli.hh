/**
 * @file
 * Minimal command-line option parser for example programs and bench
 * binaries. Supports --flag, --key value, and --key=value forms.
 */

#ifndef SKIPSIM_COMMON_CLI_HH
#define SKIPSIM_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace skipsim
{

/**
 * Parsed command line. Options are stored as key -> value strings;
 * bare flags map to "true". Positional arguments are kept in order.
 */
class CliArgs
{
  public:
    /**
     * Parse argv. Anything starting with "--" is an option; a following
     * token that does not start with "--" becomes its value unless the
     * option used the --key=value form.
     */
    CliArgs(int argc, const char *const *argv);

    /** @return true when --key was present. */
    bool has(const std::string &key) const;

    /** String option with default. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;

    /** Integer option with default. @throws FatalError on bad format. */
    long getInt(const std::string &key, long def) const;

    /**
     * Unsigned 64-bit option with default (RNG seeds), parsed from
     * its decimal digits so every value below 2^64 is exact.
     * @throws FatalError on signs, fractions, exponents or overflow.
     */
    std::uint64_t getUint64(const std::string &key,
                            std::uint64_t def) const;

    /** Floating-point option with default. @throws FatalError on bad format. */
    double getDouble(const std::string &key, double def) const;

    /** Boolean flag: present (or "true"/"1") means true. */
    bool getBool(const std::string &key, bool def = false) const;

    /** Comma-separated integer list option, e.g. --batches 1,2,4,8. */
    std::vector<long> getIntList(const std::string &key,
                                 std::vector<long> def) const;

    /** Positional (non-option) arguments in order of appearance. */
    const std::vector<std::string> &positional() const { return _positional; }

    /** Program name (argv[0]). */
    const std::string &program() const { return _program; }

  private:
    std::string _program;
    std::map<std::string, std::string> _options;
    std::vector<std::string> _positional;
};

/**
 * The run-harness flags every entry point shares — parallelism, seed,
 * report/observability outputs — parsed once by parseRunFlags() so
 * skipctl subcommands and bench binaries stop hand-rolling the same
 * getInt/getString calls (and drifting on defaults).
 */
struct RunFlags
{
    /** Worker threads (--jobs); semantics of 0 are caller-defined. */
    int jobs = 1;

    std::uint64_t seed = 42;

    /** CI smoke mode (--quick): shrink grids/horizons, same code path. */
    bool quick = false;

    /** Machine-readable table output (--csv). */
    bool csv = false;

    /** Report JSON path (--out); empty means stdout/table only. */
    std::string out;

    /** Probe/metrics JSON path (--obs-out). */
    std::string obsOut;

    /** Metrics text format (--obs-format): "json" or "openmetrics". */
    std::string obsFormat = "json";

    /** Chrome-trace render of the probes (--obs-trace). */
    std::string obsTrace;

    /** Per-request lifecycle span trace path (--span-out). */
    std::string spanOut;

    /** Harness self-trace path (--harness-trace). */
    std::string harnessTrace;

    /** Probe sampling interval (--obs-interval-ms). */
    double obsIntervalMs = 100.0;

    /** Any observability sink requested? */
    bool wantObs() const { return !obsOut.empty() || !obsTrace.empty(); }

    bool wantOut() const { return !out.empty(); }
};

/**
 * Parse the shared flags out of @p args. Callers with different
 * conventions pass their defaults (e.g. ext_cluster_scaling's
 * jobs = 0 for "one per core", profile's 0.1 ms probe interval).
 */
RunFlags parseRunFlags(const CliArgs &args, int defaultJobs = 1,
                       double defaultObsIntervalMs = 100.0);

} // namespace skipsim

#endif // SKIPSIM_COMMON_CLI_HH

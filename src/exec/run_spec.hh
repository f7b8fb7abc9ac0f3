/**
 * @file
 * RunSpec: the one description of "a run" shared by every entry point,
 * built fluently
 *
 *     exec::RunSpec::of("GPT2").on("GH200").batch(8).seqLen(512).seed(42)
 *
 * Each field is declared once, in the option struct of the engine that
 * consumes it: RunSpec holds a workload::BuildOptions (batch, sequence
 * length, mode) and a sim::SimOptions (seed, jitter) and hands them
 * out by reference, so skip::profile(spec.model(), spec.platform(),
 * spec.buildOptions(), spec.simOptions()) runs the spec as is.
 */

#ifndef SKIPSIM_EXEC_RUN_SPEC_HH
#define SKIPSIM_EXEC_RUN_SPEC_HH

#include <cstdint>
#include <map>
#include <string>

#include "hw/platform.hh"
#include "json/value.hh"
#include "serving/server_sim.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/exec_mode.hh"
#include "workload/model_config.hh"

namespace skipsim::exec
{

/**
 * Everything identifying one experiment point. Construct with of(),
 * chain the fluent setters, then hand it to a Runner / analysis or to
 * the engines through buildOptions() / simOptions().
 */
class RunSpec
{
  public:
    RunSpec();

    /** @name Fluent construction
     *  @{ */
    static RunSpec of(const workload::ModelConfig &model);
    /** @throws skipsim::FatalError for unknown catalog names. */
    static RunSpec of(const std::string &model_name);

    RunSpec &on(const hw::Platform &platform);
    /** @throws skipsim::FatalError for unknown catalog names. */
    RunSpec &on(const std::string &platform_name);

    RunSpec &batch(int n);
    RunSpec &seqLen(int n);
    RunSpec &mode(workload::ExecMode m);
    /** @throws skipsim::FatalError for unknown mode names. */
    RunSpec &mode(const std::string &mode_name);
    RunSpec &seed(std::uint64_t s);
    /** Opt into timing jitter (determinism is the default). */
    RunSpec &jitter(bool on, double frac = 0.02);
    /** Analysis-specific numeric knob (e.g. "rate" for serving). */
    RunSpec &opt(const std::string &key, double value);
    /** Analysis-specific string knob (e.g. "scenario" for scenario). */
    RunSpec &strOpt(const std::string &key, const std::string &value);
    /** @} */

    /** @name Accessors
     *  @{ */
    const workload::ModelConfig &model() const { return _model; }
    const hw::Platform &platform() const { return _platform; }
    int batch() const { return _build.batch; }
    int seqLen() const { return _build.seqLen; }
    workload::ExecMode mode() const { return _build.mode; }
    std::uint64_t seed() const { return _sim.seed; }
    const workload::BuildOptions &buildOptions() const { return _build; }
    const sim::SimOptions &simOptions() const { return _sim; }
    double opt(const std::string &key, double def) const;
    /**
     * Numeric option @p key as an int (@p def when unset).
     * @throws skipsim::FatalError naming @p key unless the value is an
     *         integer within int's range (see json::intValue).
     */
    int intOpt(const std::string &key, int def) const;
    std::string strOpt(const std::string &key,
                       const std::string &def) const;
    const std::map<std::string, double> &options() const { return _options; }
    const std::map<std::string, std::string> &strOptions() const
    {
        return _strOptions;
    }
    /** @} */

    /** "Model/Platform b8 s512 eager seed42" display identity. */
    std::string label() const;

    /**
     * Serving knobs from the option map: "rate" (requests/s),
     * "horizon-sec", "max-batch", "max-wait-ms"; arrival seed from
     * seed().
     */
    serving::ServingConfig servingConfig() const;

    /**
     * JSON round trip. Models/platforms serialize by catalog name;
     * fromJson also accepts inline model/platform objects
     * (workload::modelFromJson / hw::platformFromJson).
     */
    json::Value toJson() const;
    /** @throws skipsim::FatalError on malformed documents. */
    static RunSpec fromJson(const json::Value &doc);

  private:
    workload::ModelConfig _model;
    hw::Platform _platform;
    workload::BuildOptions _build;
    sim::SimOptions _sim;
    std::map<std::string, double> _options;
    std::map<std::string, std::string> _strOptions;
};

} // namespace skipsim::exec

#endif // SKIPSIM_EXEC_RUN_SPEC_HH

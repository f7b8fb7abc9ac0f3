/**
 * @file
 * The benchmark's workloads. Each one turns the workload seed into
 * inputs during set-up, then runs operations on them: one operation is
 * a sequence of calls into SKIP-Sim's public functions, each wrapped
 * in a layer span. Output checks run after the operation's timer has
 * stopped and reduce the outputs to a digest, so a change that alters
 * one simulated number changes the digest.
 */

#ifndef SKIPBENCH_WORKLOADS_HH
#define SKIPBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hh"

namespace skipbench
{

/** Outcome of checking one operation's outputs. */
struct Verdict
{
    /** Failed output checks, one line each; empty when correct. */
    std::vector<std::string> problems;

    /** FNV-1a digest of the operation's canonical output bytes. */
    std::uint64_t digest = 0;

    /** Work items the operation did (profiles, events, ...). */
    double work = 0.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Unit of Verdict::work, for the report ("profiles", ...). */
    virtual const char *workUnit() const = 0;

    /** Build every input from the seed. Timed as setup_s; repeatable. */
    virtual void setup(Layers &layers) = 0;

    /** Distinct operation inputs; operations cycle through them. */
    virtual std::size_t inputs() const = 0;

    /** Leading inputs whose combined digest is recorded as golden. */
    virtual std::size_t goldenInputs() const { return inputs(); }

    /**
     * Quantile reported as op_tail_ms: fixed per workload, and low
     * enough that a run at the benchmark's length has well over ten
     * operations beyond it.
     */
    virtual double tailQuantile() const { return 0.75; }

    /** One timed operation on input @p i: program calls only. */
    virtual void run(std::size_t i, Layers &layers) = 0;

    /** Check the last run's outputs (untimed) and release them. */
    virtual Verdict check(std::size_t i) = 0;

    /** Standalone per-layer measurements of the traced run. */
    virtual void extras(Layers &) {}
};

/** Input scale: the benchmark's own size, or a seconds-long smoke. */
enum class Size { Full, Tiny };

/** Workload names, in the order BENCHMARK.json lists them. */
std::vector<std::string> workloadNames();

/** @return null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, Size size);

/** FNV-1a over @p bytes, continuing from @p hash. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t hash = 14695981039346656037ull);

} // namespace skipbench

#endif // SKIPBENCH_WORKLOADS_HH

/**
 * @file
 * Host-time layer spans for the benchmark. The benchmark wraps each
 * call it makes into a SKIP-Sim module's public functions in a span
 * named "<module>.<call>" (e.g. "skip.depgraph"); nested calls become
 * child spans, so a layer's self time is its duration minus what its
 * children cover. Counters ride along at the same boundaries.
 *
 * Spans are kept in memory and exported at exit as a Chrome/Perfetto
 * trace. A disabled recorder (the untraced run) records nothing: each
 * span costs one branch.
 *
 * Every span and counter belongs to a unit of a phase — one op of the
 * timed loop, one repetition of set-up, or one standalone extra — so
 * per-layer metrics normalise by the number of units of that phase.
 */

#ifndef SKIPBENCH_LAYERS_HH
#define SKIPBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace skipbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

enum class Phase { Setup, Op, Extra };

class Layers
{
  public:
    explicit Layers(bool enabled);

    /** RAII span: closes on destruction. */
    class Scope
    {
      public:
        Scope(Layers *owner, int index) : _owner(owner), _index(index) {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Layers *_owner;
        int _index;
    };

    /** Open a span named @p name (a string literal). */
    [[nodiscard]] Scope span(const char *name);

    /** Add @p value to counter @p name in the current unit. */
    void count(const char *name, double value);

    /** Following spans and counters belong to a new unit of @p phase. */
    void beginUnit(Phase phase);

    /** Units seen of @p phase. */
    std::size_t units(Phase phase) const;

    /** Summed duration of the spans named @p name, ns. */
    double totalNs(const std::string &name) const;

    /** Number of spans named @p name. */
    std::size_t calls(const std::string &name) const;

    /** Summed counter @p name. */
    double counter(const std::string &name) const;

    /** Per-name self time of @p phase's spans, ns: duration minus
     *  child-span coverage. */
    std::map<std::string, double> selfNs(Phase phase) const;

    /** Write the spans as a Chrome/Perfetto trace ("X" events). */
    bool writeChrome(const std::string &path) const;

  private:
    struct Rec
    {
        const char *name;
        std::int64_t beginNs;
        std::int64_t endNs;
        int parent;
        Phase phase;
        std::size_t unit;
    };

    std::int64_t nowNs() const;
    void close(int index);

    bool _enabled;
    Clock::time_point _origin;
    std::vector<Rec> _recs;
    std::vector<int> _open;
    std::map<std::string, double> _counters;
    Phase _phase = Phase::Setup;
    std::size_t _unit = 0;
    std::size_t _units[3] = {0, 0, 0};
};

} // namespace skipbench

#endif // SKIPBENCH_LAYERS_HH

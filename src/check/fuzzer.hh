/**
 * @file
 * Deterministic fuzz harness with shrinking. Generates random but
 * seed-reproducible specs across the three engines (operator graphs
 * for the execution simulator, dynamic-batching serving configs,
 * cluster scenarios) plus corrupted Chrome-trace bytes for the
 * ingestion path, runs each through the real code, and holds the
 * output to the oracles a correct simulator cannot violate:
 *
 *  - every invariant validateTrace() asserts (sim cases);
 *  - metric identities (gpu busy + idle == IL, TKLQT >= queue part);
 *  - determinism: the same case run twice, and run on pool workers,
 *    must produce byte-identical serialized output (the jobs-1 vs
 *    jobs-N differential oracle);
 *  - result sanity: percentile ordering, utilization in [0,1],
 *    offered == completed + lost, goodput <= throughput;
 *  - sim cases: the trace-free walk (sim::Simulator::wallNs) ends at
 *    the traced run's wall time bit for bit; one root of the graph
 *    repeated as a block of layers ends at the same wall time whether
 *    the trace-free walk folds the block or walks every copy; the
 *    traced run's trace equals the append-then-sort recorder's field
 *    by field (diffSimResults); and the dependency graph of the trace
 *    equals the map-based builder's (diffDependencyGraphs). One
 *    operator in four has preFraction 0 or 1;
 *  - trace cases: a trace that parses builds the same dependency
 *    graph, or the same error, as the map-based builder; correlation
 *    ids are not sequential, some launches reuse one, and one case in
 *    four is left uncorrupted, so it mostly reaches that builder;
 *  - serving cases: the closed-form batcher against its event-driven
 *    loop (diffServing), and a continuous-batching config drawn from
 *    the case seed on a stream of its own, whose arrival walk is held
 *    to its event-driven loop (diffContinuous), also with one arrival
 *    placed exactly on an iteration end (the tie rule), and one
 *    forward pass drawn from another stream of the case seed (its
 *    layer count from a fourth), priced graph-free
 *    (sim::Simulator::wallNs(model, opts[, ctx]), which may fold its
 *    layers) and by the walk of the tree the builder makes, bit for
 *    bit;
 *  - cluster cases: at most one arrival event pending at once, and
 *    the differential oracles of the router (diffRouters) and of the
 *    event queue (diffEventQueues) replayed at the case's seed.
 *
 * Case i derives its seed as mixSeed(baseSeed, i) — the same
 * discipline exec::SweepSpec uses — so any failure reproduces from
 * (baseSeed, index) alone. On failure the harness greedily shrinks the
 * case (drop roots, clear children/launches, zero jitter, halve
 * horizons, rates and the continuous config's batch and tokens) to a
 * minimal spec that still fails and writes it to disk as JSON;
 * `skipctl check --replay <file>` re-runs it.
 *
 * FuzzOptions::traceMutator and FuzzOptions::continuousMutator exist
 * for testing the harness itself: they corrupt the simulated trace
 * before validation, or the continuous walk's result before
 * diffContinuous compares it, standing in for an intentionally-broken
 * engine build, and let tests assert the fail -> shrink ->
 * repro-on-disk path end to end.
 */

#ifndef SKIPSIM_CHECK_FUZZER_HH
#define SKIPSIM_CHECK_FUZZER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "json/value.hh"
#include "serving/continuous.hh"
#include "serving/server_sim.hh"
#include "trace/trace.hh"
#include "workload/op_graph.hh"

namespace skipsim::check
{

/** Engine a fuzz case exercises. */
enum class FuzzKind
{
    Sim,     ///< operator graph -> sim::Simulator -> trace oracles
    Serving, ///< ServingConfig -> serving::simulateServing
    Cluster, ///< ClusterSpec -> cluster::simulateCluster
    Trace,   ///< mutated Chrome JSON bytes -> trace::fromChromeText
};

/** @return canonical kind name ("sim", "serving", "cluster", "trace"). */
const char *fuzzKindName(FuzzKind kind);

/** @throws skipsim::FatalError for unknown kind names. */
FuzzKind fuzzKindByName(const std::string &name);

/** Operator-graph JSON round trip (repro files, replay). */
json::Value graphToJson(const workload::OperatorGraph &graph);
/** @throws skipsim::FatalError on malformed documents. */
workload::OperatorGraph graphFromJson(const json::Value &doc);

/**
 * One generated (or replayed) fuzz case. Only the section named by
 * `kind` is meaningful; the others stay at their defaults.
 */
struct FuzzCase
{
    FuzzKind kind = FuzzKind::Sim;

    /** Case seed (mixSeed(baseSeed, index) when generated). */
    std::uint64_t seed = 0;

    /** @name Sim section
     *  @{ */
    std::string platformName = "GH200";
    workload::OperatorGraph graph;
    bool jitter = false;
    /** @} */

    /** @name Serving section (latency model is linear in batch)
     *  @{ */
    serving::ServingConfig serving;
    double latencyBaseNs = 2e6;
    double latencySlopeNs = 1e6;
    /**
     * The continuous-batching config diffContinuous runs beside the
     * serving case. Generated cases draw it from the case seed on a
     * stream of its own (so the serving fields keep their bytes);
     * shrinking edits it like any other field.
     */
    serving::ContinuousConfig continuous;
    /** @} */

    /** @name Cluster section
     *  @{ */
    cluster::ClusterSpec cluster;
    /** @} */

    /** @name Trace section
     *  @{ */
    /**
     * Chrome-JSON bytes fed to trace::fromChromeText — a valid export
     * corrupted, in three cases of four, by seeded byte-level
     * mutations (bit flips, inserts, deletes, truncation; in one case
     * of four also an args member
     * nested in balanced brackets around the parser's depth cap). The
     * ingestion oracle
     * accepts success or a clean FatalError; anything else (crash,
     * non-FatalError exception, an "event" diagnostic without the
     * event index, an accepted event with a negative duration) fails
     * the case.
     */
    std::string chromeText;
    /** @} */

    /** Shrink-progress size: operator count (sim) or scenario knobs. */
    std::size_t sizeScore() const;

    json::Value toJson() const;
    /** @throws skipsim::FatalError on malformed documents. */
    static FuzzCase fromJson(const json::Value &doc);
};

/**
 * Trace-ingestion oracle on one reader diagnostic: true when the
 * message blames an event record without naming its index. A message
 * that names one ("event <N>:") passes whatever its detail says, and
 * a document-level diagnostic that mentions the event array the
 * document should hold blames no record.
 */
bool blamesEventWithoutIndex(const std::string &message);

/** Campaign configuration. */
struct FuzzOptions
{
    std::uint64_t seed = 1;

    /** Cases to generate and run. */
    std::size_t cases = 100;

    /** Smaller graphs and shorter horizons (CI budget). */
    bool quick = false;

    /** Worker threads the campaign fans cases across (1 = serial). */
    int jobs = 1;

    /**
     * Directory the shrunken repro JSON is written into; made when
     * missing.
     */
    std::string reproDir = ".";

    /**
     * Test fixture: corrupt the simulated trace between engine and
     * validation (sim cases only). Models an intentionally-broken
     * build so the fail/shrink/repro path itself is testable. Must be
     * callable concurrently when jobs > 1.
     */
    std::function<void(trace::Trace &)> traceMutator;

    /**
     * Test fixture: corrupt the continuous walk's result before
     * diffContinuous compares it with the event-driven loop (serving
     * cases only). Same contract as traceMutator.
     */
    std::function<void(serving::ContinuousResult &)> continuousMutator;
};

/** Campaign outcome. */
struct FuzzReport
{
    std::size_t casesRun = 0;
    std::size_t failures = 0;

    /** Index and problems of the first failing case (campaign order). */
    std::uint64_t firstFailureIndex = 0;
    std::vector<std::string> firstProblems;

    /** Shrunken minimal repro of the first failure. */
    bool shrunk = false;
    FuzzCase minimal;

    /** Repro file path ("" when every case passed). */
    std::string reproPath;

    /** Why the repro could not be written ("" when it was). */
    std::string reproError;

    bool ok() const { return failures == 0; }

    /** Human-readable campaign summary. */
    std::string render() const;
};

/** Seed-driven generator + oracle runner + greedy shrinker. */
class Fuzzer
{
  public:
    explicit Fuzzer(FuzzOptions options = {});

    /** Deterministically generate case @p index. */
    FuzzCase generate(std::uint64_t index) const;

    /**
     * Run one case through its engine and every applicable oracle.
     * @return one message per violated oracle; empty means the case
     *         passed. Never throws on oracle failures; engine-level
     *         FatalError/PanicError are captured as oracle messages.
     */
    std::vector<std::string> runCase(const FuzzCase &c) const;

    /**
     * Greedily shrink a failing case: repeatedly try size-reducing
     * edits (drop roots, clear children/launches, zero jitter, halve
     * horizon/rate/replicas/faults, halve the continuous config's
     * horizon/batch/tokens and drop its chunk) and keep any edit that
     * still fails, until no edit helps or the attempt budget is spent.
     */
    FuzzCase shrink(const FuzzCase &failing) const;

    /**
     * Run the whole campaign: generate options.cases cases, evaluate
     * them (fanned over options.jobs workers), and on the first
     * failure shrink it and write the repro JSON to options.reproDir.
     */
    FuzzReport run() const;

    const FuzzOptions &options() const { return _options; }

  private:
    FuzzOptions _options;
};

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_FUZZER_HH

/**
 * @file
 * Scenario registry: named, self-registering builders that construct a
 * full cluster run — workload, arrival process, platform/cluster
 * config — from one JSON parameter document. Front ends dispatch on
 * the scenario name (skipctl run --scenario NAME --spec s.json, the
 * "scenario" exec analysis, bench tables), so adding a traffic model
 * or deployment shape means registering one builder, not growing
 * another subcommand body.
 *
 * The registry is the workload-factory pattern already used for exec
 * analyses: a string-keyed map of builders behind a mutex, with
 * built-ins registered on first use. Unlike the analysis registry,
 * duplicate registration is an error (two builders silently shadowing
 * each other under one name would make --scenario runs depend on
 * registration order), and unknown names suggest the lexicographically
 * nearest registered name so a typo'd --scenario fails helpfully.
 *
 * Determinism: builders are pure spec constructors — no RNG, no host
 * state. All randomness stays in the simulation layers, keyed by the
 * spec's seed, so a (scenario, params) pair fully determines the
 * report at any --jobs count.
 */

#ifndef SKIPSIM_SCENARIO_REGISTRY_HH
#define SKIPSIM_SCENARIO_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "json/value.hh"

namespace skipsim::scenario
{

/**
 * A scenario whose params list declares this name passes its whole
 * parameter document to a builder that owns the schema (the raw
 * "cluster" scenario); buildScenario then checks no keys.
 */
inline const std::string kRootParam = "(root)";

/** One accepted scenario parameter. */
struct ScenarioParam
{
    /** Parameter key in the --spec JSON object. */
    std::string name;

    /** One-line meaning, including the default. */
    std::string description;
};

/** One registered scenario. */
struct Scenario
{
    /** Registry key (--scenario NAME). */
    std::string name;

    /** One-line summary shown by `skipctl scenarios`. */
    std::string description;

    /**
     * Build the run from a JSON parameter object (the --spec file's
     * root). Builders validate their parameters and the returned spec;
     * they never draw randomness.
     */
    std::function<cluster::ClusterSpec(const json::Object &params)>
        build;

    /**
     * Accepted parameters (`skipctl scenarios --json`). buildScenario
     * rejects any other key except "schema_version".
     */
    std::vector<ScenarioParam> params;
};

/**
 * Register @p scenario. Thread-safe.
 * @throws skipsim::FatalError for an empty name, a null builder, or a
 *         name that is already registered.
 */
void registerScenario(Scenario scenario);

/** @return true when @p name is registered (built-in or external). */
bool hasScenario(const std::string &name);

/**
 * Look up a scenario.
 * @throws skipsim::FatalError for unknown names; the message names the
 *         nearest registered scenario and lists all of them.
 */
const Scenario &scenarioByName(const std::string &name);

/**
 * Build scenario @p name's ClusterSpec from @p params.
 * @throws skipsim::FatalError for unknown names (see scenarioByName),
 *         undeclared parameter keys (the message lists the accepted
 *         ones), or builder failures — a builder's error is re-raised
 *         with the scenario name prefixed so `skipctl run` failures
 *         say which scenario rejected its spec.
 */
cluster::ClusterSpec buildScenario(const std::string &name,
                                   const json::Object &params);

/** All registered scenarios, sorted by name. */
std::vector<Scenario> scenarioList();

/** All registered names, sorted. */
std::vector<std::string> scenarioNames();

/**
 * Machine-readable listing (`skipctl scenarios --json`): an array of
 * {"name", "description", "params": [{"name", "description"}]}
 * objects, sorted by scenario name.
 */
json::Value scenarioListToJson();

} // namespace skipsim::scenario

#endif // SKIPSIM_SCENARIO_REGISTRY_HH

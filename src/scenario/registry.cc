#include "scenario/registry.hh"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::scenario
{

/** Defined in builtin.cc; called once before any registry access. */
void registerBuiltinScenarios();

namespace
{

std::mutex g_mutex;
std::map<std::string, Scenario> g_scenarios;
std::once_flag g_builtinsOnce;

void
ensureBuiltins()
{
    std::call_once(g_builtinsOnce, registerBuiltinScenarios);
}

/** Classic dynamic-programming edit distance, for typo suggestions. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

std::string
joinedNamesLocked()
{
    std::string joined;
    for (const auto &[name, scenario] : g_scenarios) {
        if (!joined.empty())
            joined += ", ";
        joined += name;
    }
    return joined;
}

} // namespace

void
registerScenario(Scenario scenario)
{
    if (scenario.name.empty())
        fatal("registerScenario: empty name");
    if (!scenario.build)
        fatal(strprintf("registerScenario: scenario '%s' has no builder",
                        scenario.name.c_str()));
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_scenarios.count(scenario.name))
        fatal(strprintf("registerScenario: scenario '%s' is already "
                        "registered",
                        scenario.name.c_str()));
    g_scenarios.emplace(scenario.name, std::move(scenario));
}

bool
hasScenario(const std::string &name)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_scenarios.count(name) > 0;
}

const Scenario &
scenarioByName(const std::string &name)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_scenarios.find(name);
    if (it != g_scenarios.end())
        return it->second;

    // Unknown: suggest the nearest registered name (ties break
    // lexicographically via map order) and list what exists.
    std::string nearest;
    std::size_t best = std::string::npos;
    for (const auto &[candidate, scenario] : g_scenarios) {
        std::size_t d = editDistance(name, candidate);
        if (d < best) {
            best = d;
            nearest = candidate;
        }
    }
    if (nearest.empty())
        fatal(strprintf("unknown scenario '%s' (none registered)",
                        name.c_str()));
    fatal(strprintf("unknown scenario '%s'; did you mean '%s'? "
                    "(available: %s)",
                    name.c_str(), nearest.c_str(),
                    joinedNamesLocked().c_str()));
}

cluster::ClusterSpec
buildScenario(const std::string &name, const json::Object &params)
{
    const Scenario &scenario = scenarioByName(name);
    std::vector<std::string> accepted;
    for (const ScenarioParam &param : scenario.params)
        accepted.push_back(param.name);
    auto declared = [&accepted](const std::string &key) {
        return std::find(accepted.begin(), accepted.end(), key) !=
               accepted.end();
    };
    for (const json::Member &member : params)
        if (!declared(kRootParam) && member.key != "schema_version" &&
            !declared(member.key))
            fatal(strprintf("scenario '%s': unknown parameter '%s' "
                            "(accepted: %s)",
                            name.c_str(), member.key.c_str(),
                            join(accepted, ", ").c_str()));
    try {
        return scenario.build(params);
    } catch (const FatalError &err) {
        fatal(strprintf("scenario '%s': %s", name.c_str(), err.what()));
    } catch (const std::exception &err) {
        fatal(strprintf("scenario '%s': %s", name.c_str(), err.what()));
    }
}

std::vector<Scenario>
scenarioList()
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<Scenario> out;
    out.reserve(g_scenarios.size());
    for (const auto &[name, scenario] : g_scenarios)
        out.push_back(scenario);
    return out;
}

std::vector<std::string>
scenarioNames()
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<std::string> out;
    out.reserve(g_scenarios.size());
    for (const auto &[name, scenario] : g_scenarios)
        out.push_back(name);
    return out;
}

json::Value
scenarioListToJson()
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(g_mutex);
    json::Value::Array list;
    for (const auto &[name, scenario] : g_scenarios) {
        json::Object entry;
        entry.set("name", scenario.name);
        entry.set("description", scenario.description);
        json::Value::Array params;
        for (const ScenarioParam &param : scenario.params) {
            json::Object p;
            p.set("name", param.name);
            p.set("description", param.description);
            params.push_back(json::Value(std::move(p)));
        }
        entry.set("params", json::Value(std::move(params)));
        list.push_back(json::Value(std::move(entry)));
    }
    return json::Value(std::move(list));
}

} // namespace skipsim::scenario

#include "cluster/router.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::cluster
{

const char *
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::RoundRobin:
        return "round-robin";
    case RouterPolicy::LeastOutstanding:
        return "least-outstanding";
    case RouterPolicy::WeightedThroughput:
        return "weighted";
    case RouterPolicy::SessionAffinity:
        return "affinity";
    }
    return "unknown";
}

RouterPolicy
routerPolicyByName(const std::string &name)
{
    for (RouterPolicy policy :
         {RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding,
          RouterPolicy::WeightedThroughput,
          RouterPolicy::SessionAffinity}) {
        if (name == routerPolicyName(policy))
            return policy;
    }
    fatal(strprintf("cluster: unknown router policy '%s' (expected "
                    "round-robin, least-outstanding, weighted or "
                    "affinity)",
                    name.c_str()));
}

std::vector<std::string>
routerPolicyNames()
{
    return {"round-robin", "least-outstanding", "weighted", "affinity"};
}

namespace
{

constexpr double kIneligible = std::numeric_limits<double>::infinity();

} // namespace

Router::Router(RouterPolicy policy, std::vector<double> weights)
    : _policy(policy), _weights(std::move(weights))
{
    if (_weights.empty())
        fatal("Router: need at least one replica");
    for (double w : _weights) {
        // The trees use +inf to mean "ineligible"; a finite positive
        // weight keeps every load/weight key meaningful next to it.
        if (!std::isfinite(w) || w <= 0.0)
            fatal("Router: replica weights must be positive and finite");
    }
    _outstanding.assign(_weights.size(), 0);
    _down.assign(_weights.size(), false);
    if (_policy != RouterPolicy::RoundRobin)
        _trees.push_back(makeTree(kAnyClass));
}

std::size_t
Router::npos()
{
    return std::numeric_limits<std::size_t>::max();
}

void
Router::setClasses(std::vector<unsigned> classes)
{
    if (!classes.empty() && classes.size() != _weights.size())
        fatal("Router: class mask count must match the replica count");
    _classes = std::move(classes);
    // Per-class trees are built again on their next pick; the
    // class-blind one does not read the masks.
    if (!_trees.empty())
        _trees.resize(1);
}

bool
Router::serves(std::size_t replica, unsigned klass) const
{
    if (_down[replica])
        return false;
    return klass == kAnyClass || _classes.empty() ||
        (_classes[replica] & klass) != 0;
}

bool
Router::eligible(std::size_t replica,
                 const std::vector<std::size_t> &exclude,
                 unsigned klass) const
{
    return serves(replica, klass) &&
        std::find(exclude.begin(), exclude.end(), replica) ==
        exclude.end();
}

double
Router::treeKey(std::size_t replica, unsigned klass) const
{
    if (!serves(replica, klass))
        return kIneligible;
    double load = static_cast<double>(_outstanding[replica]);
    if (_policy == RouterPolicy::WeightedThroughput)
        load /= _weights[replica];
    return load;
}

Router::ClassTree &
Router::treeFor(unsigned klass)
{
    if (klass == kAnyClass || _classes.empty())
        return _trees.front();
    for (ClassTree &tree : _trees) {
        if (tree.klass == klass)
            return tree;
    }
    _trees.push_back(makeTree(klass));
    return _trees.back();
}

Router::ClassTree
Router::makeTree(unsigned klass) const
{
    std::vector<double> keys(_weights.size());
    for (std::size_t r = 0; r < keys.size(); ++r)
        keys[r] = treeKey(r, klass);
    ClassTree tree;
    tree.klass = klass;
    tree.loads.assign(keys, kIneligible);
    return tree;
}

void
Router::refresh(std::size_t replica)
{
    for (ClassTree &tree : _trees)
        tree.loads.setLeaf(replica, treeKey(replica, tree.klass));
}

std::size_t
Router::leastLoaded(const std::vector<std::size_t> &exclude,
                    unsigned klass)
{
    ClassTree &tree = treeFor(klass);
    std::size_t n = _weights.size();
    for (std::size_t r : exclude) {
        if (r < n)
            tree.loads.setLeaf(r, kIneligible);
    }
    std::uint32_t best = tree.loads.top();
    std::size_t picked =
        tree.loads.key(best) < kIneligible ? best : npos();
    // Restoring recomputes each leaf from the router state, so a
    // replica excluded twice comes back correctly in any order.
    for (std::size_t r : exclude) {
        if (r < n)
            tree.loads.setLeaf(r, treeKey(r, tree.klass));
    }
    return picked;
}

std::size_t
Router::pick(int session, const std::vector<std::size_t> &exclude,
             unsigned klass)
{
    std::size_t n = _weights.size();
    switch (_policy) {
    case RouterPolicy::RoundRobin:
        for (std::size_t step = 0; step < n; ++step) {
            std::size_t r = (_rrCursor + step) % n;
            if (eligible(r, exclude, klass)) {
                _rrCursor = (r + 1) % n;
                return r;
            }
        }
        return npos();
    case RouterPolicy::LeastOutstanding:
    case RouterPolicy::WeightedThroughput:
        return leastLoaded(exclude, klass);
    case RouterPolicy::SessionAffinity: {
        std::size_t home = static_cast<std::size_t>(session) % n;
        if (eligible(home, exclude, klass))
            return home;
        return leastLoaded(exclude, klass);
    }
    }
    return npos();
}

void
Router::onDispatch(std::size_t replica)
{
    ++_outstanding.at(replica);
    refresh(replica);
}

void
Router::onSettled(std::size_t replica)
{
    std::size_t &count = _outstanding.at(replica);
    if (count == 0)
        fatal("Router: settled more requests than were dispatched");
    --count;
    refresh(replica);
}

void
Router::markDown(std::size_t replica)
{
    _down.at(replica) = true;
    refresh(replica);
}

void
Router::markUp(std::size_t replica)
{
    _down.at(replica) = false;
    refresh(replica);
}

} // namespace skipsim::cluster

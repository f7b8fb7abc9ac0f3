#include "check/scan_router.hh"

#include <algorithm>
#include <limits>

#include "common/random.hh"
#include "common/strutil.hh"

namespace skipsim::check
{

using cluster::Router;
using cluster::RouterPolicy;

ScanRouter::ScanRouter(RouterPolicy policy, std::vector<double> weights)
    : _policy(policy), _weights(std::move(weights))
{
    _outstanding.assign(_weights.size(), 0);
    _down.assign(_weights.size(), false);
}

void
ScanRouter::setClasses(std::vector<unsigned> classes)
{
    _classes = std::move(classes);
}

bool
ScanRouter::eligible(std::size_t replica,
                     const std::vector<std::size_t> &exclude,
                     unsigned klass) const
{
    if (_down[replica])
        return false;
    if (klass != cluster::kAnyClass && !_classes.empty() &&
        (_classes[replica] & klass) == 0)
        return false;
    return std::find(exclude.begin(), exclude.end(), replica) ==
        exclude.end();
}

std::size_t
ScanRouter::leastLoaded(const std::vector<std::size_t> &exclude,
                        bool weighted, unsigned klass) const
{
    std::size_t best = Router::npos();
    double best_load = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < _weights.size(); ++r) {
        if (!eligible(r, exclude, klass))
            continue;
        double load = static_cast<double>(_outstanding[r]);
        if (weighted)
            load /= _weights[r];
        if (load < best_load) {
            best_load = load;
            best = r;
        }
    }
    return best;
}

std::size_t
ScanRouter::pick(int session, const std::vector<std::size_t> &exclude,
                 unsigned klass) const
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
        return Router::npos();
    case RouterPolicy::LeastOutstanding:
        return leastLoaded(exclude, false, klass);
    case RouterPolicy::WeightedThroughput:
        return leastLoaded(exclude, true, klass);
    case RouterPolicy::SessionAffinity: {
        std::size_t home = static_cast<std::size_t>(session) % n;
        if (eligible(home, exclude, klass))
            return home;
        return leastLoaded(exclude, false, klass);
    }
    }
    return Router::npos();
}

void
ScanRouter::onDispatch(std::size_t replica)
{
    ++_outstanding.at(replica);
}

void
ScanRouter::onSettled(std::size_t replica)
{
    --_outstanding.at(replica);
}

void
ScanRouter::markDown(std::size_t replica)
{
    _down.at(replica) = true;
}

void
ScanRouter::markUp(std::size_t replica)
{
    _down.at(replica) = false;
}

std::string
diffRouters(std::uint64_t seed, RouterPolicy policy, std::size_t replicas,
            std::size_t steps)
{
    Rng rng(seed);
    const double kWeights[] = {0.5, 1.0, 2.0, 3.0};
    std::vector<double> weights(replicas);
    for (double &w : weights)
        w = kWeights[rng.below(4)];
    Router fast(policy, weights);
    ScanRouter scan(policy, weights);
    auto setClasses = [&](bool classed) {
        std::vector<unsigned> masks;
        for (std::size_t r = 0; classed && r < replicas; ++r)
            masks.push_back(1u + static_cast<unsigned>(rng.below(3)));
        fast.setClasses(masks);
        scan.setClasses(std::move(masks));
    };
    if (rng.below(2) == 0)
        setClasses(true);

    std::string problem;
    auto diverged = [&](std::size_t step, int session, unsigned klass,
                        std::size_t excluded, std::size_t got,
                        std::size_t want) {
        problem = strprintf(
            "router differential (seed %llu, %s, %zu replicas): step "
            "%zu: pick(session %d, class %u, %zu excluded) returned "
            "%zu, the scan %zu",
            static_cast<unsigned long long>(seed),
            cluster::routerPolicyName(policy), replicas, step, session,
            klass, excluded, got, want);
    };
    // One dispatch attempt: a pick, then up to three admission
    // rejects, each excluding the last answer and now and then a
    // repeated or out-of-range index as well.
    auto query = [&](std::size_t step) {
        int session = static_cast<int>(rng.below(1u << 16));
        unsigned klass = static_cast<unsigned>(rng.below(4));
        std::size_t rejects = rng.below(4) == 0 ? 1 + rng.below(3) : 0;
        std::vector<std::size_t> exclude;
        for (std::size_t attempt = 0;; ++attempt) {
            std::size_t got = fast.pick(session, exclude, klass);
            std::size_t want = scan.pick(session, exclude, klass);
            if (got != want) {
                diverged(step, session, klass, exclude.size(), got, want);
                return Router::npos();
            }
            if (got == Router::npos() || attempt == rejects)
                return got;
            exclude.push_back(got);
            if (rng.below(4) == 0)
                exclude.push_back(rng.below(2) == 0
                                      ? exclude[rng.below(exclude.size())]
                                      : replicas + rng.below(3));
        }
    };

    std::vector<std::size_t> inflight; ///< one entry per open dispatch
    for (std::size_t step = 0; step < steps && problem.empty(); ++step) {
        std::uint64_t op = rng.below(100);
        if (step == steps / 2) {
            // The all-ineligible fleet, then a random half back up.
            for (std::size_t r = 0; r < replicas; ++r) {
                fast.markDown(r);
                scan.markDown(r);
            }
            for (unsigned klass = 0; klass < 4 && problem.empty();
                 ++klass) {
                std::size_t got = fast.pick(0, {}, klass);
                std::size_t want = scan.pick(0, {}, klass);
                if (got != Router::npos() || want != Router::npos())
                    diverged(step, 0, klass, 0, got, want);
            }
            for (std::size_t r = 0; r < replicas; ++r) {
                if (rng.below(2) == 0) {
                    fast.markUp(r);
                    scan.markUp(r);
                }
            }
        } else if (op < 40) {
            std::size_t r = query(step);
            if (r == Router::npos() || rng.below(4) == 0)
                r = rng.below(replicas);
            fast.onDispatch(r);
            scan.onDispatch(r);
            inflight.push_back(r);
        } else if (op < 70) {
            if (!inflight.empty()) {
                std::size_t slot = rng.below(inflight.size());
                std::size_t r = inflight[slot];
                inflight[slot] = inflight.back();
                inflight.pop_back();
                fast.onSettled(r);
                scan.onSettled(r);
            }
        } else if (op < 80) {
            std::size_t r = rng.below(replicas);
            fast.markDown(r);
            scan.markDown(r);
        } else if (op < 90) {
            std::size_t r = rng.below(replicas);
            fast.markUp(r);
            scan.markUp(r);
        } else if (op < 92) {
            setClasses(rng.below(2) == 0);
        }
        if (problem.empty())
            query(step);
    }
    return problem;
}

} // namespace skipsim::check

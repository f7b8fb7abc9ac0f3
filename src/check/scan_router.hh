/**
 * @file
 * Differential oracle for cluster::Router. ScanRouter is the linear
 * scan the indexed router replaced: every pick visits every replica
 * and keeps the first one of strictly smaller load. diffRouters()
 * replays one seeded random sequence of dispatches, settles, health
 * flips, class changes and picks (with admission-style exclusions) on
 * both and reports the first step where their picks disagree.
 */

#ifndef SKIPSIM_CHECK_SCAN_ROUTER_HH
#define SKIPSIM_CHECK_SCAN_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/router.hh"

namespace skipsim::check
{

/** O(N)-per-pick reference router with cluster::Router's contract. */
class ScanRouter
{
  public:
    ScanRouter(cluster::RouterPolicy policy, std::vector<double> weights);

    void setClasses(std::vector<unsigned> classes);
    std::size_t pick(int session, const std::vector<std::size_t> &exclude,
                     unsigned klass = cluster::kAnyClass) const;

    void onDispatch(std::size_t replica);
    void onSettled(std::size_t replica);
    void markDown(std::size_t replica);
    void markUp(std::size_t replica);

    std::size_t outstanding(std::size_t replica) const
    {
        return _outstanding.at(replica);
    }

  private:
    bool eligible(std::size_t replica,
                  const std::vector<std::size_t> &exclude,
                  unsigned klass) const;
    std::size_t leastLoaded(const std::vector<std::size_t> &exclude,
                            bool weighted, unsigned klass) const;

    cluster::RouterPolicy _policy;
    std::vector<double> _weights;
    std::vector<unsigned> _classes;
    std::vector<std::size_t> _outstanding;
    std::vector<bool> _down;
    mutable std::size_t _rrCursor = 0;
};

/**
 * Replay @p steps random operations, seeded by @p seed, on a
 * cluster::Router and a ScanRouter of @p replicas replicas under
 * @p policy, comparing a pick after every step. Weights come from a
 * small set so weighted loads tie; half the sequences start with
 * class masks in {1, 2, 3}; one step marks the whole fleet down and
 * requires npos() for every class.
 * @return empty when both routers agree throughout, else a
 *         description of the first divergence.
 */
std::string diffRouters(std::uint64_t seed, cluster::RouterPolicy policy,
                        std::size_t replicas, std::size_t steps);

} // namespace skipsim::check

#endif // SKIPSIM_CHECK_SCAN_ROUTER_HH

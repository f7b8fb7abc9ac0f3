/**
 * @file
 * Request router for the cluster simulator: pluggable policies that
 * pick which replica an arriving request is dispatched to, using only
 * what a real front-end load balancer could know — per-replica
 * outstanding counts it tracks itself, static capacity weights, and
 * health marks that appear one detection delay after a fault. The
 * router never peeks at replica-internal state, which is what makes
 * routing skew and detection-delay tail amplification reproducible.
 * The load-based policies read the root of a core::MinTree of loads
 * per dispatch class, the indexed min-tree the event queue's keyed
 * slots also use.
 */

#ifndef SKIPSIM_CLUSTER_ROUTER_HH
#define SKIPSIM_CLUSTER_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/min_tree.hh"

namespace skipsim::cluster
{

/** Replica-selection policy. */
enum class RouterPolicy
{
    RoundRobin,         ///< cycle through healthy replicas in index order
    LeastOutstanding,   ///< fewest router-tracked in-flight requests
    WeightedThroughput, ///< least outstanding / decode-capacity weight
    SessionAffinity,    ///< session id pins a home replica, LOR fallback
};

/**
 * Dispatch-class bits for role-aware routing (disaggregated pools).
 * A replica serves the union of the bits in its class mask; pick()
 * with kAnyClass ignores classes entirely (the classic behavior).
 */
enum : unsigned
{
    kAnyClass = 0u,
    kPrefillClass = 1u,
    kDecodeClass = 2u,
};

/** @return canonical policy name ("round-robin", ...). */
const char *routerPolicyName(RouterPolicy policy);

/** @throws skipsim::FatalError for unknown policy names. */
RouterPolicy routerPolicyByName(const std::string &name);

/** All policy names in enum order (CLI/bench enumeration). */
std::vector<std::string> routerPolicyNames();

/**
 * The router's view of a replica fleet. Health and outstanding counts
 * are updated by the cluster simulator as it learns about completions
 * and (delayed) fault detections; pick() reads only that view and
 * the round-robin cursor (which it advances), so routing is
 * deterministic for a given arrival sequence regardless of host
 * thread count.
 */
class Router
{
  public:
    /**
     * @param policy replica-selection policy.
     * @param weights static per-replica capacity weights (decode
     *        tokens/s at nominal clock); must be positive. Only
     *        WeightedThroughput consults them.
     * @throws skipsim::FatalError on empty fleet or non-positive or
     *         non-finite weights.
     */
    Router(RouterPolicy policy, std::vector<double> weights);

    RouterPolicy policy() const { return _policy; }

    /**
     * Role-aware dispatch classes: @p classes[r] is the bitmask of
     * dispatch classes replica r serves (kPrefillClass |
     * kDecodeClass). Empty (the default) means every replica serves
     * everything — classic co-located routing.
     */
    void setClasses(std::vector<unsigned> classes);

    /**
     * Choose a replica for a request from @p session. Replicas marked
     * down, replicas in @p exclude (admission-rejected during this
     * dispatch) and replicas whose class mask misses @p klass are
     * skipped; ties break toward the lowest index. Least-outstanding,
     * weighted and the affinity fallback read a min-tree root, so a
     * pick costs O(|exclude| log N); round-robin walks its cursor.
     * @return replica index, or npos() when no replica is eligible.
     */
    std::size_t pick(int session,
                     const std::vector<std::size_t> &exclude,
                     unsigned klass = kAnyClass);

    /** Sentinel returned by pick() when every replica is ineligible. */
    static std::size_t npos();

    /** @name Simulator feedback
     *  @{ */
    void onDispatch(std::size_t replica);
    /** A dispatched request completed or left the replica for good. */
    void onSettled(std::size_t replica);
    /** Fault detected: stop routing to @p replica. */
    void markDown(std::size_t replica);
    /** Partition healed: resume routing to @p replica. */
    void markUp(std::size_t replica);
    /** @} */

    std::size_t outstanding(std::size_t replica) const
    {
        return _outstanding.at(replica);
    }

  private:
    /**
     * One dispatch class's tree: leaf r holds replica r's load, or
     * +inf when it is down or misses the class (and in the padding).
     * core::MinTree's root is then the lowest-index replica of least
     * load, exactly what a scan taking only strictly smaller loads
     * returns.
     */
    struct ClassTree
    {
        unsigned klass = kAnyClass;
        core::MinTree<double> loads;
    };

    /** Up, and its class mask (if any) meets @p klass. */
    bool serves(std::size_t replica, unsigned klass) const;
    bool eligible(std::size_t replica,
                  const std::vector<std::size_t> &exclude,
                  unsigned klass) const;
    /** Load of @p replica, or +inf when it does not serve @p klass. */
    double treeKey(std::size_t replica, unsigned klass) const;
    ClassTree &treeFor(unsigned klass);
    /** A tree over @p klass built from the current router state. */
    ClassTree makeTree(unsigned klass) const;
    /** Recompute @p replica's leaf in every tree after a state change. */
    void refresh(std::size_t replica);
    std::size_t leastLoaded(const std::vector<std::size_t> &exclude,
                            unsigned klass);

    RouterPolicy _policy;
    std::vector<double> _weights;
    std::vector<unsigned> _classes; ///< empty = no role filtering
    std::vector<std::size_t> _outstanding;
    std::vector<bool> _down;
    std::size_t _rrCursor = 0;
    /** One tree per dispatch class asked for so far; trees[0] is the
     *  class-blind one. Empty under round-robin. Picks mask and
     *  restore excluded leaves. */
    std::vector<ClassTree> _trees;
};

} // namespace skipsim::cluster

#endif // SKIPSIM_CLUSTER_ROUTER_HH

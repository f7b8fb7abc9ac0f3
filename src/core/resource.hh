/**
 * @file
 * In-order FIFO resource: the timing skeleton of a CUDA stream (and of
 * any serially-draining queue). Work items start no earlier than their
 * eligibility instant, and no earlier than the previous item's finish
 * plus an inter-item gap when the resource is backed up — exactly the
 * launch-to-start stretching that the paper's TKLQT metric integrates
 * (Fig. 4). The resource does not advance time itself; callers occupy
 * it explicitly (sim::Runner, in kernel issue order), keeping the
 * arithmetic identical to the pre-core cursor implementation.
 */

#ifndef SKIPSIM_CORE_RESOURCE_HH
#define SKIPSIM_CORE_RESOURCE_HH

#include <algorithm>

namespace skipsim::core
{

/** Single-lane in-order resource; see file comment. */
class FifoResource
{
  public:
    /**
     * Start instant for work eligible at @p earliestNs: the eligibility
     * instant on an idle lane, or the previous item's finish plus
     * @p gapNs when the lane is backed up.
     */
    double
    startFor(double earliestNs, double gapNs = 0.0) const
    {
        double queued = _used ? _freeNs + gapNs : 0.0;
        return std::max(earliestNs, queued);
    }

    /** Occupy the lane through @p endNs (the accepted item's finish). */
    void
    occupyUntil(double endNs)
    {
        _freeNs = endNs;
        _used = true;
    }

    /** Has any item ever occupied the lane? */
    bool everUsed() const { return _used; }

    /** Finish instant of the last accepted item (0 before first use). */
    double freeNs() const { return _freeNs; }

  private:
    double _freeNs = 0.0;
    bool _used = false;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_RESOURCE_HH

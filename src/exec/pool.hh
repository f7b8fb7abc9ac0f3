/**
 * @file
 * Fixed-size worker pool over an index range. Built for experiment
 * fan-out: every unit of work is one independent grid point that
 * writes only its own result slot, so the pool needs no result
 * synchronization beyond the final join. Workers claim indices one at
 * a time from a shared atomic cursor; a point is a whole simulation,
 * so the claim is noise and skewed per-point costs still balance.
 */

#ifndef SKIPSIM_EXEC_POOL_HH
#define SKIPSIM_EXEC_POOL_HH

#include <cstddef>
#include <functional>

namespace skipsim::exec
{

/**
 * A fixed-worker-count experiment pool. Stateless between run() calls:
 * threads are spawned per run, so the pool itself is trivially
 * copyable and has no shutdown protocol. For experiment workloads
 * (each index simulates a full forward pass or sweep) the per-run
 * spawn cost is noise.
 */
class Pool
{
  public:
    /**
     * @param workers worker thread count; 0 selects hardwareWorkers().
     * @throws skipsim::FatalError for negative counts.
     */
    explicit Pool(int workers = 0);

    /** Worker threads used by run(). */
    int workers() const { return _workers; }

    /** std::thread::hardware_concurrency, clamped to >= 1. */
    static int hardwareWorkers();

    /**
     * Execute fn(i) for every i in [0, n), fanned across the workers.
     * Blocks until all indices complete. With one worker the indices
     * run inline on the calling thread in order. Otherwise each
     * worker claims the next unclaimed index until none remain, so
     * heavily skewed per-index costs still balance.
     *
     * Exceptions thrown by fn are captured; the first one (in worker
     * encounter order) is rethrown on the calling thread after every
     * worker has drained.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn) const;

  private:
    int _workers = 1;
};

} // namespace skipsim::exec

#endif // SKIPSIM_EXEC_POOL_HH

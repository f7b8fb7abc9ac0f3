/**
 * @file
 * A start line for tests whose exec::Pool tasks share state. The pool
 * hands out indices through one sequentially consistent cursor, so a
 * task a worker claims is ordered after every claim before it, and
 * ThreadSanitizer sees no race between tasks that do not overlap in
 * time: short tasks can pass over a real race. A task that calls
 * arrive() first holds its worker until every worker of the run holds
 * one, so the first task of each worker runs at once.
 */

#ifndef SKIPSIM_TESTS_START_LINE_HH
#define SKIPSIM_TESTS_START_LINE_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>

#include "exec/pool.hh"

namespace skipsim::testutil
{

class StartLine
{
  public:
    /** A line for a run of @p n tasks on @p pool: one place per worker
     *  the run starts (one when the pool runs inline). */
    StartLine(const exec::Pool &pool, std::size_t n)
        : _places(std::min(n, static_cast<std::size_t>(pool.workers())))
    {
    }

    /** Wait here, first thing in a task, until every place is taken;
     *  tasks past the first of each worker pass straight through. */
    void
    arrive()
    {
        if (_arrived.fetch_add(1) >= _places)
            return;
        while (_arrived.load() < _places)
            std::this_thread::yield();
    }

  private:
    std::size_t _places;
    std::atomic<std::size_t> _arrived{0};
};

} // namespace skipsim::testutil

#endif // SKIPSIM_TESTS_START_LINE_HH

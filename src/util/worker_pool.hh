/**
 * @file
 * The program-level worker pool of `peak::analyzeBatch` (matrix
 * items), `fault::runCampaign` (injection groups) and `ullint`
 * (scenarios); the symbolic engine keeps its own work-stealing pool.
 * Workers claim indices in ascending order from one counter and
 * callers write results by index, so output never depends on the
 * worker count or on scheduling.
 */

#ifndef ULPEAK_UTIL_WORKER_POOL_HH
#define ULPEAK_UTIL_WORKER_POOL_HH

#include <cstddef>
#include <functional>

namespace ulpeak {
namespace util {

/** The workers parallelFor uses: min(jobs, items), at least one. */
unsigned poolWorkers(size_t items, unsigned jobs);

/**
 * Run @p work(worker, index) for every index in [0, @p items) on
 * poolWorkers(items, jobs) workers. Worker 0 is the calling thread (at
 * one worker no thread starts); the worker index keys state the caller
 * keeps per worker, such as its own msp::System. Once @p work returns
 * false or throws, no worker claims another index (fail-fast); the
 * first exception is rethrown here after every worker has finished.
 */
void parallelFor(size_t items, unsigned jobs,
                 const std::function<bool(unsigned worker, size_t index)>
                     &work);

} // namespace util
} // namespace ulpeak

#endif // ULPEAK_UTIL_WORKER_POOL_HH

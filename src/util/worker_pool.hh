/**
 * @file
 * The program-level worker pool of `peak::analyzeBatch` (matrix
 * items), `fault::runCampaign` (injection groups) and `ullint`
 * (scenarios); the symbolic engine keeps its own work-stealing pool.
 * Workers claim indices in ascending order from one counter and
 * callers write results by index, so output never depends on the
 * worker count or on scheduling. A caller that can estimate its
 * items' costs claims the costliest first by indexing through
 * claimOrder: analyzeBatch's analysis groups (peak::estimateCost)
 * and ulfuzz's items. Its output order stays the index order; only
 * which items a fail-fast stop leaves unclaimed follows the claim
 * order (at one job, every item the estimate ranks below the
 * failing one).
 *
 * Both pools draw from one CPU budget (cpuBudget): by default every
 * CPU of the host, split between program-level jobs and exploration
 * threads per analysis; `--jobs` and `--threads` only cap the split.
 */

#ifndef ULPEAK_UTIL_WORKER_POOL_HH
#define ULPEAK_UTIL_WORKER_POOL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ulpeak {
namespace util {

/** The host's CPUs: std::thread::hardware_concurrency(), at least 1. */
unsigned hostCpus();

/** How a CPU budget is split: program-level workers, each running
 *  analyses of this many exploration threads. */
struct CpuBudget {
    unsigned jobs = 1;
    unsigned threads = 1;
};

/**
 * Split @p cpus between @p items program-level jobs and the threads of
 * each job. A cap of 0 means uncapped. Jobs come first:
 * jobs = min(jobs_cap, items, cpus / threads_cap), then
 * threads = min(threads_cap, cpus / jobs); both are at least 1, so
 * jobs * threads never exceeds max(cpus, 1). Outputs never depend on
 * the split (every pool here is deterministic), only the wall time.
 */
CpuBudget cpuBudget(size_t items, unsigned jobs_cap, unsigned threads_cap,
                    unsigned cpus);

/** The workers parallelFor uses: min(jobs, items), at least one. */
unsigned poolWorkers(size_t items, unsigned jobs);

/**
 * The order to claim items of estimated cost @p costs in: a stable
 * descending permutation of their indices (costliest first, ties in
 * index order). Claiming the longest jobs first is Graham's LPT list
 * schedule: the last job to start is a short one, so the pool does
 * not end on a tail. Callers run parallelFor over positions and read
 * the item as order[position].
 */
std::vector<size_t> claimOrder(const std::vector<uint64_t> &costs);

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

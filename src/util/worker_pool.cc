#include "util/worker_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace ulpeak {
namespace util {

unsigned
hostCpus()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

CpuBudget
cpuBudget(size_t items, unsigned jobs_cap, unsigned threads_cap,
          unsigned cpus)
{
    auto cap = [](unsigned c) { return c ? size_t(c) : SIZE_MAX; };
    cpus = std::max(1u, cpus);
    CpuBudget b;
    b.jobs = unsigned(std::max<size_t>(
        1, std::min({cap(jobs_cap), items,
                     size_t(cpus / std::max(1u, threads_cap))})));
    b.threads = unsigned(std::max<size_t>(
        1, std::min(cap(threads_cap), size_t(cpus / b.jobs))));
    return b;
}

unsigned
poolWorkers(size_t items, unsigned jobs)
{
    if (jobs > items)
        jobs = unsigned(items);
    return jobs < 1 ? 1 : jobs;
}

std::vector<size_t>
claimOrder(const std::vector<uint64_t> &costs)
{
    std::vector<size_t> order(costs.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return costs[a] > costs[b];
    });
    return order;
}

void
parallelFor(size_t items, unsigned jobs,
            const std::function<bool(unsigned, size_t)> &work)
{
    std::atomic<size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex errorMu;
    std::exception_ptr error; // the first exception thrown by work
    auto worker = [&](unsigned w) {
        try {
            while (!stop.load()) {
                size_t i = next.fetch_add(1);
                if (i >= items)
                    break;
                if (!work(w, i))
                    stop.store(true);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMu);
            if (!error)
                error = std::current_exception();
            stop.store(true);
        }
    };
    unsigned workers = poolWorkers(items, jobs);
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(worker, w);
    worker(0);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace util
} // namespace ulpeak

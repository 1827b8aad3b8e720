/**
 * @file
 * Microbenchmark of the batch driver (peak::analyzeBatch): whole-suite
 * wall time over all 14 bench430 programs, serial vs program-level
 * parallel vs the default CPU budget (`ulpeak all --no-cache`, the
 * headline suite time) vs warm-cache, asserting first that every
 * configuration
 * produces identical suite results (the determinism the driver
 * promises). Prints one row per configuration and drops
 * machine-readable results in bench_out/BENCH_batch_driver.json (the
 * checked-in BENCH_batch_driver.json at the repository root is a
 * copy). The warm-cache row is the acceptance number: a re-run of an
 * unchanged suite must be >= 10x faster than the cold run.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cli/driver.hh"
#include "peak/batch.hh"

int
main(int argc, char **argv)
{
    using namespace ulpeak;
    bench_util::parseArgs(argc, argv);
    bench_util::printHeader(
        "batch driver: suite wall time, serial vs parallel vs cache");

    std::vector<peak::BatchProgram> suite =
        cli::resolvePrograms({"all"});

    const std::string cacheDir = "bench_out/ulpeak-cache-bench";
    std::filesystem::remove_all(cacheDir);

    // At least 2 jobs so the worker pool is exercised even on a
    // single-core machine (where it cannot win wall time, but must
    // still produce identical results).
    unsigned par = std::clamp(util::hostCpus(), 2u, 8u);

    struct Config {
        const char *name;
        unsigned jobs;
        bool cache;
    };
    // jobs 0 is the default budget (util::cpuBudget); each row
    // reports the jobs x threads it resolved to.
    const Config configs[] = {
        {"serial-cold", 1, false},
        {"parallel-cold", par, false},
        {"default-cold", 0, false},
        {"parallel-fillcache", par, true},
        {"parallel-warm", par, true},
    };

    std::string baselineJson;
    std::vector<double> walls; // in the order of configs
    std::printf("%-20s %5s %7s %6s %10s %9s\n", "config", "jobs",
                "threads", "cache", "wall [s]", "speedup");
    bench_util::JsonReport json("batch_driver");
    json.field("programs", suite.size()).key("configs").beginArray();
    for (const Config &c : configs) {
        peak::BatchOptions opts;
        opts.jobs = c.jobs;
        opts.cacheDir = c.cache ? cacheDir : "";
        peak::BatchReport rep = peak::analyzeBatch(
            CellLibrary::tsmc65Like(), suite, opts);
        if (!rep.ok)
            bench_util::fatal("suite failed under %s\n", c.name);
        // Every configuration must report the same suite, bit for
        // bit, before any timing is trusted.
        std::string j = cli::toJson(rep, opts,
                                    /*include_timings=*/false);
        if (baselineJson.empty())
            baselineJson = j;
        else if (j != baselineJson)
            bench_util::fatal("%s changed the suite results\n", c.name);

        walls.push_back(rep.wallSeconds);
        double speedup = walls[0] > 0 ? walls[0] / rep.wallSeconds : 0.0;
        std::printf("%-20s %5u %7u %6s %10.3f %8.1fx\n", c.name, rep.jobs,
                    rep.threads, c.cache ? "yes" : "no", rep.wallSeconds,
                    speedup);
        json.beginObject(cli::Layout::Inline)
            .field("name", c.name).field("jobs", rep.jobs)
            .field("threads", rep.threads).field("cache", c.cache)
            .field("wall_seconds", rep.wallSeconds)
            .field("speedup_vs_serial_cold", speedup).end();
    }
    const double coldSec = walls[0], parallelSec = walls[1],
                 defaultSec = walls[2], warmSec = walls[4];
    double warmSpeedup = warmSec > 0 ? coldSec / warmSec : 0.0;
    double parSpeedup = parallelSec > 0 ? coldSec / parallelSec : 0.0;
    double defaultSpeedup = defaultSec > 0 ? coldSec / defaultSec : 0.0;
    json.beginObject(cli::Layout::Inline)
        .field("name", "summary")
        .field("warm_speedup_vs_cold", warmSpeedup)
        .field("parallel_speedup_vs_serial", parSpeedup)
        .field("default_speedup_vs_serial", defaultSpeedup).end();
    json.end();

    std::filesystem::remove_all(cacheDir);
    std::printf("warm-cache speedup vs cold: %.0fx (acceptance: >= "
                "10x)\n",
                warmSpeedup);
    json.write();
    bench_util::gate("warm-cache speedup vs cold", warmSpeedup, 10.0);
    return 0;
}

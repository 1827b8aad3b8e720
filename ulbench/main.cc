/**
 * @file
 * The benchmark program:
 *
 *   ulbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *           [--digests FILE] [--scratch DIR] [--trace-out FILE]
 *           [--git-commit SHA] [--print-digest]
 *
 * Prints a host fingerprint line, one line per failed check, and as
 * its last line the result object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. --print-digest prints the digest of the
 * workload's deterministic output instead (how digests.txt is made).
 * Exit codes: 0 = ran (see "correct"), 1 = set-up error, 2 = usage.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "ulbench.hh"

namespace {

int
usage(const char *err)
{
    std::fprintf(stderr,
                 "ulbench: %s\nusage: ulbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--digests FILE] "
                 "[--scratch DIR] [--trace-out FILE] [--git-commit SHA] "
                 "[--print-digest]\n",
                 err);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "ulbench: refusing to report from an "
                         "assert-enabled build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n");
    return 1;
#endif
    ulbench::RunConfig cfg;
    cfg.scratchDir = ".bench_build/ulbench-scratch";
    std::string digests;
    bool printDigest = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--print-digest") {
            printDigest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            cfg.workload = v;
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            cfg.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            cfg.trace = v == "1";
        } else if (a == "--digests") {
            digests = v;
        } else if (a == "--scratch") {
            cfg.scratchDir = v;
        } else if (a == "--trace-out") {
            cfg.traceOut = v;
        } else if (a == "--git-commit") {
            cfg.gitCommit = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
        if (end && (*end || v.empty()))
            return usage(("bad number for " + a + ": " + v).c_str());
    }
    if (cfg.workload.empty())
        return usage("--workload is required");

    std::printf("ulbench: workload=%s seed=%llu host_cpus=%u "
                "compiler=\"%s\" git_commit=%s build=Release\n",
                cfg.workload.c_str(), (unsigned long long)cfg.seed,
                std::thread::hardware_concurrency(), ulbench::compilerId(),
                cfg.gitCommit.empty() ? "unknown"
                                      : cfg.gitCommit.c_str());
    try {
        if (!digests.empty())
            cfg.pinned = ulbench::readDigests(digests);
        if (printDigest) {
            cfg.seed = ulbench::kDefaultSeed;
            cfg.seconds = 0;
            cfg.trace = false;
        }
        ulbench::RunResult r = ulbench::runWorkload(cfg);
        if (printDigest) {
            std::printf("%s %s\n", cfg.workload.c_str(), r.digest.c_str());
            return 0;
        }
        for (const std::string &f : r.failures)
            std::printf("ulbench: check failed: %s\n", f.c_str());
        std::printf("%s\n",
                    ulbench::resultJson(r.attempted, r.failed, r.metrics)
                        .c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulbench: %s\n", e.what());
        return 1;
    }
    return 0;
}

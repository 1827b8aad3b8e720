/**
 * @file
 * Self-tests of the benchmark itself:
 *
 *   ulbench_selftest DIGESTS_FILE BENCHMARK_JSON
 *
 *  - the derived layer metrics compute correctly on synthetic inputs;
 *  - every metric name matches [A-Za-z0-9_.-]+, and an untraced plus
 *    a traced run together print exactly the metrics BENCHMARK.json
 *    declares;
 *  - the pinned digest passes, and a perturbed one fails every pass
 *    (fail ratio 1).
 *
 * Exit code 0 when every check holds.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "ulbench.hh"

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

/** Every "name": "..." value of a BENCHMARK.json file. */
std::set<std::string>
declaredNames(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string s = ss.str();
    std::set<std::string> names;
    const std::string key = "\"name\": \"";
    for (size_t at = s.find(key); at != std::string::npos;
         at = s.find(key, at + 1)) {
        size_t b = at + key.size();
        names.insert(s.substr(b, s.find('"', b) - b));
    }
    return names;
}

void
derivedMetrics()
{
    using namespace ulbench;
    // 2 s of exploration over 30000 cycles at a 20000 cycles/s kernel:
    // 1.5 s is kernel time, 0.5 s is exploration overhead.
    check(near(symSelfSeconds(2.0, 30000, 20000.0), 0.5),
          "sym.self_s = run_s - cycles / sim.cycles_per_s");
    check(near(symSelfSeconds(2.0, 30000, 0.0), 2.0),
          "sym.self_s without a kernel rate is the whole run");
    check(near(threadSpeedup(3.0, 2.0), 1.5),
          "sym.thread_speedup = 1-thread / 2-thread");
    check(threadSpeedup(3.0, 0.0) == 0.0,
          "sym.thread_speedup of an empty 2-thread run is 0");
    check(near(workerImbalance({300, 100}), 1.5),
          "sym.worker_imbalance = max / mean");
    check(near(workerImbalance({7, 7, 7}), 1.0),
          "balanced workers have imbalance 1");
    check(near(poolEfficiency({1.0, 1.0, 0.5, 0.5}, 2, 2.0), 0.75),
          "peak.pool_efficiency = sum(row wall) / (jobs * batch wall)");
    check(poolEfficiency({1.0}, 0, 1.0) == 0.0,
          "pool efficiency without jobs is 0");
    check(near(median({3.0, 1.0, 2.0}), 2.0) &&
              near(median({4.0, 1.0, 2.0, 3.0}), 2.5),
          "median of odd and even samples");
    check(near(lowerQuartile({5.0, 1.0, 4.0, 2.0, 3.0}), 2.0) &&
              near(lowerQuartile({9.0, 7.0, 8.0}), 7.0) &&
              lowerQuartile({}) == 0.0,
          "lower quartile is the sample at rank n/4");
    check(digestHex("") == "cbf29ce484222325" &&
              digestHex("a") == "af63dc4c8601ec8c",
          "digest is 64-bit FNV-1a");
}

void
metricNames()
{
    using namespace ulbench;
    check(validMetricName("sym.cycles_per_s") &&
              validMetricName("fail_ratio") && validMetricName("a-1"),
          "well-formed metric names pass");
    check(!validMetricName("") && !validMetricName("wall s") &&
              !validMetricName("x/y") && !validMetricName("\"q\""),
          "malformed metric names fail");
}

void
workloadChecks(const std::string &digests, const std::string &bench_json)
{
    using namespace ulbench;
    RunConfig cfg;
    cfg.workload = "fork-parallel";
    cfg.seconds = 0; // the minimum of three passes
    cfg.scratchDir = ".bench_build/ulbench-selftest-scratch";
    cfg.pinned = readDigests(digests);

    RunResult plain = runWorkload(cfg);
    check(plain.attempted >= 3 && plain.failed == 0,
          "fork-parallel matches its pinned digest");

    cfg.trace = true;
    RunResult traced = runWorkload(cfg);
    check(traced.failed == 0, "traced fork-parallel run is correct");

    std::set<std::string> printed;
    bool allValid = true;
    for (const RunResult *r : {&plain, &traced})
        for (const auto &[name, metric] : r->metrics) {
            allValid = allValid && validMetricName(name) &&
                       !metric.unit.empty();
            printed.insert(name);
        }
    check(allValid, "every printed metric name is well-formed");
    std::set<std::string> declared = declaredNames(bench_json);
    for (const std::string &w : workloadNames())
        declared.erase(w);
    check(printed == declared,
          "the two runs print exactly the metrics BENCHMARK.json "
          "declares (" +
              std::to_string(printed.size()) + " printed, " +
              std::to_string(declared.size()) + " declared)");

    std::string &pin = cfg.pinned[cfg.workload];
    pin[0] = pin[0] == '0' ? '1' : '0';
    cfg.trace = false;
    RunResult bad = runWorkload(cfg);
    check(bad.attempted >= 3 && bad.failed == bad.attempted,
          "a perturbed pinned digest gives fail ratio 1");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: ulbench_selftest DIGESTS_FILE "
                     "BENCHMARK_JSON\n");
        return 2;
    }
    derivedMetrics();
    metricNames();
    workloadChecks(argv[1], argv[2]);
    std::printf("%d failure(s)\n", failures);
    return failures ? 1 : 0;
}

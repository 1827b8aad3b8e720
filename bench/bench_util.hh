/**
 * @file
 * The shared harness of the bench/ binaries.
 *
 * The experiment-regeneration binaries, one per table or figure of
 * the paper (see DESIGN.md experiment index), print the rows the
 * paper reports and drop plot-ready CSVs under bench_out/.
 *
 * The six layer benches that write bench_out/BENCH_<name>.json
 * (sim_kernel, packed_sim, fault_campaign, sym_explore, envelope,
 * batch_driver) also share one rule for each step of a measurement:
 *  - timing: timeOnce, bestOf, and inOrder + spreadOf for rounds
 *    that alternate which arm runs first (median and IQR);
 *  - argv: parseArgs takes positional counts, `--min-ratio X` and
 *    `--min-scaling X`; anything else, or a gate flag without its
 *    number, prints usage and exits 2 before any work starts;
 *  - identity: fatal prints one FATAL line and exits 1 when a result
 *    the timing relies on is wrong;
 *  - gates: gate prints one FAIL line and exits 1;
 *  - the report: JsonReport, a cli::JsonWriter that opens with
 *    `bench` and `host_cpus` (util::hostCpus());
 *  - raceLanes: K timed scalar reference runs against one timed
 *    64-lane call in alternating rounds (median and IQR), the K lanes
 *    checked against their references in every round before any
 *    ratio is reported.
 */

#ifndef ULPEAK_BENCH_BENCH_UTIL_HH
#define ULPEAK_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench430/benchmarks.hh"
#include "cli/json_util.hh"
#include "msp/cpu.hh"
#include "util/worker_pool.hh"

namespace ulpeak {
namespace bench_util {

constexpr double kFreq65 = 100e6; ///< openMSP430-like operating point
constexpr double kFreq1610 = 8e6; ///< MSP430F1610 measurement setup

inline std::string
outDir()
{
    std::filesystem::create_directories("bench_out");
    return "bench_out/";
}

inline void
printHeader(const std::string &title)
{
    std::printf("==== %s ====\n", title.c_str());
}

/** Geometric-mean style average of ratios, reported as "% lower". */
inline double
avgPctLower(const std::vector<double> &ours,
            const std::vector<double> &baseline)
{
    double sum = 0.0;
    for (size_t i = 0; i < ours.size(); ++i)
        sum += 1.0 - ours[i] / baseline[i];
    return 100.0 * sum / double(ours.size());
}

/** Print "FATAL: " and the printf-style message to stderr, exit 1. */
[[noreturn, gnu::format(printf, 1, 2)]] inline void
fatal(const char *fmt, ...)
{
    std::fputs("FATAL: ", stderr);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::exit(1);
}

/** Wall seconds of one call of @p fn. */
template <class Fn>
double
timeOnce(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Wall seconds of the fastest of @p reps (at least one) calls. */
template <class Fn>
double
bestOf(unsigned reps, Fn &&fn)
{
    double best = timeOnce(fn);
    for (unsigned r = 1; r < reps; ++r)
        best = std::min(best, timeOnce(fn));
    return best;
}

/** Round @p round of two alternating arms: @p a runs first in even
 *  rounds, @p b in odd ones, so neither always finds a warmer cache. */
template <class A, class B>
void
inOrder(unsigned round, A &&a, B &&b)
{
    if (round % 2 == 0) {
        a();
        b();
    } else {
        b();
        a();
    }
}

/** Median and interquartile range of per-round samples. */
struct Spread {
    double median, iqr;
};

inline Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto quantile = [&v](double p) { // interpolated between ranks
        double pos = p * double(v.size() - 1);
        size_t lo = size_t(pos), hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
    };
    return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/** @p units per second of @p sec; 0 when nothing was timed. */
inline double
perSec(double units, double sec)
{
    return sec > 0 ? units / sec : 0.0;
}

/** A positional count of a bench's command line and its default. */
struct Count {
    const char *name;
    unsigned value;
};

/** The gate flags a bench takes (bit set). */
enum Gates : unsigned { kNoGates = 0, kMinRatio = 1, kMinScaling = 2 };

/** A parsed command line; a gate left at 0 is off. */
struct Args {
    std::vector<unsigned> counts; ///< in the order of parseArgs' counts
    double minRatio = 0.0, minScaling = 0.0;
};

/**
 * Parse a bench's argv: up to counts.size() positive integers, which
 * replace the defaults in order, and the flags of @p gates, each
 * followed by a non-negative number. Anything else prints the usage
 * line built from @p counts and @p gates and exits 2.
 */
inline Args
parseArgs(int argc, char **argv, const std::vector<Count> &counts = {},
          unsigned gates = kNoGates)
{
    Args a;
    std::string usage =
        "usage: " + std::filesystem::path(argv[0]).filename().string();
    for (const Count &c : counts) {
        a.counts.push_back(c.value);
        usage += std::string(" [") + c.name + "]";
    }
    usage += gates & kMinRatio ? " [--min-ratio X]" : "";
    usage += gates & kMinScaling ? " [--min-scaling X]" : "";
    size_t npos = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        double *gate = arg == "--min-ratio" && (gates & kMinRatio)
                           ? &a.minRatio
                       : arg == "--min-scaling" && (gates & kMinScaling)
                           ? &a.minScaling
                           : nullptr;
        const char *v = gate ? (i + 1 < argc ? argv[++i] : "") : argv[i];
        char *end = nullptr;
        bool ok;
        if (gate) {
            *gate = std::strtod(v, &end);
            ok = end != v && std::isfinite(*gate) && *gate >= 0;
        } else {
            unsigned long n = std::strtoul(v, &end, 10);
            ok = npos < counts.size() &&
                 std::isdigit(static_cast<unsigned char>(*v)) && n > 0 &&
                 n <= 0xffffffffu;
            if (ok)
                a.counts[npos++] = unsigned(n);
        }
        if (!ok || *end) {
            std::fprintf(stderr, "%s\n", usage.c_str());
            std::exit(2);
        }
    }
    return a;
}

/** When @p min is on (> 0) and @p measured falls below it, print one
 *  FAIL line naming @p what and exit 1. */
inline void
gate(const std::string &what, double measured, double min)
{
    if (min > 0.0 && measured < min) {
        std::fprintf(stderr,
                     "FAIL: %s is %.2fx, below the required %.2fx\n",
                     what.c_str(), measured, min);
        std::exit(1);
    }
}

/** A BENCH_<name>.json report: the top-level object is open and holds
 *  `bench` and `host_cpus`; callers add their fields, then write(). */
class JsonReport : public cli::JsonWriter {
  public:
    explicit JsonReport(std::string name) : name_(std::move(name))
    {
        beginObject().field("bench", name_);
        field("host_cpus", util::hostCpus());
    }

    /** Close the report, write bench_out/BENCH_<name>.json and say so
     *  on stdout; exit 1 when the file cannot be written. */
    void
    write()
    {
        end();
        const std::string path = outDir() + "BENCH_" + name_ + ".json";
        if (!cli::writeReport(name_.c_str(), path, take()))
            std::exit(1);
        std::printf("wrote %s\n", path.c_str());
    }

  private:
    std::string name_;
};

/**
 * Race @p k scalar reference runs, `scalar(l)` for lanes 0..k-1 one
 * after another, against one `packed()` call that returns every lane,
 * in @p rounds rounds that alternate which arm runs first (inOrder).
 * In every round lane l < k must match its reference:
 * `mismatch(ref, lane)` is "" when it does and otherwise ends the
 * bench with "FATAL: packed lane l <mismatch>". Returns the last
 * round's reference runs and lanes and the median and IQR of each
 * arm's wall seconds.
 */
template <class Scalar, class Packed, class Mismatch>
auto
raceLanes(unsigned k, unsigned rounds, Scalar &&scalar, Packed &&packed,
          Mismatch &&mismatch)
{
    struct {
        std::vector<std::decay_t<decltype(scalar(0u))>> refs;
        std::decay_t<decltype(packed())> lanes;
        Spread scalarSec, packedSec;
    } race;
    std::vector<double> scalarSec, packedSec;
    for (unsigned r = 0; r < rounds; ++r) {
        inOrder(
            r,
            [&] {
                race.refs.clear();
                scalarSec.push_back(timeOnce([&] {
                    for (unsigned l = 0; l < k; ++l)
                        race.refs.push_back(scalar(l));
                }));
            },
            [&] {
                packedSec.push_back(
                    timeOnce([&] { race.lanes = packed(); }));
            });
        for (unsigned l = 0; l < k; ++l) {
            const std::string why = mismatch(race.refs[l], race.lanes[l]);
            if (!why.empty())
                fatal("packed lane %u %s\n", l, why.c_str());
        }
    }
    race.scalarSec = spreadOf(scalarSec);
    race.packedSec = spreadOf(packedSec);
    return race;
}

} // namespace bench_util
} // namespace ulpeak

#endif // ULPEAK_BENCH_BENCH_UTIL_HH

/**
 * @file
 * Microbenchmark of the execution-tree exploration core: a
 * fork-heavy program (every round reads the X port and conditionally
 * bumps an accumulator, so path states stay distinct and the tree
 * grows quadratically in rounds) analyzed at 1..K worker threads.
 * Reports exploration wall time, forks (paths) per second and
 * simulated cycles per second per thread count, after checking that
 * every thread count reproduces the 1-thread peak numbers
 * bit-identically (the determinism contract timing must not skew).
 * Drops bench_out/BENCH_sym_explore.json (the checked-in
 * BENCH_sym_explore.json at the repository root additionally keeps
 * the pre-refactor shared-mutex baseline for the speedup claim).
 *
 * The thread-scaling section runs the scalar reference frontier
 * (sym/testing.hh), and a packed-frontier section times the same
 * exploration with Options::packedExplore (every path through the
 * 64-lane batched sweep) at the same thread counts, after the same
 * bit-identity check, and reports the forks/sec ratio.
 *
 * A per-program section then times the six forking bench430
 * programs under the automatic frontier (the default), the scalar
 * reference and the packed reference at 1, 2 and 4 threads, each
 * checked against the scalar 1-thread report with fuzz::reportDiff,
 * and records lane occupancy and steals. Its acceptance line: the
 * automatic frontier at 4 threads within 10% of its 1-thread time
 * on every program, and lane occupancy not falling as threads rise.
 *
 * Two optional CI gates turn measurements into pass/fail exit codes:
 *  --min-ratio X    fail unless packed/scalar forks/sec at 1 thread
 *                   reaches X;
 *  --min-scaling X  fail unless the largest measured thread count
 *                   scales at least Xx over 1 thread -- auto-skipped
 *                   (with a note) when the host has fewer than 4
 *                   CPUs, where scaling numbers are noise.
 *
 * Usage: bench_sym_explore [branch_rounds] [reps] [max_threads]
 *                          [--min-ratio X] [--min-scaling X]
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "fuzz/properties.hh"
#include "peak/peak_analysis.hh"
#include "sym/testing.hh"

namespace ulpeak {
namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** A program whose exploration tree is wide and whose per-node runs
 *  are short: rounds of port-dependent branches over a live
 *  accumulator, the worst case for fork (snapshot + dedup)
 *  throughput. After round i the accumulator holds one of i+1
 *  values, so states neither explode exponentially nor collapse into
 *  one: the tree has ~rounds^2/2 nodes, each a few cycles long. */
std::string
forkStressSource(unsigned rounds)
{
    std::string body = "        mov #0, r4\n";
    for (unsigned i = 0; i < rounds; ++i) {
        std::string skip = "fs_skip_" + std::to_string(i);
        body += "        mov &PIN, r5\n"
                "        and #1, r5\n"
                "        jz " + skip + "\n"
                "        add #1, r4\n" +
                skip + ":\n";
    }
    body += "        mov r4, &OUT\n";
    return bench430::wrapBenchmarkBody(body);
}

/** Best-of-@p reps wall time of analyzing @p img under @p o with the
 *  frontier @p f; the last report goes to @p out. */
double
timeAnalysis(msp::System &sys, const isa::Image &img,
             const peak::Options &o, sym::testing::Frontier f, int reps,
             peak::Report &out)
{
    sym::testing::ScopedFrontier forced(f);
    double best = 1e9;
    for (int i = 0; i < reps; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        out = peak::analyze(sys, img, o);
        best = std::min(best, seconds(t0));
    }
    return best;
}

double
occupancy(const peak::Report &r)
{
    return r.packedSweeps ? double(r.packedLaneCycles) /
                                (64.0 * double(r.packedSweeps))
                          : 0.0;
}

} // namespace
} // namespace ulpeak

int
main(int argc, char **argv)
{
    using namespace ulpeak;
    unsigned positional[3] = {32, 3, 8};
    int npos = 0;
    double minRatio = 0.0, minScaling = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--min-ratio") && i + 1 < argc) {
            minRatio = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--min-scaling") &&
                   i + 1 < argc) {
            minScaling = std::atof(argv[++i]);
        } else if (npos < 3) {
            positional[npos++] = unsigned(std::atoi(argv[i]));
        }
    }
    unsigned rounds = positional[0];
    int reps = int(positional[1]);
    unsigned maxThreads = positional[2];
    unsigned hostCpus = std::thread::hardware_concurrency();

    bench_util::printHeader(
        "sym exploration core: fork throughput and thread scaling");

    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(forkStressSource(rounds));

    std::vector<unsigned> threadCounts;
    for (unsigned t = 1; t <= maxThreads; t *= 2)
        threadCounts.push_back(t);

    // Reference run: every other thread count must reproduce these
    // numbers bit for bit before its timing means anything.
    using sym::testing::Frontier;
    peak::Options ref;
    peak::Report refRep;
    timeAnalysis(sys, img, ref, Frontier::Scalar, 1, refRep);
    if (!refRep.ok) {
        std::fprintf(stderr, "reference analysis failed: %s\n",
                     refRep.error.c_str());
        return 1;
    }
    std::printf("fork stress: %u rounds, %u paths, %" PRIu64
                " cycles, %u dedup merges\n",
                rounds, refRep.pathsExplored, refRep.totalCycles,
                refRep.dedupMerges);

    // Fork memory traffic: bytes the delta snapshots actually stored
    // vs what full copies at every fork would have stored.
    peak::Options fullSnap;
    fullSnap.snapshotMode = sym::SnapshotMode::Full;
    peak::Report fullRep = peak::analyze(sys, img, fullSnap);
    double deltaRatio =
        refRep.snapshotBytesCopied
            ? double(refRep.snapshotBytesFull) /
                  double(refRep.snapshotBytesCopied)
            : 0.0;
    if (fullRep.peakPowerW != refRep.peakPowerW) {
        std::fprintf(stderr, "snapshot modes diverged\n");
        return 1;
    }
    std::printf("fork snapshots: delta %.2f MB vs full-copy %.2f MB "
                "(%.1fx less copied)\n\n",
                double(refRep.snapshotBytesCopied) / 1e6,
                double(refRep.snapshotBytesFull) / 1e6, deltaRatio);

    std::printf("scalar reference frontier:\n");
    std::printf("%-8s %10s %12s %12s %8s\n", "threads", "wall [s]",
                "forks/sec", "cycles/sec", "scaling");

    std::string json =
        "{\n  \"bench\": \"sym_explore\",\n"
        "  \"branch_rounds\": " + std::to_string(rounds) +
        ",\n  \"host_cpus\": " + std::to_string(hostCpus) +
        ",\n  \"paths\": " + std::to_string(refRep.pathsExplored) +
        ",\n  \"total_cycles\": " +
        std::to_string(refRep.totalCycles) +
        ",\n  \"reps\": " + std::to_string(reps) +
        ",\n  \"snapshot_bytes_delta\": " +
        std::to_string(refRep.snapshotBytesCopied) +
        ",\n  \"snapshot_bytes_full\": " +
        std::to_string(refRep.snapshotBytesFull) +
        ",\n  \"runs\": [\n";

    double wall1 = 0.0;
    bool first = true;
    std::vector<std::pair<unsigned, double>> scalarWalls;
    for (unsigned t : threadCounts) {
        peak::Options opts;
        opts.numThreads = t;
        peak::Report rep;
        double best =
            timeAnalysis(sys, img, opts, Frontier::Scalar, reps, rep);
        if (!rep.ok || rep.peakPowerW != refRep.peakPowerW ||
            rep.peakEnergyJ != refRep.peakEnergyJ ||
            rep.npeJPerCycle != refRep.npeJPerCycle ||
            rep.pathsExplored != refRep.pathsExplored) {
            std::fprintf(stderr,
                         "threads=%u diverged from the 1-thread "
                         "reference -- timing aborted\n", t);
            return 1;
        }
        if (t == 1)
            wall1 = best;
        scalarWalls.emplace_back(t, best);
        double forksPerSec = double(rep.pathsExplored) / best;
        double cyclesPerSec = double(rep.totalCycles) / best;
        std::printf("%-8u %10.3f %12.0f %12.0f %7.2fx\n", t, best,
                    forksPerSec, cyclesPerSec, wall1 / best);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"threads\": %u, \"wall_s\": %.4f, "
                      "\"forks_per_sec\": %.0f, \"cycles_per_sec\": "
                      "%.0f, \"scaling_vs_1t\": %.3f}",
                      t, best, forksPerSec, cyclesPerSec,
                      wall1 / best);
        json += std::string(first ? "" : ",\n") + buf;
        first = false;
    }
    json += "\n  ],\n";

    // Packed-frontier section: the same exploration drained through
    // the 64-lane batched sweep, same bit-identity bar, reported as a
    // forks/sec ratio against the scalar engine at the same thread
    // count.
    std::printf("\npacked frontier (64-lane batched sweeps):\n");
    std::printf("%-8s %10s %12s %10s %10s\n", "threads", "wall [s]",
                "forks/sec", "occupancy", "vs scalar");
    json += "  \"packed\": [\n";
    first = true;
    double packedRatio1t = 0.0;
    for (unsigned t : threadCounts) {
        if (t > 2 && t != threadCounts.back())
            continue; // 1, 2 and the widest point tell the story
        peak::Options opts;
        opts.numThreads = t;
        opts.packedExplore = true;
        peak::Report rep;
        double best =
            timeAnalysis(sys, img, opts, Frontier::Auto, reps, rep);
        if (!rep.ok || rep.peakPowerW != refRep.peakPowerW ||
            rep.peakEnergyJ != refRep.peakEnergyJ ||
            rep.npeJPerCycle != refRep.npeJPerCycle ||
            rep.pathsExplored != refRep.pathsExplored) {
            std::fprintf(stderr,
                         "packed threads=%u diverged from the scalar "
                         "reference -- timing aborted\n", t);
            return 1;
        }
        double scalarBest = 0.0;
        for (auto &sw : scalarWalls)
            if (sw.first == t)
                scalarBest = sw.second;
        double forksPerSec = double(rep.pathsExplored) / best;
        double ratio = scalarBest / best;
        if (t == 1)
            packedRatio1t = ratio;
        std::printf("%-8u %10.3f %12.0f %9.1f%% %9.2fx\n", t, best,
                    forksPerSec, 100.0 * occupancy(rep), ratio);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"threads\": %u, \"wall_s\": %.4f, "
                      "\"forks_per_sec\": %.0f, \"lane_occupancy\": "
                      "%.3f, \"ratio_vs_scalar\": %.3f}",
                      t, best, forksPerSec, occupancy(rep), ratio);
        json += std::string(first ? "" : ",\n") + buf;
        first = false;
    }
    json += "\n  ],\n";

    // Per-program frontier section: the forking bench430 programs
    // under each frontier at 1, 2 and 4 threads.
    std::printf("\nforking bench430 programs (best of %d):\n", reps);
    std::printf("%-10s %-9s %7s %10s %10s %7s\n", "program", "frontier",
                "threads", "wall [s]", "occupancy", "steals");
    json += "  \"programs\": [\n";
    first = true;
    bool autoScales = true, occupancyHolds = true;
    const struct {
        const char *name;
        Frontier frontier;
    } frontiers[] = {{"automatic", Frontier::Auto},
                     {"scalar", Frontier::Scalar},
                     {"packed", Frontier::Packed}};
    for (const char *prog :
         {"rle", "PI", "binSearch", "div", "tHold", "inSort"}) {
        isa::Image pimg = bench430::benchmarkByName(prog).assembleImage();
        peak::Options popts;
        peak::Report pref;
        timeAnalysis(sys, pimg, popts, Frontier::Scalar, 1, pref);
        for (const auto &fr : frontiers) {
            double wall1 = 0.0, occ1 = 0.0;
            for (unsigned t : {1u, 2u, 4u}) {
                popts.numThreads = t;
                peak::Report rep;
                double best = timeAnalysis(sys, pimg, popts, fr.frontier,
                                           reps, rep);
                std::string diff = fuzz::reportDiff(pref, rep);
                if (!diff.empty()) {
                    std::fprintf(stderr,
                                 "%s, %s frontier, %u threads diverged "
                                 "from the scalar reference -- timing "
                                 "aborted:\n%s",
                                 prog, fr.name, t, diff.c_str());
                    return 1;
                }
                if (t == 1) {
                    wall1 = best;
                    occ1 = occupancy(rep);
                } else if (fr.frontier == Frontier::Auto) {
                    // Occupancy is compared at 0.1% resolution.
                    occupancyHolds &= occupancy(rep) >= occ1 - 1e-3;
                    if (t == 4)
                        autoScales &= best <= 1.1 * wall1;
                }
                std::printf("%-10s %-9s %7u %10.4f %9.1f%% %7u\n", prog,
                            fr.name, t, best, 100.0 * occupancy(rep),
                            rep.steals);
                char buf[320];
                std::snprintf(buf, sizeof buf,
                              "    {\"program\": \"%s\", \"frontier\": "
                              "\"%s\", \"threads\": %u, \"wall_s\": "
                              "%.4f, \"lane_occupancy\": %.3f, "
                              "\"packed_sweeps\": %" PRIu64
                              ", \"steals\": %u}",
                              prog, fr.name, t, best, occupancy(rep),
                              rep.packedSweeps, rep.steals);
                json += std::string(first ? "" : ",\n") + buf;
                first = false;
            }
        }
    }
    std::printf("acceptance: automatic 4-thread within 10%% of 1-thread "
                "on every program: %s; automatic lane occupancy never "
                "falls as threads rise: %s\n",
                autoScales ? "yes" : "NO", occupancyHolds ? "yes" : "NO");
    json += std::string("\n  ],\n  \"auto_threads4_within_10pct\": ") +
            (autoScales ? "true" : "false") +
            ",\n  \"auto_occupancy_nondecreasing\": " +
            (occupancyHolds ? "true" : "false") + "\n}\n";

    std::ofstream(bench_util::outDir() + "BENCH_sym_explore.json")
        << json;
    std::printf("\nwrote %sBENCH_sym_explore.json\n",
                bench_util::outDir().c_str());

    if (minRatio > 0.0 && packedRatio1t < minRatio) {
        std::fprintf(stderr,
                     "FAIL: packed/scalar forks/sec ratio %.2fx at 1 "
                     "thread below the --min-ratio gate %.2fx\n",
                     packedRatio1t, minRatio);
        return 1;
    }
    if (minScaling > 0.0) {
        if (hostCpus < 4) {
            std::printf("--min-scaling gate skipped: host has %u "
                        "CPUs (< 4), scaling numbers are noise\n",
                        hostCpus);
        } else {
            unsigned gateT = 1;
            double gateWall = wall1;
            for (auto &sw : scalarWalls)
                if (sw.first <= hostCpus && sw.first > gateT) {
                    gateT = sw.first;
                    gateWall = sw.second;
                }
            double scaling = gateWall > 0.0 ? wall1 / gateWall : 0.0;
            if (scaling < minScaling) {
                std::fprintf(stderr,
                             "FAIL: %u-thread scaling %.2fx below "
                             "the --min-scaling gate %.2fx\n",
                             gateT, scaling, minScaling);
                return 1;
            }
            std::printf("--min-scaling gate: %.2fx at %u threads "
                        ">= %.2fx\n", scaling, gateT, minScaling);
        }
    }
    return 0;
}

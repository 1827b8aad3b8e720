/**
 * @file
 * Microbenchmark of the bit-parallel 64-pattern kernel: per-pattern
 * cycles/second of power::runConcretePacked (one PackedSimulator sweep
 * carrying 64 port schedules) against the scalar power::runConcrete
 * path run schedule-by-schedule, on the GA stressmark. Asserts that
 * the timed packed lanes are float-identical to the timed scalar runs
 * before trusting the numbers, prints the throughput row, and drops
 * machine-readable results in bench_out/BENCH_packed_sim.json (the
 * checked-in BENCH_packed_sim.json at the repository root is a copy).
 *
 * `bench_packed_sim --min-ratio R` additionally exits 1 if the
 * packed/scalar per-pattern throughput ratio falls below R; CI runs it
 * with `--min-ratio 15`.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baselines.hh"
#include "bench/bench_util.hh"
#include "power/packed_run.hh"

namespace ulpeak {
namespace {

constexpr unsigned kLanes = PackedSimulator::kLanes;
constexpr uint64_t kMaxCycles = 3000;
constexpr unsigned kScalarLanes = 8; ///< scalar reference subset
constexpr unsigned kScheduleLen = 16;

struct Measurement {
    double sec = 0.0;
    uint64_t patternCycles = 0;
    double perPatternCyclesPerSec() const
    {
        return sec > 0 ? double(patternCycles) / sec : 0.0;
    }
};

} // namespace
} // namespace ulpeak

int
main(int argc, char **argv)
{
    using namespace ulpeak;

    double min_ratio = 0.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--min-ratio" && i + 1 < argc) {
            min_ratio = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_packed_sim [--min-ratio R]\n");
            return 2;
        }
    }

    bench_util::printHeader(
        "packed sim: 64-lane batch vs scalar per-pattern cycles/sec");

    msp::System sys(CellLibrary::tsmc65Like());
    baseline::StressmarkConfig scfg;
    scfg.population = 8;
    scfg.generations = 3;
    scfg.evalCycles = 400;
    baseline::StressmarkResult sm =
        baseline::generateStressmark(sys, bench_util::kFreq65, scfg);
    isa::Image image = isa::assemble(sm.bestSource);
    power::PowerContext ctx(sys.netlist(), bench_util::kFreq65);

    fuzz::Rng rng(7);
    power::PackedRunOptions popts;
    popts.maxCycles = kMaxCycles;
    for (unsigned l = 0; l < kLanes; ++l) {
        popts.portSchedules[l].resize(kScheduleLen);
        for (uint16_t &w : popts.portSchedules[l])
            w = rng.word();
    }

    // Warmup both paths (page in the netlist, stabilize the clock).
    {
        power::ConcreteRunOptions copts;
        copts.maxCycles = 500;
        copts.portSchedule = popts.portSchedules[0];
        power::runConcrete(sys, image, ctx, copts);
        power::PackedRunOptions wopts = popts;
        wopts.maxCycles = 500;
        power::runConcretePacked(sys, image, ctx, wopts);
    }

    // Scalar reference: the first kScalarLanes schedules, one run
    // each. These results double as the lane-identity check below.
    Measurement scalar;
    std::vector<power::ConcreteRunResult> refs(kScalarLanes);
    {
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned l = 0; l < kScalarLanes; ++l) {
            power::ConcreteRunOptions copts;
            copts.maxCycles = kMaxCycles;
            copts.portSchedule = popts.portSchedules[l];
            refs[l] = power::runConcrete(sys, image, ctx, copts);
            scalar.patternCycles += refs[l].traceW.size();
        }
        auto t1 = std::chrono::steady_clock::now();
        scalar.sec = std::chrono::duration<double>(t1 - t0).count();
    }

    // Packed batch: all 64 schedules in one sweep.
    Measurement packed;
    power::PackedRunResult pr;
    {
        auto t0 = std::chrono::steady_clock::now();
        pr = power::runConcretePacked(sys, image, ctx, popts);
        auto t1 = std::chrono::steady_clock::now();
        packed.sec = std::chrono::duration<double>(t1 - t0).count();
        for (unsigned l = 0; l < kLanes; ++l)
            packed.patternCycles += pr.lanes[l].traceW.size();
    }

    // Trust the timing only if the timed lanes are float-identical to
    // the timed scalar runs.
    for (unsigned l = 0; l < kScalarLanes; ++l) {
        if (refs[l].halted != pr.lanes[l].halted ||
            refs[l].traceW != pr.lanes[l].traceW ||
            refs[l].totalEnergyJ != pr.lanes[l].totalEnergyJ) {
            std::fprintf(stderr,
                         "FATAL: packed lane %u diverges from the "
                         "scalar run of the same schedule\n",
                         l);
            return 1;
        }
    }

    double ratio = scalar.perPatternCyclesPerSec() > 0
                       ? packed.perPatternCyclesPerSec() /
                             scalar.perPatternCyclesPerSec()
                       : 0.0;
    std::printf("%-16s %10s %16s %16s %9s\n", "workload", "lanes",
                "scalar pat-c/s", "packed pat-c/s", "ratio");
    std::printf("%-16s %7u/%2u %16.0f %16.0f %8.2fx\n", "stressmark",
                kScalarLanes, kLanes,
                scalar.perPatternCyclesPerSec(),
                packed.perPatternCyclesPerSec(), ratio);

    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"bench\": \"packed_sim\",\n"
        "  \"workload\": {\n"
        "    \"description\": \"GA stressmark (population 8, "
        "generations 3, evalCycles 400) run concretely under %u-word "
        "random port schedules, max %llu cycles per pattern\",\n"
        "    \"scalar_reference_patterns\": %u,\n"
        "    \"packed_lanes\": %u\n"
        "  },\n"
        "  \"host_cpus\": %u,\n"
        "  \"methodology\": \"scalar = power::runConcrete once per "
        "schedule, sequentially; packed = one "
        "power::runConcretePacked sweep carrying all 64 schedules; "
        "per-pattern cycles/sec = sum of recorded per-lane trace "
        "cycles / wall seconds; the timed packed lanes are checked "
        "float-identical to the timed scalar runs before the ratio "
        "is reported\",\n"
        "  \"scalar\": {\"pattern_cycles\": %llu, \"wall_s\": %.4f, "
        "\"pattern_cycles_per_sec\": %.0f},\n"
        "  \"packed\": {\"pattern_cycles\": %llu, \"wall_s\": %.4f, "
        "\"pattern_cycles_per_sec\": %.0f},\n"
        "  \"per_pattern_throughput_ratio\": %.2f\n"
        "}\n",
        kScheduleLen, (unsigned long long)kMaxCycles, kScalarLanes,
        kLanes, std::thread::hardware_concurrency(),
        (unsigned long long)scalar.patternCycles, scalar.sec,
        scalar.perPatternCyclesPerSec(),
        (unsigned long long)packed.patternCycles, packed.sec,
        packed.perPatternCyclesPerSec(), ratio);

    std::ofstream out(bench_util::outDir() + "BENCH_packed_sim.json");
    out << json;
    std::printf("wrote %sBENCH_packed_sim.json\n",
                bench_util::outDir().c_str());

    if (min_ratio > 0.0 && ratio < min_ratio) {
        std::fprintf(stderr,
                     "FATAL: per-pattern throughput ratio %.2fx is "
                     "below the required %.2fx\n",
                     ratio, min_ratio);
        return 1;
    }
    return 0;
}

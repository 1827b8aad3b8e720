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

#include <cstdio>
#include <string>

#include "baseline/baselines.hh"
#include "bench/bench_util.hh"
#include "power/packed_run.hh"

int
main(int argc, char **argv)
{
    using namespace ulpeak;
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    constexpr uint64_t kMaxCycles = 3000;
    constexpr unsigned kScalarLanes = 8; ///< scalar reference subset
    constexpr unsigned kScheduleLen = 16;
    constexpr unsigned kRounds = 5; ///< alternating timed rounds

    const bench_util::Args args =
        bench_util::parseArgs(argc, argv, {}, bench_util::kMinRatio);
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
    auto scalarRun = [&](unsigned lane, uint64_t max_cycles) {
        power::ConcreteRunOptions copts;
        copts.maxCycles = max_cycles;
        copts.portSchedule = popts.portSchedules[lane];
        return power::runConcrete(sys, image, ctx, copts);
    };

    // Warmup both paths (page in the netlist, stabilize the clock).
    scalarRun(0, 500);
    power::PackedRunOptions wopts = popts;
    wopts.maxCycles = 500;
    power::runConcretePacked(sys, image, ctx, wopts);

    // The first kScalarLanes schedules run one by one, against all 64
    // in one sweep, in alternating rounds; the timed lanes must be
    // float-identical to the timed scalar runs.
    auto race = bench_util::raceLanes(
        kScalarLanes, kRounds, [&](unsigned l) { return scalarRun(l, kMaxCycles); },
        [&] { return power::runConcretePacked(sys, image, ctx, popts).lanes; },
        [](const power::ConcreteRunResult &ref,
           const power::PackedLaneResult &lane) -> std::string {
            if (ref.halted == lane.halted && ref.traceW == lane.traceW &&
                ref.totalEnergyJ == lane.totalEnergyJ)
                return "";
            return "diverges from the scalar run of the same schedule";
        });
    uint64_t scalarCycles = 0, packedCycles = 0;
    for (const power::ConcreteRunResult &r : race.refs)
        scalarCycles += r.traceW.size();
    for (const power::PackedLaneResult &r : race.lanes)
        packedCycles += r.traceW.size();
    double scalarRate =
        bench_util::perSec(scalarCycles, race.scalarSec.median);
    double packedRate =
        bench_util::perSec(packedCycles, race.packedSec.median);
    double ratio = scalarRate > 0 ? packedRate / scalarRate : 0.0;

    std::printf("%-16s %10s %16s %16s %9s\n", "workload", "lanes",
                "scalar pat-c/s", "packed pat-c/s", "ratio");
    std::printf("%-16s %7u/%2u %16.0f %16.0f %8.2fx\n", "stressmark",
                kScalarLanes, kLanes, scalarRate, packedRate, ratio);

    bench_util::JsonReport json("packed_sim");
    json.key("workload").beginObject()
        .field("description",
               "GA stressmark (population 8, generations 3, evalCycles "
               "400) run concretely under " + std::to_string(kScheduleLen) +
                   "-word random port schedules, max " +
                   std::to_string(kMaxCycles) + " cycles per pattern")
        .field("scalar_reference_patterns", kScalarLanes)
        .field("packed_lanes", kLanes).end();
    json.field("methodology",
               "scalar = power::runConcrete once per schedule, "
               "sequentially; packed = one power::runConcretePacked "
               "sweep carrying all 64 schedules; each arm timed in " +
                   std::to_string(kRounds) +
                   " rounds that alternate which arm runs first, wall_s "
                   "the median and wall_iqr_s the interquartile range; "
                   "per-pattern cycles/sec = sum of recorded per-lane "
                   "trace cycles / median wall seconds; in every round "
                   "the timed packed lanes are checked float-identical to "
                   "the timed scalar runs before the ratio is reported");
    json.field("rounds", kRounds);
    json.key("scalar").beginObject(cli::Layout::Inline)
        .field("pattern_cycles", scalarCycles)
        .field("wall_s", race.scalarSec.median)
        .field("wall_iqr_s", race.scalarSec.iqr)
        .field("pattern_cycles_per_sec", std::round(scalarRate)).end();
    json.key("packed").beginObject(cli::Layout::Inline)
        .field("pattern_cycles", packedCycles)
        .field("wall_s", race.packedSec.median)
        .field("wall_iqr_s", race.packedSec.iqr)
        .field("pattern_cycles_per_sec", std::round(packedRate)).end();
    json.field("per_pattern_throughput_ratio", ratio);
    json.write();
    bench_util::gate("per-pattern throughput ratio", ratio,
                     args.minRatio);
    return 0;
}

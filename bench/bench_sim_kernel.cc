/**
 * @file
 * Microbenchmark of the simulation kernels: full-sweep vs.
 * event-driven cycles/second on the GA stressmark (the adversarial
 * high-activity workload) and on bench430 programs, under both a
 * concrete-input driver and the symbolic all-X port driver. Each
 * workload runs 5 rounds of 4,000 cycles per kernel, alternating which
 * kernel goes first, and reports the median and interquartile range
 * of the rounds: one shot on a shared host swings by more than a
 * kernel change. The two kernels are bit-identical by contract, so
 * every round requires the summed bound energy, actual energy and
 * active-gate count of both runs to be exactly equal. Prints one row
 * per (workload, driver) and drops machine-readable results in
 * bench_out/BENCH_sim_kernel.json (the checked-in BENCH_sim_kernel.json
 * at the repository root is a copy).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/baselines.hh"
#include "bench/bench_util.hh"
#include "bench430/benchmarks.hh"
#include "power/analysis.hh"

namespace ulpeak {
namespace {

struct Workload {
    std::string name;
    isa::Image image;
    power::RamInit ram;
    bool portX = false; ///< drive the port all-X (symbolic prefix)
};

struct Measurement {
    double cyclesPerSec = 0.0;
    double boundEnergyJ = 0.0;
    double actualEnergyJ = 0.0;
    uint64_t activeGates = 0;
    uint64_t cycles = 0;
};

Measurement
runKernel(msp::System &sys, const Workload &w, EvalMode mode,
          uint64_t target_cycles)
{
    Measurement m;
    double sec = bench_util::timeOnce([&] {
        while (m.cycles < target_cycles) {
            sys.memory().reset();
            sys.loadImage(w.image);
            for (auto &[addr, words] : w.ram)
                sys.memory().loadRam(addr, words);
            sys.clearHalted();
            Simulator sim(sys.netlist(), mode);
            sys.attach(sim);
            sys.reset(sim);
            Word16 port =
                w.portX ? Word16::allX() : Word16::known(0x5a5a);
            while (m.cycles < target_cycles && !sys.halted()) {
                sim.step([&](Simulator &s) { sys.driveCycle(s, port); });
                m.boundEnergyJ += sim.boundEnergyJ();
                m.actualEnergyJ += sim.actualEnergyJ();
                for (uint64_t w : sim.activeBits())
                    m.activeGates += unsigned(__builtin_popcountll(w));
                ++m.cycles;
            }
        }
    });
    m.cyclesPerSec = bench_util::perSec(double(m.cycles), sec);
    return m;
}

} // namespace
} // namespace ulpeak

int
main(int argc, char **argv)
{
    using namespace ulpeak;
    bench_util::parseArgs(argc, argv);
    bench_util::printHeader(
        "sim kernel: full-sweep vs event-driven cycles/sec");

    msp::System sys(CellLibrary::tsmc65Like());

    // The paper's adversarial workload: a GA-evolved power stressmark
    // (small search; the winner is representative high-activity code).
    baseline::StressmarkConfig scfg;
    scfg.population = 8;
    scfg.generations = 3;
    scfg.evalCycles = 400;
    baseline::StressmarkResult sm =
        baseline::generateStressmark(sys, bench_util::kFreq65, scfg);

    fuzz::Rng rng(7);
    std::vector<Workload> workloads;
    workloads.push_back({"stressmark", isa::assemble(sm.bestSource),
                         {}, false});
    for (const char *name : {"mult", "binSearch", "FFT"}) {
        const bench430::Benchmark &b = bench430::benchmarkByName(name);
        baseline::InputSet in = b.makeInput(rng);
        workloads.push_back(
            {b.name, b.assembleImage(), in.ram, false});
        workloads.push_back(
            {b.name + "/x-port", b.assembleImage(), in.ram, true});
    }

    constexpr uint64_t kWarmup = 2000;
    constexpr unsigned kRounds = 5;
    constexpr uint64_t kRoundCycles = 4000;

    bench_util::JsonReport json("sim_kernel");
    json.field("rounds", kRounds).field("round_cycles", kRoundCycles);
    json.key("workloads").beginArray();
    std::printf("%-16s %22s %22s %9s\n", "workload",
                "fullsweep c/s (IQR)", "event c/s (IQR)", "speedup");
    for (const Workload &w : workloads) {
        runKernel(sys, w, EvalMode::FullSweep, kWarmup);
        std::vector<double> fsRounds, evRounds;
        for (unsigned r = 0; r < kRounds; ++r) {
            Measurement fs, ev;
            auto run = [&](EvalMode m) {
                return runKernel(sys, w, m, kRoundCycles);
            };
            bench_util::inOrder(r, [&] { fs = run(EvalMode::FullSweep); },
                                [&] { ev = run(EvalMode::EventDriven); });
            if (fs.boundEnergyJ != ev.boundEnergyJ ||
                fs.actualEnergyJ != ev.actualEnergyJ ||
                fs.activeGates != ev.activeGates)
                bench_util::fatal(
                    "kernels differ on %s round %u: bound %.17g vs "
                    "%.17g, actual %.17g vs %.17g, active gates %llu vs "
                    "%llu\n",
                    w.name.c_str(), r, fs.boundEnergyJ, ev.boundEnergyJ,
                    fs.actualEnergyJ, ev.actualEnergyJ,
                    (unsigned long long)fs.activeGates,
                    (unsigned long long)ev.activeGates);
            fsRounds.push_back(fs.cyclesPerSec);
            evRounds.push_back(ev.cyclesPerSec);
        }
        bench_util::Spread fs = bench_util::spreadOf(fsRounds);
        bench_util::Spread ev = bench_util::spreadOf(evRounds);
        double speedup = ev.median / fs.median;
        std::printf("%-16s %14.0f (%5.0f) %14.0f (%5.0f) %8.2fx\n",
                    w.name.c_str(), fs.median, fs.iqr, ev.median, ev.iqr,
                    speedup);
        json.beginObject(cli::Layout::Inline)
            .field("name", w.name)
            .field("fullsweep_cycles_per_sec", std::round(fs.median))
            .field("fullsweep_iqr", std::round(fs.iqr))
            .field("event_cycles_per_sec", std::round(ev.median))
            .field("event_iqr", std::round(ev.iqr))
            .field("speedup", speedup).end();
    }
    json.end();
    json.write();
    return 0;
}

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

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
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
    auto t0 = std::chrono::steady_clock::now();
    while (m.cycles < target_cycles) {
        sys.memory().reset();
        sys.loadImage(w.image);
        for (auto &[addr, words] : w.ram)
            sys.memory().loadRam(addr, words);
        sys.clearHalted();
        Simulator sim(sys.netlist(), mode);
        sys.attach(sim);
        sys.reset(sim);
        Word16 port = w.portX ? Word16::allX() : Word16::known(0x5a5a);
        while (m.cycles < target_cycles && !sys.halted()) {
            sim.step([&](Simulator &s) { sys.driveCycle(s, port); });
            m.boundEnergyJ += sim.boundEnergyJ();
            m.actualEnergyJ += sim.actualEnergyJ();
            for (uint64_t w : sim.activeBits())
                m.activeGates += unsigned(__builtin_popcountll(w));
            ++m.cycles;
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    double sec = std::chrono::duration<double>(t1 - t0).count();
    m.cyclesPerSec = sec > 0 ? double(m.cycles) / sec : 0.0;
    return m;
}

/** The @p p quantile of @p v, interpolated between the closest ranks. */
double
quantile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    double pos = p * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

/** Median and interquartile range of per-round cycles/sec. */
struct Spread {
    double median, iqr;
};

Spread
spreadOf(const std::vector<double> &rounds)
{
    return {quantile(rounds, 0.5),
            quantile(rounds, 0.75) - quantile(rounds, 0.25)};
}

} // namespace
} // namespace ulpeak

int
main()
{
    using namespace ulpeak;
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

    std::string json = "{\n  \"bench\": \"sim_kernel\",\n"
                       "  \"host_cpus\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\n  \"rounds\": " + std::to_string(kRounds) +
                       ",\n  \"round_cycles\": " +
                       std::to_string(kRoundCycles) +
                       ",\n  \"workloads\": [\n";
    std::printf("%-16s %22s %22s %9s\n", "workload",
                "fullsweep c/s (IQR)", "event c/s (IQR)", "speedup");
    bool first = true;
    for (const Workload &w : workloads) {
        runKernel(sys, w, EvalMode::FullSweep, kWarmup);
        std::vector<double> fsRounds, evRounds;
        for (unsigned r = 0; r < kRounds; ++r) {
            Measurement fs, ev;
            if (r % 2 == 0) {
                fs = runKernel(sys, w, EvalMode::FullSweep, kRoundCycles);
                ev = runKernel(sys, w, EvalMode::EventDriven, kRoundCycles);
            } else {
                ev = runKernel(sys, w, EvalMode::EventDriven, kRoundCycles);
                fs = runKernel(sys, w, EvalMode::FullSweep, kRoundCycles);
            }
            if (fs.boundEnergyJ != ev.boundEnergyJ ||
                fs.actualEnergyJ != ev.actualEnergyJ ||
                fs.activeGates != ev.activeGates) {
                std::fprintf(stderr,
                             "FATAL: kernels differ on %s round %u: "
                             "bound %.17g vs %.17g, actual %.17g vs "
                             "%.17g, active gates %llu vs %llu\n",
                             w.name.c_str(), r, fs.boundEnergyJ,
                             ev.boundEnergyJ, fs.actualEnergyJ,
                             ev.actualEnergyJ,
                             (unsigned long long)fs.activeGates,
                             (unsigned long long)ev.activeGates);
                return 1;
            }
            fsRounds.push_back(fs.cyclesPerSec);
            evRounds.push_back(ev.cyclesPerSec);
        }
        Spread fs = spreadOf(fsRounds), ev = spreadOf(evRounds);
        double speedup = ev.median / fs.median;
        std::printf("%-16s %14.0f (%5.0f) %14.0f (%5.0f) %8.2fx\n",
                    w.name.c_str(), fs.median, fs.iqr, ev.median, ev.iqr,
                    speedup);
        if (!first)
            json += ",\n";
        first = false;
        char row[320];
        std::snprintf(row, sizeof(row),
                      "    {\"name\": \"%s\", "
                      "\"fullsweep_cycles_per_sec\": %.0f, "
                      "\"fullsweep_iqr\": %.0f, "
                      "\"event_cycles_per_sec\": %.0f, "
                      "\"event_iqr\": %.0f, "
                      "\"speedup\": %.2f}",
                      w.name.c_str(), fs.median, fs.iqr, ev.median,
                      ev.iqr, speedup);
        json += row;
    }
    json += "\n  ]\n}\n";

    std::ofstream out(bench_util::outDir() + "BENCH_sim_kernel.json");
    out << json;
    std::printf("wrote %sBENCH_sim_kernel.json\n",
                bench_util::outDir().c_str());
    return 0;
}

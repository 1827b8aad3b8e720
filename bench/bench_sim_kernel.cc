/**
 * @file
 * Microbenchmark of the simulation kernels: full-sweep vs.
 * event-driven cycles/second on the GA stressmark (the adversarial
 * high-activity workload) and on bench430 programs, under both a
 * concrete-input driver and the symbolic all-X port driver. The two
 * kernels are bit-identical by contract, so before trusting the timing
 * it requires the summed bound energy, actual energy and active-gate
 * count of both runs to be exactly equal. Prints one row per
 * (workload, driver) and drops machine-readable results in
 * bench_out/BENCH_sim_kernel.json (the checked-in BENCH_sim_kernel.json
 * at the repository root is a copy).
 */

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
    constexpr uint64_t kMeasure = 20000;

    std::string json = "{\n  \"bench\": \"sim_kernel\",\n"
                       "  \"host_cpus\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\n  \"target_cycles\": " +
                       std::to_string(kMeasure) +
                       ",\n  \"workloads\": [\n";
    std::printf("%-16s %14s %14s %9s\n", "workload",
                "fullsweep c/s", "event c/s", "speedup");
    bool first = true;
    for (const Workload &w : workloads) {
        runKernel(sys, w, EvalMode::FullSweep, kWarmup);
        Measurement fs =
            runKernel(sys, w, EvalMode::FullSweep, kMeasure);
        Measurement ev =
            runKernel(sys, w, EvalMode::EventDriven, kMeasure);
        if (fs.boundEnergyJ != ev.boundEnergyJ ||
            fs.actualEnergyJ != ev.actualEnergyJ ||
            fs.activeGates != ev.activeGates) {
            std::fprintf(stderr,
                         "FATAL: kernels differ on %s: bound %.17g vs "
                         "%.17g, actual %.17g vs %.17g, active gates "
                         "%llu vs %llu\n",
                         w.name.c_str(), fs.boundEnergyJ,
                         ev.boundEnergyJ, fs.actualEnergyJ,
                         ev.actualEnergyJ,
                         (unsigned long long)fs.activeGates,
                         (unsigned long long)ev.activeGates);
            return 1;
        }
        double speedup = ev.cyclesPerSec / fs.cyclesPerSec;
        std::printf("%-16s %14.0f %14.0f %8.2fx\n", w.name.c_str(),
                    fs.cyclesPerSec, ev.cyclesPerSec, speedup);
        if (!first)
            json += ",\n";
        first = false;
        char row[256];
        std::snprintf(row, sizeof(row),
                      "    {\"name\": \"%s\", "
                      "\"fullsweep_cycles_per_sec\": %.0f, "
                      "\"event_cycles_per_sec\": %.0f, "
                      "\"speedup\": %.2f}",
                      w.name.c_str(), fs.cyclesPerSec,
                      ev.cyclesPerSec, speedup);
        json += row;
    }
    json += "\n  ]\n}\n";

    std::ofstream out(bench_util::outDir() + "BENCH_sim_kernel.json");
    out << json;
    std::printf("wrote %sBENCH_sim_kernel.json\n",
                bench_util::outDir().c_str());
    return 0;
}

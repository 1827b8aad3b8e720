/**
 * @file
 * Public entry point for application-specific, input-independent peak
 * power and energy analysis -- the tool the paper describes: given an
 * application binary and the processor netlist, return guaranteed
 * peak power and energy requirements valid for every input.
 *
 * Quickstart:
 * @code
 *   msp::System sys(CellLibrary::tsmc65Like());
 *   isa::Image app = isa::assemble(source);
 *   peak::Report r = peak::analyze(sys, app, peak::Options{});
 *   // r.peakPowerW, r.peakEnergyJ, r.npeJPerCycle
 * @endcode
 *
 * For whole application suites (sharded workers, disk cache, suite
 * aggregates) see peak::analyzeBatch in peak/batch.hh and the
 * `ulpeak` CLI built on it.
 */

#ifndef ULPEAK_PEAK_PEAK_ANALYSIS_HH
#define ULPEAK_PEAK_PEAK_ANALYSIS_HH

#include <string>
#include <vector>

#include "peak/envelope.hh"
#include "sym/symbolic_engine.hh"

namespace ulpeak {
namespace peak {

struct Options {
    double freqHz = 100e6;
    bool recordActiveSets = false;
    bool recordModuleTrace = false;
    unsigned inputDependentLoopBound = 0;
    uint64_t maxTotalCycles = 3000000;
    /** Simulation kernel; both modes produce bit-identical reports
     *  (enforced by tests/test_benchmarks.cc across bench430). */
    EvalMode evalMode = EvalMode::EventDriven;
    /** Parallel execution-tree exploration workers (<= 1: serial).
     *  peak::analyzeBatch reads it as a cap on the CPU budget's
     *  threads per analysis (0: uncapped). */
    unsigned numThreads = 1;
    /** Record the per-cycle peak power envelope and windowed
     *  peak-energy curves (Report::envelope). Byte-identical across
     *  numThreads and evalMode. */
    bool recordEnvelope = false;
    /** Window lengths [cycles] of the envelope's peak-energy curves;
     *  used only when recordEnvelope. */
    std::vector<unsigned> envelopeWindows = defaultEnvelopeWindows();
    /** The deployment scenario analyzed under (port/memory/register
     *  constraints; default unconstrained = the classic all-X flow).
     *  Participates in the batch cache key by content. Constraining
     *  it can only tighten every reported bound
     *  (fuzz::scenarioDominanceCheck). */
    scenario::Scenario scenario;
    /** Fork snapshot representation inside the exploration (delta =
     *  default, full = reference); never changes a reported number,
     *  so it is excluded from the cache key like evalMode. */
    sym::SnapshotMode snapshotMode = sym::SnapshotMode::Delta;
    /** Static constant-cone pruning (SymbolicConfig::staticPrune,
     *  `ulpeak --static-prune`): skip gates lint::analyzeConstants
     *  proves constant under the scenario. Never changes a reported
     *  number (fuzz property 9), so it is excluded from the cache
     *  key like evalMode and snapshotMode. */
    bool staticPrune = false;
    /** Reference frontier (SymbolicConfig::packedExplore, `ulpeak
     *  --packed-explore`): every pending path through the
     *  bit-parallel kernel, up to 64 per sweep, where the default
     *  uses the lanes only while two or more paths are pending.
     *  Never changes a reported number (fuzz property 3,
     *  `ulfuzz --mode invariance`), so it is excluded from the cache
     *  key like evalMode and snapshotMode. */
    bool packedExplore = false;
};

/** Application-specific input-independent requirements (the paper's
 *  "X-based" numbers). */
struct Report {
    bool ok = false;
    std::string error;

    double peakPowerW = 0.0;    ///< Figure 5.1's X-based bars
    double peakEnergyJ = 0.0;   ///< Section 3.3 bound
    double npeJPerCycle = 0.0;  ///< Figure 5.2's X-based bars
    uint64_t maxPathCycles = 0;

    /** Flattened per-cycle peak power trace (Figure 3.3). */
    std::vector<float> flatTraceW;

    /** Cycle-aligned peak power envelope + windowed peak-energy
     *  curves, when Options::recordEnvelope. */
    Envelope envelope;

    /** Gates that can ever toggle / gates active at the peak cycle
     *  (Figures 1.5 and 3.4), when Options::recordActiveSets. */
    std::vector<uint8_t> everActive;
    std::vector<uint32_t> peakActive;

    /** Exploration statistics (see SymbolicResult: steals and
     *  perWorkerCycles are scheduling-dependent and excluded from
     *  determinism comparisons, like timings). */
    uint64_t totalCycles = 0;
    uint32_t pathsExplored = 0;
    uint32_t dedupMerges = 0;
    uint32_t steals = 0;
    uint64_t snapshotBytesCopied = 0;
    uint64_t snapshotBytesFull = 0;
    /** The fork snapshot form the two byte counters were measured in
     *  (Options::snapshotMode); they are scheduling-independent, so
     *  two reports of one form must agree on them. */
    sym::SnapshotMode snapshotMode = sym::SnapshotMode::Delta;
    std::vector<uint64_t> perWorkerCycles;
    /** Packed-frontier scheduling counters (zero when no worker's
     *  frontier ever widened past one path; scheduling-dependent,
     *  like steals). */
    uint64_t packedBatches = 0;
    uint64_t packedSweeps = 0;
    uint64_t packedLaneCycles = 0;

    /** Full result (execution tree etc.) for advanced consumers. */
    sym::SymbolicResult sym;
};

/** Run the full analysis of Chapter 3 on @p image. */
Report analyze(msp::System &sys, const isa::Image &image,
               const Options &opts);

/**
 * analyze() of @p image once per entry of @p scenarios
 * (opts.scenario is ignored) as one analysis group: one exploration
 * whose analyses share the simulator lanes
 * (sym::SymbolicEngine::run). Report k is identical to analyze()
 * under @p scenarios[k], the execution tree included; analyze() is
 * the group of one.
 */
std::vector<Report> analyzeGroup(
    msp::System &sys, const isa::Image &image, const Options &opts,
    const std::vector<scenario::Scenario> &scenarios);

/** Count active gates per top-level module (activity-map figures). */
std::vector<std::pair<std::string, size_t>>
activeGatesPerModule(const Netlist &nl,
                     const std::vector<uint32_t> &gates);

} // namespace peak
} // namespace ulpeak

#endif // ULPEAK_PEAK_PEAK_ANALYSIS_HH

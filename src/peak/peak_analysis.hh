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

/** The analysis options (sym::AnalysisOptions) plus the envelope's
 *  window set. */
struct Options : sym::AnalysisOptions {
    /** Window lengths [cycles] of the envelope's peak-energy curves
     *  (Report::envelope); used only when recordEnvelope. */
    std::vector<unsigned> envelopeWindows = defaultEnvelopeWindows();
};

/** Application-specific input-independent requirements (the paper's
 *  "X-based" numbers): the bounds and exploration statistics of
 *  sym::AnalysisSummary plus the per-analysis traces. */
struct Report : sym::AnalysisSummary {
    /** Flattened per-cycle peak power trace (Figure 3.3). */
    std::vector<float> flatTraceW;

    /** Cycle-aligned peak power envelope + windowed peak-energy
     *  curves, when Options::recordEnvelope. */
    Envelope envelope;

    /** Gates that can ever toggle / gates active at the peak cycle
     *  (Figures 1.5 and 3.4), when Options::recordActiveSets. */
    std::vector<uint8_t> everActive;
    std::vector<uint32_t> peakActive;

    /** The fork snapshot form the two snapshot byte counters were
     *  measured in (Options::snapshotMode); they are
     *  scheduling-independent, so two reports of one form must agree
     *  on them. */
    sym::SnapshotMode snapshotMode = sym::SnapshotMode::Delta;
};

/** The engine configuration @p opts asks for: its analysis options,
 *  with the engine's budgets at their defaults. */
sym::SymbolicConfig symConfigFor(const Options &opts);

/** Run the full analysis of Chapter 3 on @p image. */
Report analyze(msp::System &sys, const isa::Image &image,
               const Options &opts);

/**
 * analyze() of @p image once per entry of @p scenarios
 * (opts.scenario is ignored) as one analysis group: one exploration
 * whose analyses share the simulator lanes
 * (sym::SymbolicEngine::run). Report k is identical to analyze()
 * under @p scenarios[k], its flat trace included; analyze() is
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

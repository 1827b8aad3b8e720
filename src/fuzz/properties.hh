/**
 * @file
 * The differential properties the fuzzing subsystem checks
 * end-to-end, packaged so the `ulfuzz` tool and the ctest harnesses
 * exercise the exact same code paths. The numbering is the one
 * `ulfuzz --mode` and docs/testing.md use:
 *
 *  1. cosim      -- ISS <-> gate-level lockstep (cosim::run);
 *  2. kernel     -- FullSweep <-> EventDriven simulator bit-identity;
 *  3. invariance -- peak::analyze reports do not depend on how they
 *                   were computed (threads, kernel, fork snapshot
 *                   form, packed frontier);
 *  4. envelope   -- the per-cycle envelope bounds concrete runs;
 *  5. scenario   -- port-constraint scenarios only tighten bounds;
 *  6. packed     -- 64-lane kernel lane identity and batched
 *                   envelope validation;
 *  7. fault      -- faulted lane identity and campaign determinism;
 *  8. dvfs       -- lowered operating modes only tighten bounds;
 *  9. lint       -- static pruning is sound.
 *
 * Each check returns a PropertyResult whose detail names the first
 * mismatch precisely enough to debug from the printed seed alone.
 * Every claim is checked by one piece of code: properties 2, 6 and 7
 * share one simulator-state comparator (values, activity, actual /
 * bound / per-module energies, full-state hash), properties 4, 5, 6
 * and 8 one envelope-bound check of a concrete trace (a run that never
 * halts, or the first cycle over the envelope with the envelope value
 * there), and properties 5 and 8 one dominance check, each analyzing
 * its twin scenarios as one analysis group (peak::analyzeGroup).
 */

#ifndef ULPEAK_FUZZ_PROPERTIES_HH
#define ULPEAK_FUZZ_PROPERTIES_HH

#include <initializer_list>
#include <string>

#include "fault/campaign.hh"
#include "fuzz/netlist_gen.hh"
#include "fuzz/rng.hh"
#include "isa/assembler.hh"
#include "msp/cpu.hh"
#include "peak/peak_analysis.hh"
#include "scenario/scenario.hh"
#include "sim/simulator.hh"

namespace ulpeak {
namespace fuzz {

struct PropertyResult {
    bool ok = true;
    std::string detail; ///< first mismatch, human-readable
};

/**
 * Property 2: generate a random netlist and input schedule from
 * @p seed, run FullSweep and EventDriven simulators in lockstep for
 * @p cycles, and compare their complete state after every cycle
 * with the comparator properties 6 and 7 use: values, activity,
 * actual / bound / per-module energies, full-state hash. Also
 * locksteps a third simulator restored from a mid-run snapshot to pin
 * snapshot/restore transparency in both kernels.
 */
PropertyResult kernelEquivalenceCheck(uint64_t seed,
                                      const NetlistGenOptions &opts,
                                      unsigned cycles);

/** Which report fields reportDiff compares. */
enum class ReportScope {
    /** ok/error, peak power, peak energy, NPE, max path length, the
     *  envelope (trace, windows, window curves and peaks) and the
     *  ever-active set: the reported bounds. */
    Bounds,
    /** Bounds plus the tree statistics (totalCycles, pathsExplored,
     *  dedupMerges), flatTraceW, peakActive and -- when both reports
     *  used the same SnapshotMode and neither swept the lanes -- the
     *  snapshot byte counters: every field that does not depend on
     *  scheduling (steals, per-worker cycles, packed-frontier
     *  counters and timings never take part). */
    All,
};

/**
 * The one report comparator: an empty string when @p a and @p b agree
 * on every field of @p scope, else one line per differing field that
 * names it, with doubles printed at %.17g so two different values
 * never print alike. Two rejected analyses agree iff their errors do.
 */
std::string reportDiff(const peak::Report &a, const peak::Report &b,
                       ReportScope scope = ReportScope::All);

/**
 * One draw of property 3. @ref reference and @ref variant share one
 * analysis context -- unconstrained, a random port scenario or a
 * random DVFS scenario (one in three each), staticPrune one in four,
 * envelope and active-set recording on -- and differ only in the knob
 * point: the reference is 1 thread, EventDriven, Delta snapshots and
 * (forced by configInvarianceCheck through sym/testing.hh) the
 * scalar frontier, analyzed alone; the variant is one of the 16
 * points of threads{1, K} x EvalMode x SnapshotMode x
 * frontier{automatic, packed}, its packed frontier being
 * packedExplore, and in one draw of two it is analyzed in an analysis
 * group (peak::analyzeGroup) with 1-4 sibling scenarios of the same
 * three kinds.
 */
struct InvarianceDraw {
    peak::Options reference;
    peak::Options variant;
    /** Empty: the variant runs alone. Otherwise the group's scenarios,
     *  the variant's own at @ref groupIndex. */
    std::vector<scenario::Scenario> group;
    size_t groupIndex = 0;
};
InvarianceDraw drawInvariance(Rng &rng, unsigned threads);

/**
 * Property 3: configuration invariance. Analyze @p image under both
 * configurations of drawInvariance(@p rng, @p threads) -- the variant
 * in its analysis group when the draw has one -- and require
 * reportDiff(..., ReportScope::All) to be empty. Programs both
 * configurations reject pass, but the rejection must be identical.
 * The variant must also keep the scheduler's lanes-before-workers
 * rule: no steals from a tree of at most one lane batch plus its
 * root.
 */
PropertyResult configInvarianceCheck(msp::System &sys,
                                     const isa::Image &image, Rng &rng,
                                     unsigned threads);

/**
 * Property 4: the per-cycle peak power envelope bounds every concrete
 * execution. Analyze @p image with envelope recording, then run it
 * concretely @p concrete_runs times with seeded random per-cycle port
 * schedules and check each concrete power trace lies under the
 * envelope at every cycle (validateTraceBound's length-aware
 * semantics: a concrete run outliving the envelope is a violation,
 * a concrete run halting earlier is not; a failure names the envelope
 * value at the first violating cycle). Programs the symbolic
 * engine rejects (unbounded loops, indirect X jumps) pass vacuously.
 */
PropertyResult envelopeBoundCheck(msp::System &sys,
                                  const isa::Image &image, Rng &rng,
                                  unsigned concrete_runs = 3);

/**
 * Property 6, netlist items: packed-kernel lane identity. Generate a
 * random netlist from @p seed and 64 independent input schedules (one
 * per lane, derived streams), run one PackedSimulator against 64 scalar
 * Simulators in lockstep for @p cycles, and require every lane to be
 * bit-identical to its scalar run after every cycle: gate values,
 * activity, actual / bound / per-module energies, and the full-state
 * hash. Scalar lanes alternate EvalMode so both kernels anchor the
 * comparison.
 */
PropertyResult packedKernelEquivalenceCheck(uint64_t seed,
                                            const NetlistGenOptions &opts,
                                            unsigned cycles);

/**
 * Property 6, program items: packed envelope batching. Analyze
 * @p image with envelope recording, then run one 64-lane packed batch
 * of seeded random port schedules: every lane must pass property 4's
 * envelope-bound check (halt within the envelope length + slack, lie
 * under the envelope at every cycle), and
 * @p verify_lanes of the lanes are re-run on the scalar runConcrete
 * path and must match float-for-float (trace, halt flag, total
 * energy). Programs the symbolic engine rejects pass vacuously.
 */
PropertyResult packedEnvelopeBatchCheck(msp::System &sys,
                                        const isa::Image &image,
                                        Rng &rng,
                                        unsigned verify_lanes = 2);

/**
 * Property 7, netlist items: faulted packed-kernel lane identity.
 * The property-6 lockstep itself (one PackedSimulator vs 64 scalar
 * Simulators on a random netlist, 64 derived input schedules, scalar
 * lanes alternating EvalMode, every lane compared in full, per-module
 * energies included) with per-lane random SEU bit-flips injected into
 * random sequential gates at random cycles through the in-driver
 * injection API (Simulator::injectSeuFlip vs
 * PackedSimulator::injectSeuFlip), which must also agree on every
 * flip's applied/not-applied (X-bit no-op) decision. Lane 0 stays
 * fault-free; netlists without sequential gates degrade to the
 * fault-free check.
 */
PropertyResult faultedPackedEquivalenceCheck(
    uint64_t seed, const NetlistGenOptions &opts, unsigned cycles);

/**
 * The scalar reference of campaigns run with @p opts on @p image: the
 * campaign's setup (fault::CampaignSetup), its (site, cycle) rows
 * derived afresh from the seed, and each row run alone through the
 * scalar runner. "" when every one of @p campaigns agrees with it --
 * the golden gate (a refusal included), the budgets, the envelope
 * presence and every row (FaultResult::sameClassification); else the
 * first difference, with the scalar row's divergence report.
 */
std::string
scalarRowsDiff(const CellLibrary &lib, const isa::Image &image,
               const fault::CampaignOptions &opts,
               std::initializer_list<const fault::CampaignResult *> campaigns);

/**
 * Property 7, program items: fault-campaign determinism. One small
 * campaign over @p image, run at 1 job and at @p threads jobs, must
 * equal its scalar reference (scalarRowsDiff) both times. Programs
 * whose golden run the campaign refuses (cosim divergence) pass
 * vacuously, but both runs must refuse.
 */
PropertyResult faultCampaignDeterminismCheck(const isa::Image &image,
                                             uint64_t seed,
                                             unsigned threads);

/** A random port-constraint scenario (static pattern or repeating
 *  schedule) drawn from @p rng -- the input generator of
 *  scenarioDominanceCheck, exposed for tests. */
scenario::Scenario randomScenario(Rng &rng);

/**
 * Property 5: scenario dominance. A constrained scenario admits a
 * subset of the unconstrained executions, so every bound it produces
 * must lie at or under the unconstrained one: peak power, peak
 * energy, and the envelope pointwise (the envelope may also only get
 * shorter). The two scenarios run as one analysis group. Additionally
 * every concrete run *obeying* the scenario (port words drawn
 * per-cycle inside the scenario's constraint) must pass property 4's
 * envelope-bound check against the scenario's own envelope. Programs
 * either analysis rejects pass vacuously.
 * Comparisons allow a ~1e-9 relative slack: per-cycle bound sums are
 * floating-point and the constrained tree sums fewer, smaller terms.
 */
PropertyResult scenarioDominanceCheck(msp::System &sys,
                                      const isa::Image &image,
                                      Rng &rng,
                                      unsigned concrete_runs = 2);

/** A random operating-mode (DVFS) scenario drawn from @p rng: 2-3
 *  named modes with random (vdd, freq), a repeating mode schedule,
 *  and (30% of the time) a port constraint riding along so the
 *  mixed-radix dedup phases get exercised -- the input generator of
 *  modeDominanceCheck, exposed for tests. */
scenario::Scenario randomModeScenario(Rng &rng);

/**
 * Property 8: operating-mode (DVFS) dominance. From a random mode
 * scenario, derive a "lowered" twin whose every mode has (vdd, freq)
 * scaled by factors <= 1 (mode 0 strictly). Lowering an operating
 * point changes only how cycles are *priced*, never which executions
 * exist, so the two analyses (one analysis group) explore identical
 * trees and the lowered report must only tighten: peak power / peak
 * energy at or under the base (1e-6 relative slack: per-cycle powers
 * are float-narrowed before the path-energy sum crosses a
 * freq * 1/freq round-trip, and the two analyses round
 * independently), and the envelope pointwise at or under with NO
 * slack and identical length (per-cycle powers scale by exact IEEE
 * multiplications, which are monotone). Mode-obeying concrete runs
 * (ConcreteRunOptions::modeSchedule from Scenario::phasePricing)
 * must pass property 4's envelope-bound check against the
 * mode-priced envelope. Programs the base analysis rejects pass
 * vacuously; the lowered one must then not reject.
 */
PropertyResult modeDominanceCheck(msp::System &sys,
                                  const isa::Image &image, Rng &rng,
                                  unsigned concrete_runs = 2);

/**
 * Property 9: static-prune soundness (`ulfuzz --mode lint`). Under a
 * random port scenario (or, 1 in 4, the unconstrained default) the
 * analysis with Options::staticPrune on must report the same bounds
 * as the unpruned run (reportDiff, ReportScope::Bounds). Tree-shape
 * statistics (totalCycles / pathsExplored / dedupMerges) are NOT
 * compared against the unpruned run: when the prune cone needs settle
 * cycles (maxPruneDepth > 0) forks before the engage cycle
 * hash with the full basis while later identical states hash with
 * the pruned basis, so a cross-boundary dedup merge the unpruned run
 * finds can be legitimately missed. Pruned runs among themselves are
 * property 3's business (it draws staticPrune one time in four).
 *
 * Independently, the static claims themselves are validated: the
 * core netlist must pass structural lint with zero errors, and a
 * concrete scenario-obeying run (port words drawn inside the
 * scenario constraint each cycle, like scenarioDominanceCheck) must
 * find every gate in lint::ConstAnalysis::pruneMask holding exactly
 * its proven value at every cycle >= the engage cycle the engine
 * would use (reset end + 1 + maxPruneDepth), and inactive on every
 * later cycle. Programs the symbolic engine rejects skip the report
 * comparison (the rejection must still be identical pruned vs
 * unpruned) but never the concrete validation.
 */
PropertyResult staticPruneCheck(msp::System &sys,
                                const isa::Image &image, Rng &rng);

} // namespace fuzz
} // namespace ulpeak

#endif // ULPEAK_FUZZ_PROPERTIES_HH

/**
 * @file
 * The input-independent gate activity analysis of Algorithm 1 and the
 * per-cycle peak assignment of Algorithm 2, combined into one engine.
 *
 * The engine symbolically simulates an application binary on the
 * gate-level system: all peripheral port inputs are driven X each
 * cycle (Algorithm 1 line 11), uninitialized memory and registers are
 * X (line 2), and when the next program-counter value is unknown the
 * execution forks into one path per feasible target (lines 17-24)
 * with duplicate states pruned by hashing (line 19). Every simulated
 * cycle is annotated with its maximum-power X assignment -- the
 * online equivalent of the even/odd VCD construction; see
 * peak/even_odd.hh for the literal file-based flow and the test that
 * proves the equivalence.
 *
 * Forks are O(dirtied-state): at each branch the engine captures a
 * delta snapshot (only the entries that changed since the state the
 * path restored from; Simulator::DeltaSnapshot) and restores instead
 * of re-executing the prefix, promoting to a fresh full snapshot
 * when a path has diverged too far from its base for the delta to
 * stay small. SymbolicConfig::snapshotMode forces full-copy
 * snapshots for comparison; both modes are bit-identical by
 * construction (restore(delta) == restore(materialize(delta))).
 *
 * Each worker picks its frontier per path: it steps a path on the
 * scalar Simulator while at most one is pending, and batches pending
 * paths through the 64-lane PackedSimulator once two or more are;
 * a batch that narrows to one live path with nothing queued hands
 * that path back to the scalar simulator.
 *
 * With SymbolicConfig::numThreads > 1 independent execution-tree
 * branches are explored by a worker pool: each worker owns a private
 * work deque (newly forked children push to the owner; idle workers
 * sleep until a deque holds more than one lane batch, then steal the
 * surplus from its oldest end, where the largest unexplored subtrees
 * sit -- lanes before threads), and the visited-state dedup map is
 * sharded by key hash so concurrent forks only contend when they
 * collide on a shard; only tree-node allocation takes a global lock.
 * Per-cycle traces are buffered worker-locally and committed at
 * fork/leaf boundaries, and peak results merge deterministically
 * (the explored state set, every node's trace, and therefore peak
 * power, peak energy, NPE and the envelope are independent of thread
 * scheduling; only tree node numbering and the steal/per-worker
 * statistics vary).
 *
 * One run can analyze an application under several scenarios at once
 * (an analysis group, SymbolicEngine::run with a scenario list): each
 * analysis is a context with its own scenario, dedup map, tree, cycle
 * budget, peak candidate and failure, and every pending path carries
 * its context. The frontier rule sees the group's paths as one
 * frontier, so the analyses of one program share the 64 lanes; lane
 * identity keeps every context's result bit-identical to the
 * analysis run alone.
 *
 * The inputs driven each cycle come from SymbolicConfig::scenario:
 * the default unconstrained scenario drives every port bit X
 * (Algorithm 1 line 11); a constrained scenario pins port bits
 * (statically or on a repeating per-cycle schedule, whose phase then
 * joins the dedup key) and can narrow the all-X initial memory and
 * registers, so the reported bounds cover exactly the executions the
 * deployment admits.
 */

#ifndef ULPEAK_SYM_SYMBOLIC_ENGINE_HH
#define ULPEAK_SYM_SYMBOLIC_ENGINE_HH

#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "msp/cpu.hh"
#include "power/power_model.hh"
#include "scenario/scenario.hh"
#include "sym/exec_tree.hh"

namespace ulpeak {
namespace sym {

/** Fork snapshot representation (results are identical in both). */
enum class SnapshotMode : uint8_t {
    Full,  ///< complete state copy at every fork (reference)
    Delta, ///< dirtied entries against a shared base (default)
};

/**
 * One analysis request, minus the engine's own budgets: the options
 * sym::SymbolicConfig and peak::Options share, declared once
 * (peak::symConfigFor maps one onto the other).
 */
struct AnalysisOptions {
    double freqHz = 100e6;
    /** Cycle budget over all paths. Cycles are reserved against it
     *  before they are simulated, so no frontier or thread count
     *  simulates more; running out fails the analysis. */
    uint64_t maxTotalCycles = 3000000;
    /** Combinational kernel used by the exploration simulators; both
     *  modes produce bit-identical results (enforced by
     *  tests/test_benchmarks.cc across bench430). */
    EvalMode evalMode = EvalMode::EventDriven;
    /**
     * Worker threads exploring independent execution-tree branches
     * (<= 1: sequential exploration on the calling thread, which also
     * runs worker 0 otherwise). An extra worker only takes work from a
     * deque holding more than one 64-path lane batch, and builds its
     * own System clone on its first steal; snapshots transfer between
     * clones because every System of one library shares one netlist.
     * Peak power/energy/NPE results are scheduling-independent; node
     * numbering inside the tree is not.
     *
     * This parallelizes *within* one application's analysis and is
     * orthogonal to the *program-level* sharding of a suite
     * (peak::BatchOptions::jobs in peak/batch.hh), which reads it as
     * a cap on the CPU budget's threads per analysis (0: uncapped);
     * the two compose, and because results are scheduling-independent
     * here and programs are independent there, every (jobs,
     * numThreads) combination reports bit-identical numbers
     * (tests/test_symbolic.cc and tests/test_batch.cc pin the two
     * halves of that claim).
     */
    unsigned numThreads = 1;
    /** Record the union + peak-cycle sets of active gates
     *  (Figures 1.5 / 3.4). */
    bool recordActiveSets = false;
    /** Record per-cycle per-module power and instruction attribution
     *  (Figure 3.6 COI analysis). */
    bool recordModuleTrace = false;
    /** Compute the cycle-aligned peak power envelope over the whole
     *  execution tree (ExecTree::envelopePowerW) after exploration.
     *  Derived from the tree's logical structure, so it is
     *  byte-identical under any numThreads / EvalMode. */
    bool recordEnvelope = false;
    /** Iteration bound applied to back-edges in the execution tree
     *  (0 = reject unbounded input-dependent loops). */
    unsigned inputDependentLoopBound = 0;
    /**
     * The environment the application is analyzed under: port-input
     * constraints (static or scheduled), initial-memory and
     * initial-register constraints. The default admits every
     * execution (all ports X -- the classic Algorithm 1 flow).
     * Results are bounds over exactly the scenario's executions and
     * can only tighten as constraints are added
     * (fuzz::scenarioDominanceCheck); it participates in the batch
     * result cache key by content. An analysis group
     * (SymbolicEngine::run with a scenario list) ignores it.
     */
    scenario::Scenario scenario;
    /** Fork snapshot form; Delta is the fast default, Full the
     *  reference. Never changes any reported number, so it is
     *  excluded from the batch result cache key like evalMode. */
    SnapshotMode snapshotMode = SnapshotMode::Delta;
    /**
     * Run lint::analyzeConstants over the scenario before exploring
     * and install its prune mask in every worker simulator
     * (Simulator::setStaticPrune, `ulpeak --static-prune`): gates
     * the static analysis proves constant under this scenario drop
     * out of the event-driven worklists, the full sweep, and the
     * fork-time dedup hashing.
     * Opt-in and bit-identity-neutral: every reported number --
     * peak power, peak energy, NPE, envelope, activity sets -- is
     * identical with and without it (fuzz property 9, `ulfuzz
     * --mode lint`; property 3 checks pruned runs across threads,
     * kernels, snapshot modes and the packed frontier), so like
     * evalMode and snapshotMode it is excluded from the batch result
     * cache key.
     */
    bool staticPrune = false;
    /**
     * Reference frontier (`ulpeak --packed-explore`): drain every
     * pending path, single ones included, through the 64-lane
     * PackedSimulator (by default each worker uses the lanes only
     * while two or more paths are pending).
     * Each worker loads up to 64 pending execution paths into lanes,
     * advances all of them with one event-driven packed step per
     * cycle, and transposes a lane back to a scalar snapshot when it
     * reaches its next fork / halt / dedup boundary. Both frontiers
     * share one implementation of
     * every per-cycle and fork rule (budgets, pricing, failure
     * classification, dedup keys, snapshot capture, node commit) and
     * differ only in what they read. Backed by the packed kernel's
     * lane-identity invariant, every reported number -- peak power,
     * peak energy, NPE, envelope, activity sets, path/merge/snapshot
     * statistics -- is bit-identical to the scalar exploration across
     * threads, kernels, snapshot modes, scenarios, operating-mode
     * schedules, and staticPrune (fuzz property 3, `ulfuzz --mode
     * invariance`), so like evalMode it is excluded from the batch
     * result cache key. Only the scheduling-dependent statistics (steals,
     * per-worker cycles, packed batch/occupancy counters) differ.
     */
    bool packedExplore = false;
};

/** The engine's configuration: the shared analysis options plus the
 *  engine's own exploration budgets. */
struct SymbolicConfig : AnalysisOptions {
    /** Cycles one root-to-leaf path may run (a missing halt or an
     *  unbounded loop otherwise never ends). */
    uint64_t maxPathCycles = 100000;
    uint32_t maxNodes = 300000;
};

/**
 * One analysis answer, minus its bulky members: the bounds and
 * exploration statistics SymbolicResult, peak::Report and
 * peak::ProgramResult share, declared once.
 */
struct AnalysisSummary {
    bool ok = false;
    std::string error;

    /// @name Bounds
    /// @{
    double peakPowerW = 0.0;   ///< Section 3.2; Figure 5.1's X-based bars
    double peakEnergyJ = 0.0;  ///< Section 3.3 bound
    /** Normalized peak energy [J/cycle] -- the NPE axis of the
     *  paper's Figures 2.2b / 4.1b / 5.2. */
    double npeJPerCycle = 0.0;
    uint64_t maxPathCycles = 0; ///< longest root-to-leaf path [cycles]
    /// @}

    /// @name Exploration statistics
    /// Scheduling-independent: totalCycles, pathsExplored,
    /// dedupMerges, snapshotBytesCopied/Full (every path captures
    /// the same snapshots whoever runs it). Scheduling-dependent
    /// (excluded from determinism comparisons, like timings):
    /// steals, perWorkerCycles, packedBatches, packedSweeps,
    /// packedLaneCycles. In an analysis group these count the
    /// analysis's own share: its stolen paths, its cycles per worker,
    /// the refills that loaded and the sweeps that stepped one of its
    /// paths, and its lane cycles.
    /// @{
    uint64_t totalCycles = 0;
    uint32_t pathsExplored = 0;
    uint32_t dedupMerges = 0;
    /** Work items taken from another worker's deque. */
    uint32_t steals = 0;
    /** Bytes actually stored by fork snapshots (delta or full). */
    uint64_t snapshotBytesCopied = 0;
    /** Bytes full-copy snapshots of the same forks would have
     *  stored (the delta savings denominator). */
    uint64_t snapshotBytesFull = 0;
    /** Simulated cycles per exploration worker (size numThreads). */
    std::vector<uint64_t> perWorkerCycles;
    /// @name Packed-frontier counters (zero when no worker ever had
    /// two paths pending, unless packedExplore)
    /// @{
    /** Lane-refill rounds that loaded at least one pending path. */
    uint64_t packedBatches = 0;
    /** Packed step() sweeps executed. */
    uint64_t packedSweeps = 0;
    /** Live-lane cycles simulated by those sweeps; divided by
     *  64 * packedSweeps this is the mean lane occupancy. */
    uint64_t packedLaneCycles = 0;
    /// @}
    /// @}
};

/** The engine's answer: the summary plus the execution tree, the
 *  peak's location, activity sets and the envelope trace. */
struct SymbolicResult : AnalysisSummary {
    ExecTree tree;

    /** Where the peak power cycle sits in the tree. */
    uint32_t peakNode = 0;
    uint32_t peakCycleInNode = 0;

    /// @name Activity sets (when recordActiveSets)
    /// @{
    std::vector<uint8_t> everActive;  ///< per gate: 1 if ever active
    std::vector<uint32_t> peakActive; ///< gates active at the peak
    /// @}

    /** Per-cycle upper-bound power envelope env[c] = max over all
     *  execution-tree walks of power(walk, c), when
     *  SymbolicConfig::recordEnvelope. */
    std::vector<float> envelopeW;
};

class SymbolicEngine {
  public:
    SymbolicEngine(msp::System &sys, const SymbolicConfig &cfg);

    /** Run Algorithm 1 + per-cycle Algorithm 2 on @p image. */
    SymbolicResult run(const isa::Image &image);

    /**
     * Analyze @p image once per entry of @p scenarios in one
     * exploration (SymbolicConfig::scenario is ignored): result k is
     * bit-identical to run(image) with scenario @p scenarios[k],
     * failures included -- an analysis that fails in the group runs
     * again alone, because how far a failing exploration got depends
     * on the order it ran in. Under staticPrune (a mask proved per
     * scenario) every analysis runs alone.
     */
    std::vector<SymbolicResult>
    run(const isa::Image &image,
        const std::vector<scenario::Scenario> &scenarios);

  private:
    /** One exploration of the group @p scenarios. */
    std::vector<SymbolicResult>
    explore(const isa::Image &image,
            const std::vector<scenario::Scenario> &scenarios);

    msp::System *sys_;
    SymbolicConfig cfg_;
};

} // namespace sym
} // namespace ulpeak

#endif // ULPEAK_SYM_SYMBOLIC_ENGINE_HH

/**
 * @file
 * Cycle-based three-valued gate-level simulator with activity tracking
 * and two interchangeable evaluation kernels.
 *
 * Each step() evaluates one clock cycle: sequential outputs update from
 * the previous cycle's stable values, the cycle driver sets primary
 * inputs, behavioral hooks (RAM) run at their levelized position, and
 * combinational gates are evaluated from the netlist's flat kernel
 * view (Netlist::flat()). Two kernels implement
 * the combinational phase:
 *
 *  - EvalMode::FullSweep evaluates every scheduled node once per
 *    cycle, walking the level-bucketed schedule front to back -- the
 *    straightforward oblivious kernel, kept as the reference;
 *  - EvalMode::EventDriven (the default) evaluates only gates whose
 *    fanins changed value or activity this cycle. A pending bitset over
 *    schedule positions is seeded by changed/active sequential outputs,
 *    driver-touched and unknown primary inputs, and behavioral-hook
 *    outputs, then drained in ascending position: every consumer sits
 *    at a higher level, hence a higher position, than its producers,
 *    so the drain is the full sweep's own topological order restricted
 *    to the pending nodes, and evaluating a gate ORs its consumers'
 *    bits in ahead of the drain. Hooks always run (behavioral state
 *    such as RAM contents can change between cycles without any
 *    netlist-visible event, and hooks bill per-access energy). Skipped
 *    gates are exactly the gates a full sweep would have re-evaluated
 *    to an identical (value, activity) pair. Flops wake for one edge:
 *    an edge evaluates a flop only when one of its fanins was active
 *    in the cycle before or the flop itself was active at the previous
 *    edge, and every other flop provably keeps its state. The pending
 *    bitset, its drain and this rule are the WakeQueue
 *    (sim/wake_queue.hh) PackedSimulator drains too.
 *
 * Both kernels evaluate a schedule position through one evaluator that
 * reads the position's NodeRecord (the drain hands it positions, the
 * full sweep walks them all): a logic gate is one lookup in
 * cellTruthTable() over its packed fanin values. Activity goes into a
 * gate-id bitset as they go -- the simulator's only activity state. The
 * order-sensitive floating-point energy accumulation walks that bitset
 * in ascending gate id, whatever order the kernel evaluated in, so both
 * produce bit-identical values, activity, and energies every cycle --
 * the test suite locksteps the two kernels across the bench430 programs
 * to enforce this.
 *
 * Activity follows the paper's definition (Section 3.1): a gate is
 * active in a cycle if its value changed, or if it is X and is driven by
 * an active gate. Sequential gates additionally use provable-hold
 * information (enable low) to rule out toggles of unknown values; their
 * next state, hold proof and activity come from evalSeqEdge
 * (cell/cell_library.hh), the one flop evaluator PackedSimulator
 * instantiates for its lanes too. Per cycle the simulator produces two
 * energies:
 *
 *  - actualEnergy: energy of the concrete transitions that occurred
 *    (meaningful for concrete, X-free runs -- this is ordinary
 *    VCD-style power analysis);
 *  - boundEnergy: the Algorithm-2 per-cycle peak assignment, where every
 *    active gate involving X is assigned its maximum-power transition
 *    consistent with the known values of cycles c-1 and c.
 *
 * For X-free runs the two coincide. boundEnergy is what Section 3.2's
 * even/odd VCD construction computes per cycle; see
 * peak/even_odd.cc for the literal file-based construction and the
 * equivalence test in tests/test_peak_power.cc.
 *
 * snapshot()/restore() capture and reinstate the complete simulation
 * state between steps, giving the symbolic engine O(state-copy) forks
 * instead of path re-execution; snapshots are interchangeable between
 * Simulators built over structurally identical netlists (the parallel
 * symbolic workers rely on this).
 */

#ifndef ULPEAK_SIM_SIMULATOR_HH
#define ULPEAK_SIM_SIMULATOR_HH

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "netlist/netlist.hh"
#include "sim/bitset.hh"
#include "sim/function_ref.hh"
#include "sim/wake_queue.hh"

namespace ulpeak {

class Simulator;

/**
 * Combinational-phase kernel selection.
 *
 * The two kernels are interchangeable by contract, not by accident:
 * for any netlist and any driver they produce bit-identical gate
 * values, activity, and per-cycle energies (see the file
 * comment for why, and tests/test_simulator.cc /
 * tests/test_benchmarks.cc for the locksteps that enforce it). Every
 * consumer -- peak::analyze, the symbolic engine, the batch driver's
 * result cache -- relies on this: switching kernels can change wall
 * time but never a reported number. FullSweep is the oblivious
 * reference kernel; EventDriven is the default and is >= 2x faster
 * on high-activity workloads (BENCH_sim_kernel.json tracks this).
 */
enum class EvalMode : uint8_t {
    FullSweep,   ///< oblivious: every scheduled node, every cycle
    EventDriven, ///< pending bitset: only gates with changed fanins
};

/** Non-owning callback over a simulator: a cycle driver, a behavioral
 *  hook (reads gate values, must set the hook's outputs), or a
 *  clock-edge function (e.g. committing memory writes). */
using SimFnRef = FunctionRef<void(Simulator &)>;

class Simulator {
  public:
    explicit Simulator(const Netlist &nl,
                       EvalMode mode = EvalMode::EventDriven);

    const Netlist &netlist() const { return *nl_; }
    EvalMode evalMode() const { return mode_; }

    /// @name Hook registration
    /// @{
    /** Register a behavioral hook or clock-edge function, typically
     *  SimFnRef::member<&T::fn>(obj) or a named lambda: a direct call
     *  per cycle. The simulator does not own the callable, so it must
     *  outlive every step(); a temporary lambda is rejected at compile
     *  time. */
    void setHookFn(uint32_t hook_id, SimFnRef fn);
    void addEdgeFn(SimFnRef fn);
    template <typename F, typename = std::enable_if_t<
                              !std::is_lvalue_reference_v<F> &&
                              !std::is_same_v<std::decay_t<F>, SimFnRef>>>
    void setHookFn(uint32_t hook_id, F &&fn) = delete;
    template <typename F, typename = std::enable_if_t<
                              !std::is_lvalue_reference_v<F> &&
                              !std::is_same_v<std::decay_t<F>, SimFnRef>>>
    void addEdgeFn(F &&fn) = delete;
    /// @}

    /// @name Driving inputs (legal during a hook or before step())
    /// @{
    void setInput(GateId g, V4 v);
    void setInputBus(const std::vector<GateId> &bus, Word16 w);
    /// @}

    /**
     * Overwrite a gate's current value directly. Used by the symbolic
     * engine to constrain an X program counter to one concrete branch
     * target (Algorithm 1, update_PC_next). Sound only for narrowing
     * an X to one of its feasible values. The event-driven kernel
     * re-evaluates the forced gate's fanout cone.
     */
    void forceValue(GateId g, V4 v);
    void forceBus(const std::vector<GateId> &bus, Word16 w);

    /**
     * Single-event upset: invert the stored output of sequential gate
     * @p g. Legal from the cycle driver (the position after the
     * sequential update and before the combinational sweep), so a flip
     * at cycle c is what cycle c's combinational logic observes and,
     * if the flop holds, what the next edge reloads -- real SEU
     * semantics, not a transient glitch. The upset is a genuine output
     * transition, so the gate is marked active for this cycle's
     * Section-3.1 activity accounting (a flip back to the pre-edge
     * value contributes no transition energy, matching
     * accumulateEnergy's known->known rule). Returns false (no-op)
     * when the stored value is X: an upset of an undefined bit has no
     * defined effect, and the X already subsumes both values.
     */
    bool injectSeuFlip(GateId g);

    /// @name Reading values
    /// @{
    V4 value(GateId g) const { return val_[g]; }
    bool isActive(GateId g) const { return testBit(actBits_.data(), g); }
    Word16 readBus(const std::vector<GateId> &bus) const;
    /** Gates active in the cycle most recently stepped, as a gate-id
     *  bitset (walk it with forEachBit, ascending gate id). */
    const std::vector<uint64_t> &activeBits() const { return actBits_; }
    /// @}

    /**
     * Simulate one clock cycle. The driver (may be empty) is called
     * after sequential update, before the combinational sweep, to set
     * primary inputs for this cycle. It is taken by reference, not
     * copied: passing a fresh lambda every cycle costs nothing.
     */
    void step(SimFnRef driver = {});

    uint64_t cycle() const { return cycle_; }

    /// @name Per-cycle energy (valid after step())
    /// @{
    double actualEnergyJ() const { return actualEnergy_; }
    double boundEnergyJ() const { return boundEnergy_; }
    /** Per top-level-module split of boundEnergyJ (index = ModuleId of a
     *  direct child of top; index 0 = top itself). */
    const std::vector<double> &moduleBoundEnergyJ() const
    {
        return moduleEnergy_;
    }
    /** Extra per-cycle energy contributed by behavioral blocks. */
    void addBehavioralEnergyJ(double j, ModuleId top_module);
    /** The behavioral-block share of this cycle's energy (included in
     *  both actualEnergyJ and boundEnergyJ). */
    double behavioralEnergyJ() const { return behavioralEnergy_; }
    /// @}

    /// @name Snapshot / restore (for symbolic forking)
    /// @{
    /** Complete inter-step state. Previous-cycle values are absent on
     * purpose: step() overwrites them from the current values before
     * anything reads them, so they are dead across a restore.
     * Contract: capture the snapshot *before* applying between-step
     * edits (setInput/forceValue) -- the wake marks such edits create
     * live only in the originating simulator, so a snapshot taken
     * after an edit restores the new value without its propagation. */
    struct Snapshot {
        std::vector<V4> val;
        /** Gate-id bitset of the last stepped cycle's activity, the
         *  form activeBits() returns. */
        std::vector<uint64_t> activeLast;
        std::vector<uint8_t> loadedPrevEdge;
        uint64_t cycle;
    };
    Snapshot snapshot() const;
    /** Throws std::logic_error for a snapshot of a netlist of another
     *  shape (gate or sequential-gate count). */
    void restore(const Snapshot &s);

    /**
     * Sparse snapshot: the same complete inter-step state as
     * Snapshot, stored as a shared base plus the entries that differ
     * from it. The symbolic engine's forks are temporally close to
     * the snapshot they restored from, so typically only a few
     * percent of the state changed -- a delta captures (and a
     * restore rewrites) little more than that, while the base is
     * shared read-only between all sibling forks. restore(delta) and
     * restore(materialize(delta)) are interchangeable by contract
     * (tests/test_snapshot.cc locksteps the two across randomized
     * dirty patterns), so switching snapshot forms can never change
     * a simulated value.
     */
    struct DeltaSnapshot {
        std::shared_ptr<const Snapshot> base;
        /// @name Entries differing from *base (parallel arrays)
        /// @{
        std::vector<uint32_t> valIdx;
        std::vector<V4> valNew;
        std::vector<uint32_t> actIdx; ///< word index into activeLast
        std::vector<uint64_t> actNew; ///< the whole 64-gate word
        std::vector<uint32_t> seqIdx;
        std::vector<uint8_t> seqNew;
        /// @}
        uint64_t cycle = 0;

        /** Heap bytes this delta stores (the "bytes copied" of a
         *  delta fork, vs bytesOf(full) for a full one). */
        size_t deltaBytes() const;
    };
    /** Capture the current state as a delta against @p base, which
     *  must describe the same netlist (sizes are checked): the delta
     *  deltaBetween(snapshot(), base) returns, without the full copy.
     *  Same between-steps contract as snapshot(). */
    DeltaSnapshot
    snapshotDelta(std::shared_ptr<const Snapshot> base) const;
    /** Same shape check as restore(const Snapshot &), on the base. */
    void restore(const DeltaSnapshot &s);
    /** Expand a delta into the equivalent full Snapshot (the
     *  equivalence-test helper). */
    static Snapshot materialize(const DeltaSnapshot &s);
    /** Heap bytes of a full snapshot of this simulator's netlist. */
    static size_t bytesOf(const Snapshot &s);
    /** Capture @p cur as a delta against @p base (sizes are
     *  checked): the symbolic engine's fork capture, for scalar and
     *  packed paths alike, so both produce the same deltas. */
    static DeltaSnapshot
    deltaBetween(const Snapshot &cur,
                 std::shared_ptr<const Snapshot> base);
    /// @}

    /**
     * Install a static prune mask (lint::analyzeConstants's
     * pruneMask): gates proven to hold one constant value in every
     * execution the driving scenario admits, from @p engage_cycle on
     * (the analysis' settle bound: reset cycles + 1 + maxPruneDepth).
     * Once cycle() reaches @p engage_cycle, both kernels skip masked
     * gates that were inactive last cycle (their value and
     * inactivity are invariants), and hashFullState() drops their
     * (constant) bytes --
     * identical states keep identical hashes, so dedup merges stay
     * sound. The mask covers gates only (size numGates); sequential
     * gates and hook-driven nets must not be masked.
     *
     * Soundness contract: the cycle driver keeps driving every
     * masked input to its proven constant, and no out-of-band state
     * mutation touches a masked cone. The simulator enforces the
     * contract defensively: an SEU injection, or a setInput /
     * forceValue that moves a masked gate off its constant at or
     * after @p engage_cycle, permanently disables pruning for this
     * simulator instead of going unsound. Reported values, activity,
     * and energies are bit-identical with and without a valid mask
     * (fuzz property 9 enforces this end-to-end).
     */
    void
    setStaticPrune(std::shared_ptr<const std::vector<uint8_t>> mask,
                   uint64_t engage_cycle);
    /** True when a mask is installed, not defensively disabled, and
     *  the engage cycle has been reached. */
    bool
    staticPruneActive() const
    {
        return pruneBasisAt(cycle_) != nullptr;
    }

    /** FNV-1a hash over the complete snapshot state (values,
     *  activity, load history). Equal hashes mean identical
     *  continuations; the symbolic engine's dedup keys use this so a
     *  merge target's trace never depends on which racing path
     *  claimed it. */
    uint64_t hashFullState() const;
    /** hashFullState over a captured Snapshot instead of the live
     *  state, with this simulator's prune configuration applied
     *  against @p s.cycle (the snapshot's own engage test). For a
     *  snapshot of this simulator's current state the result equals
     *  hashFullState() bit for bit. */
    uint64_t hashSnapshotState(const Snapshot &s) const;
    /** hashFullState over any state byte source @p src (see
     *  hashStateBytes), with this simulator's prune configuration
     *  applied against @p cycle, the state's own age. The packed
     *  exploration hashes a lane where it is through this
     *  (PackedSimulator::laneBytes), so its dedup keys match the
     *  scalar engine's without a transpose. */
    template <typename Src>
    uint64_t
    hashState(const Src &src, uint64_t cycle) const
    {
        return hashStateBytes(src, pruneBasisAt(cycle));
    }

    /**
     * Predict the value a sequential gate will take at the next clock
     * edge, from the current cycle's stable values. The symbolic
     * engine uses this on the PC flops to detect an imminent
     * X-valued program counter one cycle before the fetch would
     * consume it (Algorithm 1: "if e.PC_next == X").
     */
    V4 predictSeqValue(GateId g) const;

  private:
    /**
     * The arrays a sweep reads and writes, as raw pointers. A sweep
     * holds one in locals: a hook call may change any member, so a
     * read through `this` would be repeated at every position.
     */
    struct SweepView {
        const NodeRecord *rec;
        const V4 *truth;
        V4 *val;
        const V4 *prev;
        uint64_t *act;
        const uint64_t *actPrev;
        const uint8_t *pm; ///< the engaged prune mask, or null
        uint32_t seqWakeBase;
        WakeQueue::Marks wake;
    };
    SweepView sweepView();
    /** Evaluate schedule position @p pos from its NodeRecord: the
     *  one combinational evaluator of both kernels, skipping the
     *  settled gates of an engaged prune mask. */
    template <bool kEvent> void evalPos(const SweepView &v, uint32_t pos);
    template <bool kEvent> void evalSeq(uint32_t i);
    void runHook(uint32_t hook_id);
    void updateSequential();
    void sweepFull();
    void sweepEvent();
    static void markFanouts(const SweepView &v, FanoutRange r,
                            bool value_changed);
    void checkShape(const Snapshot &s) const;
    void afterRestore();
    /** The hash basis of a state @p cycle cycles old: the unmasked
     *  runs while pruning is engaged at that age, else null. */
    const std::vector<std::pair<uint32_t, uint32_t>> *
    pruneBasisAt(uint64_t cycle) const
    {
        return pruneMask_ && !pruneDisabled_ && cycle >= pruneEngage_
                   ? &unprunedRuns_
                   : nullptr;
    }

    /** The state of a Snapshot (or of a simulator's live arrays) as a
     *  byte source of hashStateBytes. */
    struct StateBytes {
        const V4 *vals;
        const uint64_t *act; ///< gate-id activity bitset
        const uint8_t *lpe;
        size_t nval, nlpe;

        size_t numGates() const { return nval; }
        void
        valWords(size_t w, uint64_t &ones, uint64_t &unknown) const
        {
            size_t lo = w * 64, n = std::min<size_t>(64, nval - lo);
            ones = unknown = 0;
            if (n < 64) {
                for (size_t i = 0; i < n; ++i) {
                    ones |= uint64_t(vals[lo + i] == V4::One) << i;
                    unknown |= uint64_t(vals[lo + i] == V4::X) << i;
                }
                return;
            }
            for (unsigned j = 0; j < 8; ++j) {
                // V4 bytes are 0, 1 or 2: gather each byte's bit 0 and
                // bit 1 into one byte each.
                uint64_t x;
                std::memcpy(&x, vals + lo + 8 * j, 8);
                constexpr uint64_t kLow = 0x0101010101010101ull;
                constexpr uint64_t kGather = 0x0102040810204080ull;
                ones |= (((x & kLow) * kGather) >> 56) << (8 * j);
                unknown |= (((x >> 1 & kLow) * kGather) >> 56) << (8 * j);
            }
        }
        uint64_t activeWord(size_t w) const { return act[w]; }
        size_t numSeq() const { return nlpe; }
        uint8_t loaded(size_t i) const { return lpe[i]; }
    };

    /**
     * The full-state hash, one body for every place a state lives:
     * FNV-1a over (values, activity, load history) of the byte source
     * @p src, restricted to the unmasked runs @p runs when non-null.
     * A source gives numGates(); valWords(w, ones, unknown) and
     * activeWord(w), the gates 64w..64w+63 that read One, that read X
     * and that are active, as bits; numSeq() and loaded(i) (0/1).
     * Values mix as their V4 byte (Zero 0, One 1, X 2), activity as
     * one 0/1 byte per gate, zero-padded to a multiple of 8 when
     * unrestricted: the pinned dedup-key format
     * (tests/test_snapshot.cc, DedupKeys).
     *
     * Most value and activity bytes are zero, and k zero bytes mix as
     * one multiply by the FNV prime to the k: only the nonzero bytes
     * cost a step of the byte chain.
     */
    template <typename Src>
    static uint64_t
    hashStateBytes(const Src &src,
                   const std::vector<std::pair<uint32_t, uint32_t>> *runs)
    {
        constexpr uint64_t kPrime = 0x100000001b3ull;
        static constexpr std::array<uint64_t, 65> kPow = [] {
            std::array<uint64_t, 65> p{};
            p[0] = 1;
            for (size_t k = 1; k < p.size(); ++k)
                p[k] = p[k - 1] * kPrime;
            return p;
        }();
        // The masks first, off the byte chain: they are most of the
        // work of a lane source, and independent of the hash.
        size_t n = src.numGates();
        std::vector<uint64_t> ones(bitWords(n)), unknown(bitWords(n)),
            active(bitWords(n));
        for (size_t w = 0; w < ones.size(); ++w) {
            src.valWords(w, ones[w], unknown[w]);
            active[w] = src.activeWord(w);
        }
        uint64_t h = 0xcbf29ce484222325ull;
        auto mix = [&h](uint8_t b) {
            h ^= b;
            h *= kPrime;
        };
        auto skip = [&h](size_t k) { // k zero bytes
            for (; k > 64; k -= 64)
                h *= kPow[64];
            h *= kPow[k];
        };
        // The bytes of gates [begin, end): byte(g) where @p mask has
        // g's bit, zero elsewhere.
        auto mixGates = [&](size_t begin, size_t end,
                            const std::vector<uint64_t> &mask,
                            auto byte) {
            size_t pos = begin;
            for (size_t w = begin / 64; w * 64 < end; ++w) {
                size_t lo = w * 64;
                uint64_t m = mask[w];
                if (begin > lo)
                    m &= ~uint64_t(0) << (begin - lo);
                if (end < lo + 64)
                    m &= (uint64_t(1) << (end - lo)) - 1;
                for (; m; m &= m - 1) {
                    size_t g = lo + unsigned(__builtin_ctzll(m));
                    skip(g - pos);
                    mix(byte(g));
                    pos = g + 1;
                }
            }
            skip(end - pos);
        };
        std::vector<uint64_t> &nonzero = ones;
        for (size_t w = 0; w < ones.size(); ++w)
            nonzero[w] |= unknown[w];
        auto vals = [&](size_t begin, size_t end) {
            mixGates(begin, end, nonzero, [&](size_t g) {
                return uint8_t(1 + (unknown[g / 64] >> (g % 64) & 1));
            });
        };
        auto acts = [&](size_t begin, size_t end) {
            mixGates(begin, end, active, [](size_t) { return uint8_t(1); });
        };
        if (runs) {
            // Masked gates hold their proven constant and stay
            // inactive in every reachable state, so their bytes carry
            // no information: hash only the unmasked runs. The basis
            // is a pure function of (mask, engage, cycle), identical
            // across workers, kernels, snapshot modes and lanes, so
            // dedup keys stay scheduling-independent.
            for (const auto &r : *runs)
                vals(r.first, r.second);
            for (const auto &r : *runs)
                acts(r.first, r.second);
        } else {
            vals(0, n);
            acts(0, n);
            skip((8 - n % 8) % 8);
        }
        for (size_t i = 0, ns = src.numSeq(); i < ns; ++i)
            mix(src.loaded(i));
        return h;
    }
    void accumulateEnergy();

    const Netlist *nl_;
    const FlatNetlist *flat_;
    const V4 *truth_; ///< cellTruthTable()
    EvalMode mode_;
    std::vector<V4> val_;
    std::vector<V4> prev_;
    /** Gate-id activity bitset, cleared at the start of each step and
     *  set as gates evaluate active: between steps, the last stepped
     *  cycle's activity. */
    std::vector<uint64_t> actBits_;
    /** actBits_ of the previous cycle (flop D-pin activity, and the
     *  pruned full sweep's settled test). */
    std::vector<uint64_t> actBitsPrev_;
    /** Per seq gate (indexed by position in seqGates()): last edge
     * actually loaded (enable high). */
    std::vector<uint8_t> loadedPrevEdge_;
    std::vector<GateId> inputGates_; ///< all Input-kind gates

    /** The event-driven kernel's pending evaluations and the flop
     *  wake rule (see WakeQueue). */
    WakeQueue wake_;

    std::vector<SimFnRef> hookFns_;
    std::vector<SimFnRef> edgeFns_;

    /// @name Static pruning (see setStaticPrune)
    /// @{
    std::shared_ptr<const std::vector<uint8_t>> pruneMask_;
    uint64_t pruneEngage_ = 0;
    bool pruneDisabled_ = false;
    /** Maximal [begin, end) runs of unmasked gate ids -- the hash
     *  basis while pruning is engaged. */
    std::vector<std::pair<uint32_t, uint32_t>> unprunedRuns_;
    /// @}

    double actualEnergy_ = 0.0;
    double boundEnergy_ = 0.0;
    double behavioralEnergy_ = 0.0;
    std::vector<double> moduleEnergy_;
    uint64_t cycle_ = 0;
};

} // namespace ulpeak

#endif // ULPEAK_SIM_SIMULATOR_HH

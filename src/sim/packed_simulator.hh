/**
 * @file
 * Bit-parallel 64-pattern gate-level simulator.
 *
 * PackedSimulator evaluates the same netlist, cycle semantics and
 * Algorithm-2 energy assignment as the scalar Simulator, but over 64
 * independent input patterns at once: every gate's value is a V64
 * (a 64-bit value plane + a 64-bit known plane), every activity flag
 * a 64-bit lane mask, and one and/or/xor/not/mux costs a handful of
 * word ops for all 64 patterns (src/logic/v64.hh).
 *
 * Lane-identity invariant: while lane i is live (see below), it is
 * bit-identical -- per-cycle gate values, activity flags, actual /
 * bound / per-module energies, and the full-state hash of its
 * extractLaneState snapshot -- to an independent scalar Simulator run
 * driven with lane i's inputs (either EvalMode; the two scalar kernels
 * are themselves bit-identical by contract). This holds by
 * construction:
 *
 *  - the V64 ops are lane-exact to the scalar V4 ops of the same
 *    names, and both kernels compose cells through the one evalCell
 *    template, so every cell evaluates lane-exactly;
 *  - both kernels clock flops through the one evalSeqEdge template
 *    (cell/cell_library.hh), so next state, provable hold and flop
 *    activity are one rule per lane; combinational activity masks
 *    compute the scalar rule per lane (value-changed, X-propagation
 *    through active fanins);
 *  - per-lane energy sums add the same floating-point terms in the
 *    same ascending-gate-id order as the scalar kernel's
 *    activity-bitset walk (an accumulator shared by a class of lanes
 *    adds a term only when every lane of the class bills it), so
 *    even float rounding matches.
 *
 * tests/test_packed_sim.cc and the ulfuzz packed properties (6 and 7)
 * enforce the invariant on fuzz-generated netlists and programs.
 *
 * The kernel is event-driven across lanes, the packed analogue of
 * EvalMode::EventDriven: a pending bitset over schedule positions is
 * filled from FlatNetlist::fanoutPos by every gate active in any lane
 * and drained in ascending position, so a combinational gate is
 * evaluated only when one of its fanins is active in some lane, and a
 * flop only when a fanin was active in the cycle before or the flop was
 * active at the previous edge, in some lane. The queue, its drain and
 * that rule are the scalar kernel's own WakeQueue (sim/wake_queue.hh),
 * and positions evaluate from the same NodeRecords through the same
 * evalCell template. Hooks and Input gates run every cycle; cycle 0
 * evaluates everything once. The union stays small: on the MSP430 core
 * (5,890 scheduled gates) the `ulfault` campaigns over `mult` and
 * `tea8` at seeds 1 and 7 evaluate 750-1,064 combinational gates per
 * sweep (13-18%), and 64 random port schedules of the GA stressmark 865
 * (15%). A gate-id activity bitset bounds the per-cycle bookkeeping by
 * the active set as well.
 *
 * Lanes are retired by the caller once it no longer reads them
 * (retireLanes): a retired lane stops clocking -- its flops hold,
 * input writes, forces and injections skip it, and it is never
 * active, so it bills nothing and wakes nothing. loadLanes
 * (from a scalar snapshot) and copyLane (from a lane that has just
 * stepped) revive a lane. The invariant above is "while live", which
 * is what a scalar run does when its runner stops stepping it.
 *
 * Energies are priced on their first read in a cycle (or just before
 * a between-step write would change what they read): the bound energy
 * by itself, the actual energy and the per-module split together. Each
 * is the scalar kernel's walk -- the cycle's behavioral energy
 * replayed first, then the active gates in ascending gate id -- so
 * they are float-identical to the scalar kernel's eager sums. The
 * bound walk prices lanes in classes: lanes that bill the same terms
 * from the same start share one accumulator, split at the first term
 * on which they differ (see priceBound), so a campaign's lanes that
 * still follow the golden run are priced once.
 *
 * Beyond the embarrassingly multi-pattern consumers (ulfuzz lane
 * sweeps, batched concrete trace validation, fault campaigns), the
 * symbolic engine's exploration frontier drives independent pending
 * execution paths through the lanes: by default once two or more paths
 * are pending (SymbolicConfig::packedExplore forces every path through
 * the lanes, as the reference). A path that forks on a lane stays on
 * the lanes: laneBytes feeds the lane's state to the one full-state
 * hash (Simulator::hashStateBytes) where it is, predictSeqValue and
 * readBusLanes give the fork test its PC and IR, forceBusLane narrows
 * the continuing child's PC, and copyLane moves a second child into
 * a free lane. loadLanes / extractLaneState transpose scalar
 * Simulator::Snapshots into and out of lanes only for paths that
 * enter or leave the lanes, and a fault campaign's batch starts all
 * 64 lanes from one golden checkpoint with a single loadLanes. Each
 * is backed by the lane-identity invariant above, so a lane's
 * continuation is bit-identical to the scalar restore-and-run.
 */

#ifndef ULPEAK_SIM_PACKED_SIMULATOR_HH
#define ULPEAK_SIM_PACKED_SIMULATOR_HH

#include <algorithm>
#include <array>
#include <type_traits>
#include <vector>

#include "logic/v64.hh"
#include "netlist/netlist.hh"
#include "sim/function_ref.hh"
#include "sim/simulator.hh"
#include "sim/wake_queue.hh"

namespace ulpeak {

class PackedSimulator;

/** Non-owning callback over a packed simulator: a cycle driver, a
 *  behavioral hook or a clock-edge function (see SimFnRef). */
using PackedFnRef = FunctionRef<void(PackedSimulator &)>;

class PackedSimulator {
  public:
    static constexpr unsigned kLanes = 64;

    explicit PackedSimulator(const Netlist &nl);

    const Netlist &netlist() const { return *nl_; }

    /// @name Hook registration (packed behavioral blocks)
    /// @{
    /** Same contract as Simulator::setHookFn / addEdgeFn: the
     *  simulator does not own the callable, so it must outlive every
     *  step(); a temporary lambda is rejected at compile time. */
    void setHookFn(uint32_t hook_id, PackedFnRef fn);
    void addEdgeFn(PackedFnRef fn);
    template <typename F, typename = std::enable_if_t<
                              !std::is_lvalue_reference_v<F> &&
                              !std::is_same_v<std::decay_t<F>, PackedFnRef>>>
    void setHookFn(uint32_t hook_id, F &&fn) = delete;
    template <typename F, typename = std::enable_if_t<
                              !std::is_lvalue_reference_v<F> &&
                              !std::is_same_v<std::decay_t<F>, PackedFnRef>>>
    void addEdgeFn(F &&fn) = delete;
    /// @}

    /// @name Driving inputs (legal during a hook or before step())
    /// @{
    /** Retired lanes keep their value whatever @p v holds there. */
    void setInput(GateId g, V64 v);
    /** Per-lane words: bus bit b of lane l takes lanes[l].bit(b). */
    void setInputBusLanes(const std::vector<GateId> &bus,
                          const std::array<Word16, kLanes> &lanes);
    /// @}

    /// @name Reading values
    /// @{
    V64 value(GateId g) const { return val_[g]; }
    V4
    valueLane(GateId g, unsigned lane) const
    {
        return value(g).lane(lane);
    }
    /** Lanes in which @p g is active this cycle. */
    uint64_t activeMask(GateId g) const { return act_[g]; }
    /** Gate-id bitset covering every gate active in some lane this
     *  cycle, in ascending gate id (a superset: read activeMask). */
    const std::vector<uint64_t> &activeBits() const { return actBits_; }
    /** Every lane's word of @p bus (bit i from bus[i]), in one
     *  transpose (the read twin of setInputBusLanes); retired lanes
     *  read their frozen values. */
    std::array<Word16, kLanes>
    readBusLanes(const std::vector<GateId> &bus) const;
    /// @}

    /// @name Lane retirement
    /// @{
    /** Lanes that clock; all 64 at construction. */
    uint64_t liveMask() const { return live_; }
    /** Stop clocking the lanes of @p lane_mask (legal between steps):
     *  their state freezes as the last step left it, and their
     *  energies read 0 from the next step on. */
    void retireLanes(uint64_t lane_mask) { live_ &= ~lane_mask; }
    /// @}

    /**
     * Per-lane single-event upsets: invert sequential gate @p g's
     * stored value in every *known* live lane of @p lane_mask and mark
     * those lanes active (X lanes are untouched). Legal from the
     * cycle driver, mirroring Simulator::injectSeuFlip lane for lane
     * -- the lane-identity invariant extends to faulted runs. Returns
     * the mask of lanes actually flipped.
     */
    uint64_t injectSeuFlip(GateId g, uint64_t lane_mask);

    /** Simulate one clock cycle on all live lanes; the driver sets
     *  primary inputs (same position in the cycle as Simulator). */
    void step(PackedFnRef driver = {});

    uint64_t cycle() const { return cycle_; }

    /// @name Per-lane per-cycle energy (valid after step())
    /// @{
    double actualEnergyJ(unsigned lane) const;
    double
    boundEnergyJ(unsigned lane) const
    {
        priceBound();
        return bound_[lane];
    }
    /** Lane @p lane's per-module split, shaped like the scalar
     *  Simulator::moduleBoundEnergyJ() vector. */
    std::vector<double> moduleBoundEnergyLaneJ(unsigned lane) const;
    /** Add behavioral energy @p j to every live lane in
     *  @p lane_mask. Legal from a hook. */
    void addBehavioralEnergyJ(double j, ModuleId top_module,
                              uint64_t lane_mask);
    /// @}

    /// @name Lane <-> scalar snapshot transpose (symbolic frontier)
    /// @{
    /**
     * Install a scalar Simulator::Snapshot into every lane of
     * @p lane_mask and revive them: gate values, activity flags and
     * sequential load history, exactly the state Simulator::restore
     * reinstates (previous-cycle planes are dead across a load for the
     * same reason they are absent from Snapshot: step() rebuilds them
     * before any read). Legal between steps, while other lanes are
     * live. Like Simulator::restore it sets cycle() to the snapshot's
     * cycle and re-arms every flop for the next edge; the loaded
     * lanes' energies are undefined until the next step. The next
     * step()'s edge functions run against the loaded values,
     * mirroring the scalar restore-then-step sequence, so the caller
     * must inhibit the edge effects of lanes it has not loaded. One
     * load of all 64 lanes costs what one lane's does.
     */
    void loadLanes(uint64_t lane_mask, const Simulator::Snapshot &s);
    /**
     * Transpose lane @p lane back into a scalar snapshot stamped with
     * @p cycle (the lane's own cycle count -- the packed simulator's
     * global cycle() counts sweeps from the last load, and lanes
     * loaded at different ages share it). For a lane loaded from a
     * snapshot and stepped N times the result is byte-identical to the
     * scalar restore-and-step-N Simulator::snapshot(): values per
     * lane(), activity as the gate-id bitset, load history as 0/1
     * bytes.
     */
    Simulator::Snapshot extractLaneState(unsigned lane,
                                         uint64_t cycle) const;
    /**
     * Copy live lane @p from into lane @p to and revive it: gate
     * values and previous-cycle planes, activity, the flops' D-pin
     * activity and load history, one masked bit move per word. Legal
     * between steps, right after a step() in which @p from was live:
     * the lane-unioned wake marks of that step already cover the copy,
     * so unlike loadLanes nothing is re-armed or resynced, and
     * both lanes continue exactly as @p from alone would. The copy's
     * energies are undefined until the next step.
     */
    void copyLane(unsigned from, unsigned to);

    /** Lane @p lane's state as a byte source of
     *  Simulator::hashStateBytes, read in place: the bytes of the
     *  snapshot extractLaneState would return. */
    class LaneBytes {
      public:
        LaneBytes(const PackedSimulator &ps, unsigned lane)
            : ps_(&ps), lane_(lane)
        {
        }
        size_t numGates() const { return ps_->val_.size(); }
        uint8_t
        val(size_t g) const // branch-free V4: X = 2 when unknown
        {
            const V64 &v = ps_->val_[g];
            return uint8_t(((v.v >> lane_) & 1) |
                           ((~v.k >> lane_) & 1) << 1);
        }
        void
        valWords(size_t w, uint64_t &ones, uint64_t &unknown) const
        {
            const V64 *val = ps_->val_.data() + w * 64;
            size_t n = std::min<size_t>(64, numGates() - w * 64);
            ones = unknown = 0;
            if (n < 64) {
                for (size_t i = 0; i < n; ++i) {
                    ones |= (val[i].v >> lane_ & 1) << i;
                    unknown |= (~val[i].k >> lane_ & 1) << i;
                }
                return;
            }
            for (size_t j = 0; j < 64; j += 8) {
                // The lane's bit of eight gates to one byte each, then
                // the eight bytes gathered into one.
                uint64_t yo = 0, yu = 0;
                for (unsigned i = 0; i < 8; ++i) {
                    yo |= (val[j + i].v >> lane_ & 1) << (8 * i);
                    yu |= (~val[j + i].k >> lane_ & 1) << (8 * i);
                }
                constexpr uint64_t kGather = 0x0102040810204080ull;
                ones |= ((yo * kGather) >> 56) << j;
                unknown |= ((yu * kGather) >> 56) << j;
            }
        }
        /** Only gates of the lane-unioned activity bitset can be
         *  active in any lane. */
        uint64_t
        activeWord(size_t w) const
        {
            uint64_t m = 0;
            for (uint64_t any = ps_->actBits_[w]; any; any &= any - 1) {
                unsigned i = unsigned(__builtin_ctzll(any));
                m |= (ps_->act_[w * 64 + i] >> lane_ & 1) << i;
            }
            return m;
        }
        size_t numSeq() const { return ps_->loadedPrevEdge_.size(); }
        uint8_t
        loaded(size_t i) const
        {
            return uint8_t((ps_->loadedPrevEdge_[i] >> lane_) & 1);
        }

      private:
        const PackedSimulator *ps_;
        unsigned lane_;
    };
    LaneBytes laneBytes(unsigned lane) const { return {*this, lane}; }
    /// @}

    /**
     * Per-lane Simulator::forceValue: overwrite gate @p g's value in
     * live lane @p lane only. Same contract -- sound only for
     * narrowing an X to a feasible value, on sequential outputs or
     * Input-kind gates (a scheduled gate would be recomputed). Like
     * the scalar force, the gate's activity flag is left as the
     * sequential update computed it, and the forced value's consumers
     * are woken.
     */
    void forceLane(GateId g, unsigned lane, V4 v);
    void forceBusLane(const std::vector<GateId> &bus, unsigned lane,
                      Word16 w);

    /** Simulator::predictSeqValue in every lane: the value
     *  sequential gate @p g will take at the next edge, from each
     *  lane's current stable values. */
    V64 predictSeqValue(GateId g) const;

  private:
    /** Write @p v over gate @p g's live lanes and wake its consumers
     *  if any lane changed (setInput / forceLane). */
    void writeLive(GateId g, uint64_t v, uint64_t k);
    void updateSequential();
    void evalSeqGate(uint32_t i);
    /** The arrays a sweep reads and writes, held in locals across
     *  hook calls (Simulator::SweepView's counterpart; hooks do not
     *  change which lanes are live). */
    struct SweepView {
        const NodeRecord *rec;
        V64 *val;
        const V64 *prev;
        uint64_t *act;
        uint64_t *actBits;
        uint64_t live;
        WakeQueue::Marks wake;
    };
    SweepView sweepView();
    /** Evaluate schedule position @p pos from its NodeRecord across
     *  the lanes (Simulator::evalPos's counterpart). */
    void evalPos(const SweepView &v, uint32_t pos);
    /** Price the bound energy, and the actual energy and per-module
     *  split, on first read (see the file comment). */
    void priceBound() const;
    void priceSplit() const;

    const Netlist *nl_;
    const FlatNetlist *flat_;
    /// @name Per-gate values and lane masks
    /// @{
    std::vector<V64> val_, prev_;
    std::vector<uint64_t> act_;
    /// @}
    /** Gate-id bitsets covering the nonzero entries of act_ in this
     *  and the last cycle, plus the gates written outside evaluation
     *  (setInput, forceLane) in that cycle: every gate whose value can
     *  differ from its previous-cycle planes at the next step, which
     *  resyncs only these. Supersets: a bit may outlive its lanes. */
    std::vector<uint64_t> actBits_, actBitsPrev_;
    /** Per seq gate: its D pin's lanes active in the last cycle, read
     *  by the flop's edge (captured for the flops due at it). */
    std::vector<uint64_t> dActPrev_;
    /** Every gate's previous-cycle planes resync at the next step
     *  (cycle 0 settled the constants, loadLanes rewrote lanes). */
    bool resyncAll_ = true;
    /** Per seq gate: lanes whose previous edge actually loaded. */
    std::vector<uint64_t> loadedPrevEdge_;
    uint64_t live_ = ~uint64_t(0);

    /** Pending evaluations and the flop wake rule, lane-unioned
     *  (Simulator's WakeQueue). */
    WakeQueue wake_;
    /** Hook and Input positions: marked in wake_ every cycle. */
    std::vector<uint64_t> always_;

    std::vector<PackedFnRef> hookFns_;
    std::vector<PackedFnRef> edgeFns_;

    /** This cycle's addBehavioralEnergyJ calls, in order: pricing
     *  replays them ahead of the gate terms. */
    struct BehavioralBill {
        double j;
        ModuleId module;
        uint64_t lanes;
    };
    std::vector<BehavioralBill> bills_;
    /** step() has ended the current cycle (no more bills). */
    bool stepped_ = false;
    /// @name Lazily priced energies (valid when boundValid_ and
    /// splitValid_)
    /// @{
    mutable bool boundValid_ = false, splitValid_ = false;
    mutable std::array<double, kLanes> bound_{};
    mutable std::array<double, kLanes> actual_{};
    mutable std::vector<double> moduleEnergy_; ///< [module * kLanes + lane]
    /// @}
    uint64_t cycle_ = 0;
};

} // namespace ulpeak

#endif // ULPEAK_SIM_PACKED_SIMULATOR_HH

#include "sim/simulator.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace ulpeak {

namespace {

/**
 * Algorithm-2 pricing of an active gate by its (previous, current)
 * value pair, indexed prev * 3 + cur (V4 values 0, 1, X = 2): the
 * FlatNetlist::transE column, whether the pair bills bound energy at
 * all, and whether it is a concrete (actual) toggle. A known p == c
 * pair is an X-propagation flag without a toggle (0); known -> X
 * assigns the X to !p; X -> known assigns the previous X to !c; X -> X
 * takes the cell's maximum-power transition. The scales are exactly
 * 1.0 or 0.0, and adding +0.0 to a non-negative sum leaves it
 * bit-identical, so the unconditional additions equal the per-case
 * branches they replace.
 */
struct EnergySelector {
    uint8_t column;
    double bound;
    double actual;
};
constexpr EnergySelector kEnergySel[9] = {
    {kTransRise, 0.0, 0.0}, // 0 -> 0
    {kTransRise, 1.0, 1.0}, // 0 -> 1
    {kTransRise, 1.0, 0.0}, // 0 -> X
    {kTransFall, 1.0, 1.0}, // 1 -> 0
    {kTransRise, 0.0, 0.0}, // 1 -> 1
    {kTransFall, 1.0, 0.0}, // 1 -> X
    {kTransFall, 1.0, 0.0}, // X -> 0
    {kTransRise, 1.0, 0.0}, // X -> 1
    {kTransMax, 1.0, 0.0},  // X -> X
};

} // namespace

Simulator::Simulator(const Netlist &nl, EvalMode mode)
    : nl_(&nl), flat_(&nl.flat()), truth_(cellTruthTable()), mode_(mode),
      wake_(nl.flat(), nl.seqGates().size())
{
    if (!nl.finalized())
        throw std::logic_error("Simulator requires a finalized netlist");
    size_t n = nl.numGates();
    size_t nseq = nl.seqGates().size();
    val_.assign(n, V4::X);
    prev_.assign(n, V4::X);
    actBits_.assign(bitWords(n), 0);
    actBitsPrev_.assign(bitWords(n), 0);
    loadedPrevEdge_.assign(nseq, 1);
    for (GateId g = 0; g < n; ++g)
        if (nl.gate(g).kind == CellKind::Input)
            inputGates_.push_back(g);
    hookFns_.resize(nl.hooks().size());
    moduleEnergy_.assign(nl.numModules(), 0.0);
}

void
Simulator::setHookFn(uint32_t hook_id, SimFnRef fn)
{
    hookFns_.at(hook_id) = fn;
}

void
Simulator::addEdgeFn(SimFnRef fn)
{
    if (fn)
        edgeFns_.push_back(fn);
}

Simulator::SweepView
Simulator::sweepView()
{
    return {flat_->records.data(),
            truth_,
            val_.data(),
            prev_.data(),
            actBits_.data(),
            actBitsPrev_.data(),
            staticPruneActive() ? pruneMask_->data() : nullptr,
            flat_->seqWakeBase,
            wake_.marks()};
}

inline void
Simulator::markFanouts(const SweepView &v, FanoutRange r,
                       bool value_changed)
{
    // An active gate wakes its flop consumers for the next edge and
    // its combinational consumers for this cycle. A combinational
    // consumer must re-evaluate when a fanin's value changed. When the
    // fanin is merely X-active (value held), only X-valued consumers
    // can be affected: a known-valued consumer of unchanged fanins
    // recomputes the same known value and stays inactive (Section
    // 3.1's X rule applies to X outputs only).
    if (value_changed) {
        v.wake.markFanouts(r);
        return;
    }
    // Flop bits always, gate bits if the consumer is X (a flop bit
    // reads a harmless in-range dummy value).
    v.wake.markFanoutsIf(r, [&](uint32_t w) {
        bool seq = w >= v.seqWakeBase;
        return seq | (v.val[v.rec[seq ? 0 : w].node] == V4::X);
    });
}

void
Simulator::setStaticPrune(
    std::shared_ptr<const std::vector<uint8_t>> mask,
    uint64_t engage_cycle)
{
    if (mask && mask->size() != nl_->numGates())
        throw std::logic_error(
            "static prune mask size != gate count");
    pruneMask_ = std::move(mask);
    pruneEngage_ = engage_cycle;
    pruneDisabled_ = false;
    unprunedRuns_.clear();
    if (!pruneMask_)
        return;
    const std::vector<uint8_t> &m = *pruneMask_;
    for (uint32_t g = 0; g < m.size();) {
        if (m[g]) {
            ++g;
            continue;
        }
        uint32_t begin = g;
        while (g < m.size() && !m[g])
            ++g;
        unprunedRuns_.push_back({begin, g});
    }
}

void
Simulator::setInput(GateId g, V4 v)
{
    assert(nl_->gate(g).kind == CellKind::Input);
    if (pruneMask_ && !pruneDisabled_ && (*pruneMask_)[g] &&
        cycle_ >= pruneEngage_) {
        if (val_[g] == v)
            return; // settled pinned input: provably no event
        // Out-of-contract drive of a proven-constant input: fall
        // back to unpruned operation rather than go unsound.
        pruneDisabled_ = true;
    }
    if (mode_ == EvalMode::EventDriven) {
        // A changed value must wake consumers immediately: when the
        // call happens between steps (legal per the API), the next
        // prologue copies val_ into prev_, so the input itself
        // evaluates as unchanged and would never propagate the edit.
        if (val_[g] != v)
            wake_.markFanouts(flat_->fanoutsOf(g));
        wake_.markNode(g);
    }
    val_[g] = v;
}

void
Simulator::setInputBus(const std::vector<GateId> &bus, Word16 w)
{
    for (size_t i = 0; i < bus.size(); ++i)
        setInput(bus[i], w.bit(unsigned(i)));
}

void
Simulator::forceValue(GateId g, V4 v)
{
    // Forcing a masked gate off its proven constant voids the static
    // analysis: disable pruning rather than go unsound (the symbolic
    // engine only ever forces PC / register flops, never masked
    // gates).
    if (pruneMask_ && !pruneDisabled_ && (*pruneMask_)[g] &&
        val_[g] != v && cycle_ >= pruneEngage_)
        pruneDisabled_ = true;
    // Forcing a scheduled combinational gate cannot work in either
    // kernel (the full sweep would recompute it from its fanins,
    // discarding the force): only sequential outputs and Input-kind
    // gates hold forced values.
    assert(flat_->seqIndexOf[g] != UINT32_MAX ||
           nl_->gate(g).kind == CellKind::Input);
    if (mode_ == EvalMode::EventDriven && val_[g] != v) {
        wake_.markFanouts(flat_->fanoutsOf(g));
        // A forced flop's own next-edge evaluation reads the forced
        // q; a forced input must re-derive its activity flag like a
        // driver-set one.
        if (flat_->seqIndexOf[g] != UINT32_MAX)
            wake_.markSeq(flat_->seqIndexOf[g]);
        else
            wake_.markNode(g);
    }
    val_[g] = v;
}

void
Simulator::forceBus(const std::vector<GateId> &bus, Word16 w)
{
    for (size_t i = 0; i < bus.size(); ++i)
        forceValue(bus[i], w.bit(unsigned(i)));
}

bool
Simulator::injectSeuFlip(GateId g)
{
    // Sequential state only: a flipped combinational gate would be
    // recomputed from its fanins by the very next sweep, discarding
    // the flip (same reasoning as forceValue).
    uint32_t si = flat_->seqIndexOf[g];
    assert(si != UINT32_MAX);
    // An upset can ripple into a proven-constant cone (the proof
    // assumed fault-free operation), so any injection permanently
    // disables pruning for this simulator. Fault campaigns never
    // install masks; this is the defensive backstop.
    if (pruneMask_)
        pruneDisabled_ = true;
    V4 cur = val_[g];
    if (cur == V4::X)
        return false;
    val_[g] = (cur == V4::One) ? V4::Zero : V4::One;
    // The upset is a real output transition this cycle. If it flips
    // the flop back to its pre-edge value the known->known p == c rule
    // in accumulateEnergy bills no transition energy -- the flag then
    // only feeds X-propagation, exactly like a glitchless hold.
    setBit(actBits_.data(), g); // sweepEvent seeds from the bitset
    if (mode_ == EvalMode::EventDriven) {
        wake_.markFanouts(flat_->fanoutsOf(g));
        // The flipped q feeds this flop's own next-edge evaluation.
        wake_.markSeq(si);
    }
    return true;
}

Word16
Simulator::readBus(const std::vector<GateId> &bus) const
{
    Word16 w;
    for (size_t i = 0; i < bus.size(); ++i)
        w.setBit(unsigned(i), val_[bus[i]]);
    return w;
}

void
Simulator::addBehavioralEnergyJ(double j, ModuleId top_module)
{
    actualEnergy_ += j;
    boundEnergy_ += j;
    behavioralEnergy_ += j;
    moduleEnergy_[top_module] += j;
}

namespace {

/** The values of record @p r's fanins, two bits each, with pins
 *  past the cell's arity masked to 0: the offset into its
 *  cellTruthTable() row. It reads four pins whatever the arity (the
 *  pads repeat pin 0), so no loop trip count or branch depends on the
 *  arity. */
inline unsigned
packPins(const NodeRecord &r, const V4 *vals)
{
    unsigned idx = unsigned(vals[r.in[0]]) | unsigned(vals[r.in[1]]) << 2 |
                   unsigned(vals[r.in[2]]) << 4 |
                   unsigned(vals[r.in[3]]) << 6;
    return idx & r.pinMask;
}

} // namespace

template <bool kEvent>
inline void
Simulator::evalSeq(uint32_t i)
{
    GateId g = nl_->seqGates()[i];
    const Gate &gate = nl_->gate(g);
    V4 ins[3];
    for (unsigned p = 0; p < gate.nin; ++p)
        ins[p] = prev_[gate.in[p]];
    SeqEdge<V4> e = evalSeqEdge(gate.kind, prev_[g], ins,
                                loadedPrevEdge_[i] != 0,
                                testBit(actBitsPrev_.data(), gate.in[0]));
    val_[g] = e.next;
    if (e.active) {
        setBit(actBits_.data(), g);
        if (kEvent)
            wake_.markSeq(i); // wake rule (b), see WakeQueue
    }
    loadedPrevEdge_[i] = e.held ? 0 : 1;
}

void
Simulator::updateSequential()
{
    if (mode_ == EvalMode::FullSweep) {
        for (uint32_t i = 0; i < nl_->seqGates().size(); ++i)
            evalSeq<false>(i);
        return;
    }
    forEachBit(wake_.takeDue(), [&](uint32_t i) { evalSeq<true>(i); });
}

template <bool kEvent>
inline void
Simulator::evalPos(const SweepView &v, uint32_t pos)
{
    const NodeRecord &r = v.rec[pos];
    const GateId g = r.node;
    // A proven-constant gate (see setStaticPrune) that was inactive
    // last cycle has settled: re-evaluating it would reproduce its
    // value and inactivity, so skipping it is exact. One active last
    // cycle (its settle transition, or pre-engage activity carried in
    // a restored snapshot) is evaluated normally.
    auto pruned = [&] {
        return v.pm && v.pm[g] && !testBit(v.actPrev, g);
    };
    V4 out;
    bool act;
    if (__builtin_expect(r.cls != NodeClass::Logic, 0)) {
        if (r.cls == NodeClass::Hook) {
            runHook(g - flat_->numGates);
            return;
        }
        if (pruned())
            return;
        if (r.cls == NodeClass::Const) {
            v.val[g] = v.truth[r.row];
            return;
        }
        // Input: the value was set by the driver or a hook (or holds
        // over from the previous cycle). An unknown input may toggle
        // at any time, so X counts as active.
        out = v.val[g];
        act = out != v.prev[g] || out == V4::X;
    } else {
        if (pruned())
            return;
        out = v.truth[r.row + packPins(r, v.val)];
        v.val[g] = out;
        act = out != v.prev[g];
        if (!act && out == V4::X) {
            // A held X is active when an active fanin may toggle it
            // (the pads repeat pin 0, so they add nothing).
            act = testBit(v.act, r.in[0]) | testBit(v.act, r.in[1]) |
                  testBit(v.act, r.in[2]) | testBit(v.act, r.in[3]);
        }
    }
    if (act) {
        setBit(v.act, g);
        if (kEvent)
            markFanouts(v, r.fanout, out != v.prev[g]);
    }
}

void
Simulator::runHook(uint32_t hook_id)
{
    // Behavioral hook at its levelized position.
    const SimFnRef &fn = hookFns_[hook_id];
    if (fn)
        fn(*this);
}

void
Simulator::sweepFull()
{
    const SweepView v = sweepView();
    const uint32_t npos = uint32_t(flat_->records.size());
    for (uint32_t pos = 0; pos < npos; ++pos)
        evalPos<false>(v, pos);
}

void
Simulator::sweepEvent()
{
    const FlatNetlist &f = *flat_;
    // Hooks run every cycle: behavioral state (RAM contents) can
    // change between cycles without a netlist-visible event, and hooks
    // bill per-access energy, so skipping them would diverge from the
    // full sweep.
    for (uint32_t hid = 0; hid < f.numHooks; ++hid)
        wake_.markNode(f.numGates + hid);
    // Unknown inputs count as active every cycle (Section 3.1) even
    // when untouched; driver-touched inputs were marked by setInput().
    for (GateId g : inputGates_)
        if (val_[g] == V4::X)
            wake_.markNode(g);
    // Active sequential outputs wake their fanout cones (an inactive
    // sequential gate provably kept its value) and their sequential
    // consumers. actBits_ holds exactly the active sequential gates
    // (including upsets) at this point.
    const SweepView v = sweepView();
    forEachBit(actBits_, [&](GateId g) {
        markFanouts(v, f.fanoutsOf(g), val_[g] != prev_[g]);
    });
    wake_.drain([&](uint32_t pos) { evalPos<true>(v, pos); });
}

void
Simulator::accumulateEnergy()
{
    // Per-cycle energy: concrete transitions (actual) and the
    // Algorithm-2 per-cycle peak assignment (bound), one selector
    // lookup per gate (see kEnergySel), in ascending gate id whatever
    // order the kernel evaluated in, because floating-point sums are
    // order-sensitive: this keeps per-cycle energies bit-identical
    // across kernels. Active gates come in long runs of one module, so
    // the module's sum stays in a register across its run; each sum
    // still sees the same additions in the same order.
    const double *te = flat_->transE.data();
    const V4 *val = val_.data();
    const V4 *prev = prev_.data();
    const ModuleId *moduleOf = flat_->topModuleOf.data();
    double *modE = moduleEnergy_.data();
    double actual = actualEnergy_;
    double bound = boundEnergy_;
    ModuleId m = 0;
    double modSum = modE[0];
    forEachBit(actBits_, [&](GateId g) {
        const EnergySelector &sel =
            kEnergySel[unsigned(prev[g]) * 3 + unsigned(val[g])];
        double e = te[3 * size_t(g) + sel.column];
        if (moduleOf[g] != m) {
            modE[m] = modSum;
            m = moduleOf[g];
            modSum = modE[m];
        }
        actual += e * sel.actual;
        bound += e * sel.bound;
        modSum += e * sel.bound;
    });
    modE[m] = modSum;
    actualEnergy_ = actual;
    boundEnergy_ = bound;
}

void
Simulator::step(SimFnRef driver)
{
    // Commit edge effects (memory writes) of the previous cycle.
    if (cycle_ > 0)
        for (const SimFnRef &fn : edgeFns_)
            fn(*this);

    actBits_.swap(actBitsPrev_);
    std::fill(actBits_.begin(), actBits_.end(), 0);
    prev_ = val_;
    actualEnergy_ = 0.0;
    boundEnergy_ = 0.0;
    behavioralEnergy_ = 0.0;
    std::fill(moduleEnergy_.begin(), moduleEnergy_.end(), 0.0);

    updateSequential();
    if (driver)
        driver(*this);
    if (mode_ == EvalMode::FullSweep) {
        sweepFull();
    } else if (cycle_ == 0) {
        // The first cycle resolves the power-on state (constants leave
        // X, everything is potentially stale): evaluate everything
        // once, then start event-driven from a consistent state. The
        // oblivious sweep records no wake marks, so re-arm every flop.
        sweepFull();
        wake_.clear();
        wake_.armAllSeq();
    } else {
        sweepEvent();
    }

    accumulateEnergy();
    ++cycle_;
}

Simulator::Snapshot
Simulator::snapshot() const
{
    // Captured between steps: actBits_ holds the last stepped cycle's
    // activity, which the next step() reads as the previous cycle's.
    return Snapshot{val_, actBits_, loadedPrevEdge_, cycle_};
}

void
Simulator::checkShape(const Snapshot &s) const
{
    // A foreign snapshot would be copied whole and then indexed by
    // this netlist's gate ids.
    if (s.val.size() != val_.size() ||
        s.activeLast.size() != actBits_.size() ||
        s.loadedPrevEdge.size() != loadedPrevEdge_.size())
        throw std::logic_error(
            "restore from a snapshot of a different netlist");
}

void
Simulator::restore(const Snapshot &s)
{
    checkShape(s);
    // prev_ is deliberately left alone: the next step() rebuilds it
    // from val_ before any read.
    val_ = s.val;
    actBits_ = s.activeLast;
    loadedPrevEdge_ = s.loadedPrevEdge;
    cycle_ = s.cycle;
    afterRestore();
}

namespace {

/** Append (index, new) pairs where @p cur differs from @p base.
 *  Hot path of every delta fork: forks are temporally close to their
 *  base, so almost every element compares equal -- byte elements are
 *  scanned a word at a time, only touching bytes of words that
 *  differ, instead of a branch per element. */
template <typename T>
void
diffInto(const std::vector<T> &cur, const std::vector<T> &base,
         std::vector<uint32_t> &idx, std::vector<T> &out)
{
    if (cur.size() != base.size())
        throw std::logic_error(
            "delta snapshot against a base from a different netlist");
    size_t n = cur.size();
    size_t i = 0;
    if constexpr (sizeof(T) == 1) {
        const auto *a = reinterpret_cast<const uint8_t *>(cur.data());
        const auto *b = reinterpret_cast<const uint8_t *>(base.data());
        for (; i + 8 <= n; i += 8) {
            uint64_t wa, wb;
            std::memcpy(&wa, a + i, 8);
            std::memcpy(&wb, b + i, 8);
            uint64_t d = wa ^ wb;
            while (d) {
                unsigned byte = unsigned(__builtin_ctzll(d)) >> 3;
                idx.push_back(uint32_t(i + byte));
                out.push_back(cur[i + byte]);
                d &= ~(uint64_t(0xff) << (byte * 8));
            }
        }
    }
    for (; i < n; ++i) {
        if (cur[i] != base[i]) {
            idx.push_back(uint32_t(i));
            out.push_back(cur[i]);
        }
    }
}

template <typename T>
void
applyDelta(std::vector<T> &dst, const std::vector<T> &base,
           const std::vector<uint32_t> &idx, const std::vector<T> &v)
{
    dst = base; // capacity reuse: no allocation on repeated restores
    for (size_t i = 0; i < idx.size(); ++i)
        dst[idx[i]] = v[i];
}

/** The state (@p val, @p act, @p lpe, @p cycle) as a delta against
 *  @p base: snapshotDelta and deltaBetween. */
Simulator::DeltaSnapshot
makeDelta(const std::vector<V4> &val, const std::vector<uint64_t> &act,
          const std::vector<uint8_t> &lpe, uint64_t cycle,
          std::shared_ptr<const Simulator::Snapshot> base)
{
    Simulator::DeltaSnapshot d;
    diffInto(val, base->val, d.valIdx, d.valNew);
    diffInto(act, base->activeLast, d.actIdx, d.actNew);
    diffInto(lpe, base->loadedPrevEdge, d.seqIdx, d.seqNew);
    d.cycle = cycle;
    d.base = std::move(base);
    return d;
}

} // namespace

size_t
Simulator::DeltaSnapshot::deltaBytes() const
{
    return valIdx.size() * (sizeof(uint32_t) + sizeof(V4)) +
           actIdx.size() * (sizeof(uint32_t) + sizeof(uint64_t)) +
           seqIdx.size() * (sizeof(uint32_t) + sizeof(uint8_t));
}

size_t
Simulator::bytesOf(const Snapshot &s)
{
    return s.val.size() * sizeof(V4) +
           s.activeLast.size() * sizeof(uint64_t) +
           s.loadedPrevEdge.size();
}

Simulator::DeltaSnapshot
Simulator::snapshotDelta(std::shared_ptr<const Snapshot> base) const
{
    return makeDelta(val_, actBits_, loadedPrevEdge_, cycle_,
                     std::move(base));
}

Simulator::DeltaSnapshot
Simulator::deltaBetween(const Snapshot &cur,
                        std::shared_ptr<const Snapshot> base)
{
    return makeDelta(cur.val, cur.activeLast, cur.loadedPrevEdge,
                     cur.cycle, std::move(base));
}

void
Simulator::restore(const DeltaSnapshot &s)
{
    checkShape(*s.base);
    applyDelta(val_, s.base->val, s.valIdx, s.valNew);
    applyDelta(actBits_, s.base->activeLast, s.actIdx, s.actNew);
    applyDelta(loadedPrevEdge_, s.base->loadedPrevEdge, s.seqIdx,
               s.seqNew);
    cycle_ = s.cycle;
    afterRestore();
}

void
Simulator::afterRestore()
{
    // The restored state carries no wake marks: re-arm every flop.
    // (Stale pending bits are harmless -- evaluating a clean gate
    // reproduces its full-sweep value and activity.)
    if (mode_ == EvalMode::EventDriven)
        wake_.armAllSeq();
}

Simulator::Snapshot
Simulator::materialize(const DeltaSnapshot &s)
{
    Snapshot full;
    applyDelta(full.val, s.base->val, s.valIdx, s.valNew);
    applyDelta(full.activeLast, s.base->activeLast, s.actIdx,
               s.actNew);
    applyDelta(full.loadedPrevEdge, s.base->loadedPrevEdge, s.seqIdx,
               s.seqNew);
    full.cycle = s.cycle;
    return full;
}

V4
Simulator::predictSeqValue(GateId g) const
{
    const Gate &gate = nl_->gate(g);
    V4 ins[3];
    for (unsigned p = 0; p < gate.nin; ++p)
        ins[p] = val_[gate.in[p]];
    bool held = false;
    return evalSeqCell(gate.kind, val_[g], ins, held);
}

uint64_t
Simulator::hashFullState() const
{
    // FNV-1a over everything snapshot() captures (except the cycle
    // counter): two simulators with equal full-state hashes produce
    // identical continuations under identical drivers.
    return hashState(StateBytes{val_.data(), actBits_.data(),
                                loadedPrevEdge_.data(), val_.size(),
                                loadedPrevEdge_.size()},
                     cycle_);
}

uint64_t
Simulator::hashSnapshotState(const Snapshot &s) const
{
    // Same basis rule as hashFullState, with the engage test applied
    // to the snapshot's cycle (the state's own age, not this
    // simulator's).
    return hashState(StateBytes{s.val.data(), s.activeLast.data(),
                                s.loadedPrevEdge.data(), s.val.size(),
                                s.loadedPrevEdge.size()},
                     s.cycle);
}

} // namespace ulpeak

#include "sim/packed_simulator.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "cell/cell_library.hh"

namespace ulpeak {

namespace {

/** Lane-exact packed mirror of evalCell (cell_library.cc): the same
 *  op composition per kind, over V64 planes instead of one V4. */
V64
packedEvalCell(CellKind k, const V64 *in)
{
    switch (k) {
      case CellKind::Const0:
        return V64::splat(V4::Zero);
      case CellKind::Const1:
        return V64::splat(V4::One);
      case CellKind::Buf:
        return in[0];
      case CellKind::Inv:
        return v64Not(in[0]);
      case CellKind::And2:
        return v64And(in[0], in[1]);
      case CellKind::And3:
        return v64And(v64And(in[0], in[1]), in[2]);
      case CellKind::And4:
        return v64And(v64And(in[0], in[1]), v64And(in[2], in[3]));
      case CellKind::Or2:
        return v64Or(in[0], in[1]);
      case CellKind::Or3:
        return v64Or(v64Or(in[0], in[1]), in[2]);
      case CellKind::Or4:
        return v64Or(v64Or(in[0], in[1]), v64Or(in[2], in[3]));
      case CellKind::Nand2:
        return v64Not(v64And(in[0], in[1]));
      case CellKind::Nand3:
        return v64Not(v64And(v64And(in[0], in[1]), in[2]));
      case CellKind::Nand4:
        return v64Not(
            v64And(v64And(in[0], in[1]), v64And(in[2], in[3])));
      case CellKind::Nor2:
        return v64Not(v64Or(in[0], in[1]));
      case CellKind::Nor3:
        return v64Not(v64Or(v64Or(in[0], in[1]), in[2]));
      case CellKind::Nor4:
        return v64Not(v64Or(v64Or(in[0], in[1]), v64Or(in[2], in[3])));
      case CellKind::Xor2:
        return v64Xor(in[0], in[1]);
      case CellKind::Xnor2:
        return v64Not(v64Xor(in[0], in[1]));
      case CellKind::Mux2:
        return v64Mux(in[2], in[0], in[1]);
      case CellKind::Aoi21:
        return v64Not(v64Or(v64And(in[0], in[1]), in[2]));
      case CellKind::Oai21:
        return v64Not(v64And(v64Or(in[0], in[1]), in[2]));
      case CellKind::Aoi22:
        return v64Not(
            v64Or(v64And(in[0], in[1]), v64And(in[2], in[3])));
      case CellKind::Oai22:
        return v64Not(
            v64And(v64Or(in[0], in[1]), v64Or(in[2], in[3])));
      default:
        assert(false && "packedEvalCell on non-combinational kind");
        return V64::allX();
    }
}

} // namespace

PackedSimulator::PackedSimulator(const Netlist &nl)
    : nl_(&nl), flat_(&nl.flat())
{
    if (!nl.finalized())
        throw std::logic_error(
            "PackedSimulator requires a finalized netlist");
    size_t n = nl.numGates();
    valV_.assign(n, 0);
    valK_.assign(n, 0);
    prevV_.assign(n, 0);
    prevK_.assign(n, 0);
    act_.assign(n, 0);
    actPrev_.assign(n, 0);
    loadedPrevEdge_.assign(nl.seqGates().size(), ~uint64_t(0));
    topModuleOf_.resize(n);
    for (GateId g = 0; g < n; ++g)
        topModuleOf_[g] = nl.topLevelModuleOf(nl.gate(g).module);
    hookFns_.resize(nl.hooks().size());
    moduleEnergy_.assign(size_t(nl.numModules()) * kLanes, 0.0);
}

void
PackedSimulator::setHookFn(uint32_t hook_id, HookFn fn)
{
    hookFns_.at(hook_id) = std::move(fn);
}

void
PackedSimulator::addEdgeFn(EdgeFn fn)
{
    edgeFns_.push_back(std::move(fn));
}

void
PackedSimulator::setInput(GateId g, V64 v)
{
    assert(flat_->kind[g] == CellKind::Input);
    valV_[g] = v.v;
    valK_[g] = v.k;
}

void
PackedSimulator::setInputLane(GateId g, unsigned lane, V4 v)
{
    V64 cur = value(g);
    cur.setLane(lane, v);
    setInput(g, cur);
}

uint64_t
PackedSimulator::injectSeuFlip(GateId g, uint64_t lane_mask)
{
    assert(isSequential(flat_->kind[g]));
    V64 q = value(g);
    uint64_t m = q.flipKnown(lane_mask);
    valV_[g] = q.v;
    // An upset is a real output transition in its lane; the packed
    // oblivious sweep re-evaluates every fanout anyway, so no wake
    // marks are needed (unlike the scalar event-driven kernel).
    act_[g] |= m;
    return m;
}

void
PackedSimulator::setInputBusAll(const std::vector<GateId> &bus,
                                Word16 w)
{
    for (size_t i = 0; i < bus.size(); ++i)
        setInput(bus[i], V64::splat(w.bit(unsigned(i))));
}

void
PackedSimulator::setInputBusLanes(const std::vector<GateId> &bus,
                                  const std::array<Word16, kLanes> &lanes)
{
    for (size_t i = 0; i < bus.size(); ++i) {
        uint64_t bit = uint64_t(1) << i;
        V64 v;
        for (unsigned l = 0; l < kLanes; ++l) {
            uint64_t m = uint64_t(1) << l;
            if (lanes[l].xmask & bit)
                continue; // lane stays X
            v.k |= m;
            if (lanes[l].value & bit)
                v.v |= m;
        }
        setInput(bus[i], v);
    }
}

Word16
PackedSimulator::readBusLane(const std::vector<GateId> &bus,
                             unsigned lane) const
{
    Word16 w;
    for (size_t i = 0; i < bus.size(); ++i)
        w.setBit(unsigned(i), valueLane(bus[i], lane));
    return w;
}

std::vector<double>
PackedSimulator::moduleBoundEnergyLaneJ(unsigned lane) const
{
    size_t nmod = moduleEnergy_.size() / kLanes;
    std::vector<double> out(nmod);
    for (size_t m = 0; m < nmod; ++m)
        out[m] = moduleEnergy_[m * kLanes + lane];
    return out;
}

void
PackedSimulator::addBehavioralEnergyJ(double j, ModuleId top_module,
                                      uint64_t lane_mask)
{
    double *modrow = &moduleEnergy_[size_t(top_module) * kLanes];
    while (lane_mask) {
        unsigned l = unsigned(__builtin_ctzll(lane_mask));
        lane_mask &= lane_mask - 1;
        actual_[l] += j;
        bound_[l] += j;
        behavioral_[l] += j;
        modrow[l] += j;
    }
}

void
PackedSimulator::evalSeqGate(size_t i)
{
    const FlatNetlist &f = *flat_;
    GateId g = nl_->seqGates()[i];
    uint32_t off = f.faninOffset[g];
    unsigned nin = f.nin[g];
    uint64_t qv = prevV_[g], qk = prevK_[g];
    uint64_t dv = prevV_[f.fanin[off]], dk = prevK_[f.fanin[off]];
    // Absent pins behave as constant 1 (enable on, reset released),
    // exactly like evalSeqCell's defaults.
    uint64_t env = ~uint64_t(0), enk = ~uint64_t(0);
    uint64_t rv = ~uint64_t(0), rk = ~uint64_t(0);
    switch (f.kind[g]) {
      case CellKind::Dff:
        break;
      case CellKind::Dffe:
        env = prevV_[f.fanin[off + 1]];
        enk = prevK_[f.fanin[off + 1]];
        break;
      case CellKind::Dffr:
        rv = prevV_[f.fanin[off + 1]];
        rk = prevK_[f.fanin[off + 1]];
        break;
      case CellKind::Dffre:
        env = prevV_[f.fanin[off + 1]];
        enk = prevK_[f.fanin[off + 1]];
        rv = prevV_[f.fanin[off + 2]];
        rk = prevK_[f.fanin[off + 2]];
        break;
      default:
        assert(false && "evalSeqGate on non-sequential kind");
        return;
    }

    // Enable stage (evalSeqCell): en==1 loads d, en==0 provably holds
    // q, en==X resolves only where q and d are known-equal (and then
    // the hold is provable too).
    uint64_t en1 = env; // canonical: v subset of k
    uint64_t en0 = enk & ~env;
    uint64_t enx = ~enk;
    uint64_t agree = qk & dk & ~(qv ^ dv);
    uint64_t loadedK = (en1 & dk) | (en0 & qk) | (enx & agree);
    uint64_t loadedV = (en1 & dv) | (en0 & qv) | (enx & agree & qv);
    uint64_t held = en0 | (enx & agree);

    // Reset stage: rstn==0 clears (provable hold only if q was already
    // 0); rstn==X yields 0 only where the loaded value is 0, and never
    // proves a hold.
    uint64_t r1 = rv;
    uint64_t r0 = rk & ~rv;
    uint64_t rx = ~rk;
    uint64_t newV = r1 & loadedV;
    uint64_t newK = (r1 & loadedK) | r0 | (rx & loadedK & ~loadedV);
    held = (r1 & held) | (r0 & qk & ~qv);

    valV_[g] = newV;
    valK_[g] = newK;

    // Activity (evalSeqGate in simulator.cc, per lane): held lanes are
    // inactive; known->known lanes toggle on value change; lanes
    // involving X may have toggled unless the previous edge loaded,
    // no control pin is X, the D pin was inactive and knownness is
    // unchanged.
    uint64_t bothKnown = newK & qk;
    uint64_t actKnown = bothKnown & (newV ^ qv);
    uint64_t ctrlX = 0;
    for (unsigned p = 1; p < nin; ++p)
        ctrlX |= ~prevK_[f.fanin[off + p]];
    uint64_t xTerm = ~loadedPrevEdge_[i] | ctrlX |
                     actPrev_[f.fanin[off]] | (newK ^ qk);
    act_[g] = ~held & (actKnown | (~bothKnown & xTerm));
    loadedPrevEdge_[i] = ~held;
}

void
PackedSimulator::evalNode(uint32_t node)
{
    const FlatNetlist &f = *flat_;
    if (node >= f.numGates) {
        HookFn &fn = hookFns_[node - f.numGates];
        if (fn)
            fn(*this);
        return;
    }
    GateId g = node;
    switch (f.kind[g]) {
      case CellKind::Const0:
        valV_[g] = 0;
        valK_[g] = ~uint64_t(0);
        act_[g] = 0;
        return;
      case CellKind::Const1:
        valV_[g] = ~uint64_t(0);
        valK_[g] = ~uint64_t(0);
        act_[g] = 0;
        return;
      case CellKind::Input: {
        // Changed lanes are active; X lanes may toggle at any time.
        uint64_t diff =
            (valV_[g] ^ prevV_[g]) | (valK_[g] ^ prevK_[g]);
        act_[g] = diff | ~valK_[g];
        return;
      }
      default:
        break;
    }

    V64 ins[4];
    uint64_t faninAct = 0;
    uint32_t off = f.faninOffset[g];
    unsigned nin = f.nin[g];
    for (unsigned p = 0; p < nin; ++p) {
        GateId src = f.fanin[off + p];
        ins[p] = V64(valV_[src], valK_[src]);
        faninAct |= act_[src];
    }
    V64 v = packedEvalCell(f.kind[g], ins);
    valV_[g] = v.v;
    valK_[g] = v.k;
    uint64_t diff = (v.v ^ prevV_[g]) | (v.k ^ prevK_[g]);
    act_[g] = diff | (~v.k & faninAct);
}

void
PackedSimulator::accumulateEnergy()
{
    // Ascending gate id, one energy term per active lane per gate:
    // lane l's accumulation order equals the scalar kernel's
    // canonicalized active-list order, so the float sums match bit
    // for bit.
    const FlatNetlist &f = *flat_;
    for (GateId g = 0; g < f.numGates; ++g) {
        uint64_t a = act_[g];
        if (!a)
            continue;
        uint64_t pv = prevV_[g], pk = prevK_[g];
        uint64_t cv = valV_[g], ck = valK_[g];
        double riseE = nl_->riseEnergyJ(g);
        double fallE = nl_->fallEnergyJ(g);
        double *modrow =
            &moduleEnergy_[size_t(topModuleOf_[g]) * kLanes];

        // Known->known toggles: concrete transition (actual + bound).
        // Equal known-known lanes are X-propagation flags only.
        uint64_t m = a & pk & ck & (pv ^ cv);
        while (m) {
            unsigned l = unsigned(__builtin_ctzll(m));
            m &= m - 1;
            double e = ((cv >> l) & 1) ? riseE : fallE;
            actual_[l] += e;
            bound_[l] += e;
            modrow[l] += e;
        }
        // Known prev, X cur: assign the X to !p.
        m = a & pk & ~ck;
        while (m) {
            unsigned l = unsigned(__builtin_ctzll(m));
            m &= m - 1;
            double e = ((pv >> l) & 1) ? fallE : riseE;
            bound_[l] += e;
            modrow[l] += e;
        }
        // X prev, known cur: assign the previous X to !c.
        m = a & ~pk & ck;
        while (m) {
            unsigned l = unsigned(__builtin_ctzll(m));
            m &= m - 1;
            double e = ((cv >> l) & 1) ? riseE : fallE;
            bound_[l] += e;
            modrow[l] += e;
        }
        // Both unknown: the cell's maximum-power transition.
        m = a & ~pk & ~ck;
        if (m) {
            double e = nl_->maxEnergyJ(g);
            while (m) {
                unsigned l = unsigned(__builtin_ctzll(m));
                m &= m - 1;
                bound_[l] += e;
                modrow[l] += e;
            }
        }
    }
}

void
PackedSimulator::step(
    const std::function<void(PackedSimulator &)> &driver)
{
    if (cycle_ > 0)
        for (auto &fn : edgeFns_)
            fn(*this);

    actPrev_ = act_;
    prevV_ = valV_;
    prevK_ = valK_;
    actual_.fill(0.0);
    bound_.fill(0.0);
    behavioral_.fill(0.0);
    std::fill(moduleEnergy_.begin(), moduleEnergy_.end(), 0.0);

    for (size_t i = 0; i < nl_->seqGates().size(); ++i)
        evalSeqGate(i);
    if (driver)
        driver(*this);
    for (uint32_t node : flat_->schedule)
        evalNode(node);

    accumulateEnergy();
    ++cycle_;
}

uint64_t
PackedSimulator::hashLaneState(unsigned lane) const
{
    // Per lane, byte for byte what Simulator::hashFullState mixes:
    // values, the zero-padded activity flags, load history.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint8_t b) {
        h ^= b;
        h *= 0x100000001b3ull;
    };
    size_t n = valV_.size();
    for (size_t g = 0; g < n; ++g)
        mix(uint8_t(V64(valV_[g], valK_[g]).lane(lane)));
    size_t padded = (n + 7) & ~size_t(7);
    for (size_t g = 0; g < padded; ++g)
        mix(g < n ? uint8_t((act_[g] >> lane) & 1) : uint8_t(0));
    for (size_t i = 0; i < loadedPrevEdge_.size(); ++i)
        mix(uint8_t((loadedPrevEdge_[i] >> lane) & 1));
    return h;
}

void
PackedSimulator::loadLaneState(unsigned lane,
                               const Simulator::Snapshot &s)
{
    size_t n = valV_.size();
    if (s.val.size() != n)
        throw std::logic_error(
            "loadLaneState from a snapshot of a different netlist");
    uint64_t m = uint64_t(1) << lane;
    for (size_t g = 0; g < n; ++g) {
        V4 v = s.val[g];
        if (v == V4::X) {
            valV_[g] &= ~m;
            valK_[g] &= ~m;
        } else {
            valK_[g] |= m;
            if (v == V4::One)
                valV_[g] |= m;
            else
                valV_[g] &= ~m;
        }
        if (s.activeLast[g])
            act_[g] |= m;
        else
            act_[g] &= ~m;
    }
    for (size_t i = 0; i < loadedPrevEdge_.size(); ++i) {
        if (s.loadedPrevEdge[i])
            loadedPrevEdge_[i] |= m;
        else
            loadedPrevEdge_[i] &= ~m;
    }
}

Simulator::Snapshot
PackedSimulator::extractLaneState(unsigned lane, uint64_t cycle) const
{
    Simulator::Snapshot s;
    size_t n = valV_.size();
    s.val.resize(n);
    for (size_t g = 0; g < n; ++g)
        s.val[g] = V64(valV_[g], valK_[g]).lane(lane);
    // The scalar active_ array is zero-padded to a whole number of
    // words for the word-at-a-time delta diff; emit the same shape so
    // the transpose round-trips byte for byte.
    s.activeLast.assign((n + 7) & ~size_t(7), 0);
    for (size_t g = 0; g < n; ++g)
        s.activeLast[g] = uint8_t((act_[g] >> lane) & 1);
    s.loadedPrevEdge.resize(loadedPrevEdge_.size());
    for (size_t i = 0; i < loadedPrevEdge_.size(); ++i)
        s.loadedPrevEdge[i] =
            uint8_t((loadedPrevEdge_[i] >> lane) & 1);
    s.cycle = cycle;
    return s;
}

void
PackedSimulator::forceLane(GateId g, unsigned lane, V4 v)
{
    // Same restriction as Simulator::forceValue: a scheduled
    // combinational gate would be recomputed by the next sweep.
    assert(isSequential(flat_->kind[g]) ||
           flat_->kind[g] == CellKind::Input);
    uint64_t m = uint64_t(1) << lane;
    if (v == V4::X) {
        valV_[g] &= ~m;
        valK_[g] &= ~m;
    } else {
        valK_[g] |= m;
        if (v == V4::One)
            valV_[g] |= m;
        else
            valV_[g] &= ~m;
    }
}

void
PackedSimulator::forceBusLane(const std::vector<GateId> &bus,
                              unsigned lane, Word16 w)
{
    for (size_t i = 0; i < bus.size(); ++i)
        forceLane(bus[i], lane, w.bit(unsigned(i)));
}

V4
PackedSimulator::predictSeqValueLane(GateId g, unsigned lane) const
{
    const FlatNetlist &f = *flat_;
    uint32_t off = f.faninOffset[g];
    V4 ins[3];
    for (unsigned p = 0; p < f.nin[g]; ++p)
        ins[p] = valueLane(f.fanin[off + p], lane);
    bool held = false;
    return evalSeqCell(f.kind[g], valueLane(g, lane), ins, held);
}

} // namespace ulpeak

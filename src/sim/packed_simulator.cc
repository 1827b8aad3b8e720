#include "sim/packed_simulator.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "cell/cell_library.hh"
#include "sim/bitset.hh"

namespace ulpeak {

namespace {

/**
 * Algorithm-2 pricing classes of an active gate, per lane, from its
 * previous (pv, pk) and current (cv, ck) planes -- the packed form of
 * the scalar kernel's (prev, cur) selector: a known toggle or a known
 * value against an X bills the transition that ends (or starts) at the
 * known value, X -> X bills the cell's maximum, and a known p == c
 * lane (an X-propagation flag) bills nothing.
 */
struct PriceMasks {
    uint64_t rise, fall, max;
};

inline PriceMasks
priceMasks(uint64_t a, uint64_t pv, uint64_t pk, uint64_t cv, uint64_t ck)
{
    // Canonical planes: pv is a subset of pk, cv of ck.
    return {a & ((pk & ~pv & (cv | ~ck)) | (~pk & cv)),
            a & ((pv & ~cv) | (~pk & ck & ~cv)), a & ~pk & ~ck};
}

/**
 * The lane <-> bus-bit transpose of setInputBusLanes and readBusLanes,
 * an involution. Row l < 32 holds lane l's known bits (low half-word)
 * and value bits (high half-word) in its low 32 bits, lane l + 32's
 * in its high 32 bits; after the transpose, row c holds column c
 * across the lanes -- the known plane of bus bit c for c < 16, its
 * value plane at c + 16 -- and back. Lanes 0-31 and 32-63 ride the
 * low and high halves of each word, two 32x32 transposes at once:
 * five rounds of block swaps instead of a branch per lane and bit.
 */
void
transposeLanes(uint64_t (&row)[32])
{
    static constexpr uint64_t kMask[] = {
        0x0000ffff0000ffffull, 0x00ff00ff00ff00ffull,
        0x0f0f0f0f0f0f0f0full, 0x3333333333333333ull,
        0x5555555555555555ull};
    for (unsigned round = 0, j = 16; j; ++round, j >>= 1)
        for (unsigned r = 0; r < 32; r = (r + j + 1) & ~j) {
            // Swap the upper-right and lower-left j x j blocks.
            uint64_t t = ((row[r] >> j) ^ row[r + j]) & kMask[round];
            row[r + j] ^= t;
            row[r] ^= t << j;
        }
}

/** Smaller classes are priced lane by lane: a class costs a check per
 *  gate, which pays only when it saves several adds. On the grouped
 *  5-preset matrix a floor of 4 cost 11% more cycles in the bound walk
 *  than 8 (classes of 4-7 lanes split apart within a walk there). */
constexpr unsigned kMinClassLanes = 8;

/**
 * The lane classes of one bound walk (PackedSimulator::priceBound):
 * each class is a set of lanes whose sums are bit-equal so far, held
 * in one accumulator; every other lane is single and sums in its own
 * slot of the bound array.
 */
struct LaneClasses {
    struct Class {
        uint64_t lanes;
        double acc;
    };
    Class cls[PackedSimulator::kLanes / kMinClassLanes];
    unsigned n = 0;
    uint64_t single = ~uint64_t(0);

    /** Start the walk: the lanes of @p live whose sums in @p bound
     *  (the last walk's) were bit-equal form a class at 0.0 when
     *  there are kMinClassLanes of them. Only a hint -- every lane
     *  starts at 0.0, and bill() keeps each class exact -- found by
     *  one hash pass over the lanes. */
    void
    group(const double *bound, uint64_t live)
    {
        if (unsigned(__builtin_popcountll(live)) < kMinClassLanes)
            return;
        // Open addressing over 128 slots; a slot is read only once its
        // occupancy bit is set, so the table is never cleared.
        struct Slot {
            uint64_t bits, lanes;
        };
        Slot table[128];
        uint64_t occupied[2] = {0, 0};
        uint8_t used[64];
        unsigned nused = 0;
        for (uint64_t b = live; b; b &= b - 1) {
            unsigned l = unsigned(__builtin_ctzll(b));
            uint64_t bits;
            std::memcpy(&bits, &bound[l], sizeof bits);
            unsigned h = unsigned((bits * 0x9e3779b97f4a7c15ull) >> 57);
            for (;; h = (h + 1) & 127) {
                uint64_t &occ = occupied[h >> 6];
                const uint64_t bit = uint64_t(1) << (h & 63);
                if (!(occ & bit)) {
                    occ |= bit;
                    table[h] = {bits, 0};
                    used[nused++] = uint8_t(h);
                    break;
                }
                if (table[h].bits == bits)
                    break;
            }
            table[h].lanes |= uint64_t(1) << l;
        }
        for (unsigned i = 0; i < nused; ++i) {
            uint64_t lanes = table[used[i]].lanes;
            if (unsigned(__builtin_popcountll(lanes)) >= kMinClassLanes) {
                cls[n++] = {lanes, 0.0};
                single &= ~lanes;
            }
        }
    }

    /** Bill term t[k] to the class lanes of mask m[k] (the masks are
     *  disjoint): a class wholly inside one mask, or outside all of
     *  them, adds once; a class that straddles splits. */
    void
    bill(const uint64_t (&m)[3], const double *t, double *bound)
    {
        const uint64_t any = m[0] | m[1] | m[2];
        // Adding +0.0 leaves an accumulator as it is (it is never
        // -0.0), so the pick below is branch-free.
        const double tt[4] = {t[0], t[1], t[2], 0.0};
        // Descending, so parts appended by a split are not billed twice.
        for (unsigned c = n; c-- > 0;) {
            const uint64_t lanes = cls[c].lanes;
            unsigned k = (m[0] & lanes) == lanes   ? 0
                         : (m[1] & lanes) == lanes ? 1
                         : (m[2] & lanes) == lanes ? 2
                         : (any & lanes) == 0      ? 3
                                                   : 4;
            if (__builtin_expect(k == 4, 0))
                split(c, m, any, t, bound);
            else
                cls[c].acc += tt[k];
        }
    }

    /** Class c straddles the masks: each part carries the accumulator
     *  plus its own term (a part outside every mask, the accumulator
     *  alone). A part under kMinClassLanes turns single; the first
     *  other one keeps slot c, and the rest are appended. */
    [[gnu::noinline]] void
    split(unsigned c, const uint64_t (&m)[3], uint64_t any,
          const double *t, double *bound)
    {
        const Class from = cls[c];
        const uint64_t parts[4] = {m[0] & from.lanes, m[1] & from.lanes,
                                   m[2] & from.lanes, from.lanes & ~any};
        bool kept = false;
        for (unsigned k = 0; k < 4; ++k) {
            uint64_t p = parts[k];
            if (!p)
                continue;
            const double v = k < 3 ? from.acc + t[k] : from.acc;
            if (unsigned(__builtin_popcountll(p)) < kMinClassLanes) {
                single |= p;
                for (; p; p &= p - 1)
                    bound[__builtin_ctzll(p)] = v;
            } else if (!kept) {
                cls[c] = {p, v};
                kept = true;
            } else {
                cls[n++] = {p, v};
            }
        }
        // The last slot is billed already (descending walk).
        if (!kept)
            cls[c] = cls[--n];
    }

    /** Write every class's accumulator to its lanes. */
    void
    finish(double *bound) const
    {
        for (unsigned c = 0; c < n; ++c)
            for (uint64_t b = cls[c].lanes; b; b &= b - 1)
                bound[__builtin_ctzll(b)] = cls[c].acc;
    }
};

} // namespace

PackedSimulator::PackedSimulator(const Netlist &nl)
    : nl_(&nl), flat_(&nl.flat()), wake_(nl.flat(), nl.seqGates().size())
{
    if (!nl.finalized())
        throw std::logic_error(
            "PackedSimulator requires a finalized netlist");
    const FlatNetlist &f = *flat_;
    size_t n = nl.numGates();
    size_t nseq = nl.seqGates().size();
    val_.assign(n, V64::allX());
    prev_.assign(n, V64::allX());
    act_.assign(n, 0);
    dActPrev_.assign(nseq, 0);
    actBits_.assign(bitWords(n), 0);
    actBitsPrev_.assign(bitWords(n), 0);
    loadedPrevEdge_.assign(nseq, ~uint64_t(0));
    always_.assign(f.seqWakeBase / 64, 0);
    for (uint32_t pos = 0; pos < f.records.size(); ++pos) {
        NodeClass c = f.records[pos].cls;
        if (c == NodeClass::Hook || c == NodeClass::Input)
            setBit(always_.data(), pos);
    }
    hookFns_.resize(nl.hooks().size());
    moduleEnergy_.assign(size_t(nl.numModules()) * kLanes, 0.0);
}

void
PackedSimulator::setHookFn(uint32_t hook_id, PackedFnRef fn)
{
    hookFns_.at(hook_id) = fn;
}

void
PackedSimulator::addEdgeFn(PackedFnRef fn)
{
    if (fn)
        edgeFns_.push_back(fn);
}

void
PackedSimulator::writeLive(GateId g, uint64_t v, uint64_t k)
{
    uint64_t live = live_;
    uint64_t nv = (v & live) | (val_[g].v & ~live);
    uint64_t nk = (k & live) | (val_[g].k & ~live);
    if (nv == val_[g].v && nk == val_[g].k)
        return;
    if (stepped_) { // pricing reads this cycle's values
        priceBound();
        priceSplit();
    }
    val_[g].v = nv;
    val_[g].k = nk;
    // A write between steps must reach the consumers now: the next
    // step resyncs the previous-cycle planes from the new value (the
    // bit below), so the gate itself evaluates as unchanged. A forced
    // flop's own next edge reads the forced q.
    setBit(actBits_.data(), g);
    wake_.markFanouts(flat_->fanoutsOf(g));
    if (flat_->seqIndexOf[g] != UINT32_MAX)
        wake_.markSeq(flat_->seqIndexOf[g]);
}

void
PackedSimulator::setInput(GateId g, V64 v)
{
    assert(nl_->gate(g).kind == CellKind::Input);
    writeLive(g, v.v, v.k);
}

uint64_t
PackedSimulator::injectSeuFlip(GateId g, uint64_t lane_mask)
{
    assert(isSequential(nl_->gate(g).kind));
    uint64_t m = lane_mask & live_ & val_[g].k;
    if (!m)
        return 0;
    // An upset is a real output transition in its lane: active now
    // (step() seeds its consumers from the activity bitset after the
    // driver) and read as q by the flop's next edge.
    val_[g].v ^= m;
    act_[g] |= m;
    setBit(actBits_.data(), g);
    wake_.markSeq(flat_->seqIndexOf[g]);
    return m;
}

void
PackedSimulator::setInputBusLanes(const std::vector<GateId> &bus,
                                  const std::array<Word16, kLanes> &lanes)
{
    assert(bus.size() <= 16);
    uint64_t row[32];
    for (unsigned l = 0; l < 32; ++l) {
        auto half = [&](const Word16 &w) {
            uint64_t known = uint16_t(~w.xmask);
            return known | uint64_t(w.value & known) << 16;
        };
        row[l] = half(lanes[l]) | half(lanes[l + 32]) << 32;
    }
    transposeLanes(row);
    for (size_t i = 0; i < bus.size(); ++i)
        setInput(bus[i], V64(row[i + 16], row[i]));
}

std::array<Word16, PackedSimulator::kLanes>
PackedSimulator::readBusLanes(const std::vector<GateId> &bus) const
{
    // setInputBusLanes backwards: planes in, one transpose, words out.
    // Bits past the bus read known 0.
    assert(bus.size() <= 16);
    uint64_t row[32];
    for (size_t i = 0; i < 16; ++i) {
        bool on = i < bus.size();
        row[i] = on ? val_[bus[i]].k : ~uint64_t(0);
        row[i + 16] = on ? val_[bus[i]].v : 0;
    }
    transposeLanes(row);
    std::array<Word16, kLanes> out;
    for (unsigned l = 0; l < 32; ++l) {
        auto word = [](uint64_t half) {
            return Word16(uint16_t(half >> 16), uint16_t(~half));
        };
        out[l] = word(row[l]);
        out[l + 32] = word(row[l] >> 32);
    }
    return out;
}

double
PackedSimulator::actualEnergyJ(unsigned lane) const
{
    priceSplit();
    return actual_[lane];
}

std::vector<double>
PackedSimulator::moduleBoundEnergyLaneJ(unsigned lane) const
{
    priceSplit();
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
    // Pricing replays the bill ahead of the gate terms, which is where
    // the scalar kernel adds it -- as long as it comes from a hook,
    // before step() ends the cycle.
    assert(!stepped_ && "addBehavioralEnergyJ outside a step");
    bills_.push_back({j, top_module, lane_mask & live_});
    boundValid_ = splitValid_ = false;
}

void
PackedSimulator::evalSeqGate(uint32_t i)
{
    GateId g = nl_->seqGates()[i];
    const Gate &gate = nl_->gate(g);
    V64 ins[3];
    for (unsigned p = 0; p < gate.nin; ++p)
        ins[p] = prev_[gate.in[p]];
    V64 q = prev_[g];
    SeqEdge<V64> e = evalSeqEdge(gate.kind, q, ins, loadedPrevEdge_[i],
                                 dActPrev_[i]);
    // Retired lanes do not clock: q and the load history hold.
    uint64_t live = live_;
    val_[g] = V64((e.next.v & live) | (q.v & ~live),
                  (e.next.k & live) | (q.k & ~live));
    uint64_t act = e.active & live;
    act_[g] = act;
    if (act) {
        setBit(actBits_.data(), g);
        wake_.markSeq(i); // wake rule (b), see WakeQueue
    }
    loadedPrevEdge_[i] = (~e.held & live) | (loadedPrevEdge_[i] & ~live);
}

void
PackedSimulator::updateSequential()
{
    // The due flops read their D pin's last-cycle activity before
    // act_ is cleared and before any flop -- possibly another flop's
    // D pin -- overwrites its own entry.
    const GateId *seq = nl_->seqGates().data();
    const std::vector<uint64_t> &due = wake_.takeDue();
    forEachBit(due, [&](uint32_t i) {
        dActPrev_[i] = act_[nl_->gate(seq[i]).in[0]];
    });
    // Last cycle's activity ends here: clearing through its bitset
    // lets skipped gates read as inactive without a whole-array pass.
    forEachBit(actBitsPrev_, [&](GateId g) { act_[g] = 0; });
    forEachBit(due, [&](uint32_t i) { evalSeqGate(i); });
}

PackedSimulator::SweepView
PackedSimulator::sweepView()
{
    return {flat_->records.data(), val_.data(),    prev_.data(),
            act_.data(),           actBits_.data(), live_,
            wake_.marks()};
}

inline void
PackedSimulator::evalPos(const SweepView &v, uint32_t pos)
{
    const NodeRecord &r = v.rec[pos];
    const GateId g = r.node;
    uint64_t a;
    if (__builtin_expect(r.cls != NodeClass::Logic, 0)) {
        if (r.cls == NodeClass::Hook) {
            const PackedFnRef &fn = hookFns_[g - flat_->numGates];
            if (fn)
                fn(*this);
            return;
        }
        if (r.cls == NodeClass::Const) {
            v.val[g] = V64::splat(cellTruthTable()[r.row]);
            return;
        }
        // Input: changed lanes are active; X lanes may toggle at any
        // time.
        a = v.val[g].diffMask(v.prev[g]) | ~v.val[g].k;
    } else {
        // Four pins whatever the arity: the pads repeat pin 0, so
        // they add no activity and evalCell reads only real pins.
        const V64 ins[4] = {v.val[r.in[0]], v.val[r.in[1]],
                            v.val[r.in[2]], v.val[r.in[3]]};
        uint64_t faninAct = v.act[r.in[0]] | v.act[r.in[1]] |
                            v.act[r.in[2]] | v.act[r.in[3]];
        V64 out = evalCell(CellKind(r.row / kPackedFaninStates), ins);
        v.val[g] = out;
        a = out.diffMask(v.prev[g]) | (~out.k & faninAct);
    }
    a &= v.live;
    v.act[g] = a;
    if (a) {
        setBit(v.actBits, g);
        v.wake.markFanouts(r.fanout);
    }
}

void
PackedSimulator::priceBound() const
{
    if (boundValid_)
        return;
    // Each lane sums the scalar kernel's terms in its order: the
    // behavioral bills as they were added, then one term per gate in
    // ascending gate id. Lanes expected to bill alike share one
    // accumulator (a class, see LaneClasses): a class adds a term
    // once when all its lanes bill it, and splits where they differ,
    // so every lane's sum is the same additions in the same order as
    // the scalar sum, whichever accumulator holds it.
    LaneClasses lc;
    lc.group(bound_.data(), live_);
    bound_.fill(0.0);
    // Term t[k] to the single lanes of mask m[k], k < 3. (Indexing
    // bound_ itself rather than a pointer into it measured ~25% faster
    // on 64 live lanes.)
    auto billSingles = [this](const uint64_t(&m)[3], const double *t,
                              uint64_t single) {
        for (uint64_t b = m[0] & single; b; b &= b - 1)
            bound_[__builtin_ctzll(b)] += t[0];
        for (uint64_t b = m[1] & single; b; b &= b - 1)
            bound_[__builtin_ctzll(b)] += t[1];
        for (uint64_t b = m[2] & single; b; b &= b - 1)
            bound_[__builtin_ctzll(b)] += t[2];
    };
    // The walk: the bills in order, then the active gates in ascending
    // gate id; with no class formed every lane is single.
    auto walk = [&](auto &&bill) {
        for (const BehavioralBill &b : bills_) {
            const uint64_t m[3] = {b.lanes, 0, 0};
            const double t[3] = {b.j, 0.0, 0.0};
            bill(m, t);
        }
        static_assert(kTransRise == 0 && kTransFall == 1 &&
                      kTransMax == 2);
        const double *te = flat_->transE.data();
        forEachBit(actBits_, [&](GateId g) {
            uint64_t a = act_[g];
            if (!a)
                return;
            PriceMasks pm = priceMasks(a, prev_[g].v, prev_[g].k,
                                       val_[g].v, val_[g].k);
            const uint64_t m[3] = {pm.rise, pm.fall, pm.max};
            bill(m, te + 3 * size_t(g));
        });
    };
    if (!lc.n) {
        walk([&](const uint64_t(&m)[3], const double *t) {
            billSingles(m, t, ~uint64_t(0));
        });
    } else {
        walk([&](const uint64_t(&m)[3], const double *t) {
            billSingles(m, t, lc.single);
            lc.bill(m, t, bound_.data());
        });
        lc.finish(bound_.data());
    }
    boundValid_ = true;
}

void
PackedSimulator::priceSplit() const
{
    if (splitValid_)
        return;
    // The scalar kernel's order per lane: behavioral bills as they
    // were added, then the gate terms in ascending gate id; a lane's
    // actual energy takes its concrete (known -> known) toggles only.
    actual_.fill(0.0);
    std::fill(moduleEnergy_.begin(), moduleEnergy_.end(), 0.0);
    for (const BehavioralBill &b : bills_) {
        double *modrow = &moduleEnergy_[size_t(b.module) * kLanes];
        for (uint64_t m = b.lanes; m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            actual_[l] += b.j;
            modrow[l] += b.j;
        }
    }
    const double *te = flat_->transE.data();
    forEachBit(actBits_, [&](GateId g) {
        uint64_t a = act_[g];
        if (!a)
            return;
        uint64_t pv = prev_[g].v, pk = prev_[g].k;
        uint64_t cv = val_[g].v, ck = val_[g].k;
        PriceMasks pm = priceMasks(a, pv, pk, cv, ck);
        uint64_t toggled = a & pk & ck & (pv ^ cv);
        const double *e = te + 3 * size_t(g);
        double *modrow =
            &moduleEnergy_[size_t(flat_->topModuleOf[g]) * kLanes];
        auto bill = [&](uint64_t lanes, double j) {
            for (uint64_t m = lanes; m; m &= m - 1) {
                unsigned l = unsigned(__builtin_ctzll(m));
                modrow[l] += j;
                if ((toggled >> l) & 1)
                    actual_[l] += j;
            }
        };
        bill(pm.rise, e[kTransRise]);
        bill(pm.fall, e[kTransFall]);
        bill(pm.max, e[kTransMax]);
    });
    splitValid_ = true;
}

void
PackedSimulator::step(PackedFnRef driver)
{
    if (cycle_ > 0)
        for (const PackedFnRef &fn : edgeFns_)
            fn(*this);

    // Rotate activity: last cycle's bitset moves to actBitsPrev_;
    // updateSequential clears act_ through it.
    actBits_.swap(actBitsPrev_);
    std::fill(actBits_.begin(), actBits_.end(), 0);
    // Previous-cycle planes: only the gates last cycle's bitset covers
    // (evaluated-active or written) can differ from their value.
    if (resyncAll_) {
        prev_ = val_;
        resyncAll_ = false;
    } else {
        forEachBit(actBitsPrev_, [&](GateId g) { prev_[g] = val_[g]; });
    }
    bills_.clear();
    stepped_ = false;
    boundValid_ = splitValid_ = false;

    updateSequential();
    if (driver)
        driver(*this);
    const FlatNetlist &f = *flat_;
    if (cycle_ == 0) {
        // The power-on state is all X and constants have not settled:
        // evaluate everything once, then re-arm every flop. Constants
        // leave X without being active, so every gate resyncs.
        const SweepView v = sweepView();
        for (uint32_t pos = 0; pos < f.records.size(); ++pos)
            evalPos(v, pos);
        wake_.clear();
        wake_.armAllSeq();
        resyncAll_ = true;
    } else {
        // Seed from this edge's active flops (and upsets / writes),
        // plus the nodes that run every cycle, then drain.
        forEachBit(actBits_,
                   [&](GateId g) { wake_.markFanouts(f.fanoutsOf(g)); });
        wake_.markPositions(always_);
        const SweepView v = sweepView();
        wake_.drain([&](uint32_t pos) { evalPos(v, pos); });
    }

    stepped_ = true;
    boundValid_ = splitValid_ = false;
    ++cycle_;
}

void
PackedSimulator::loadLaneState(unsigned lane,
                               const Simulator::Snapshot &s)
{
    size_t n = val_.size();
    if (s.val.size() != n || s.activeLast.size() != actBits_.size() ||
        s.loadedPrevEdge.size() != loadedPrevEdge_.size())
        throw std::logic_error(
            "loadLaneState from a snapshot of a different netlist");
    // Branch-free: a lane load transposes every gate of a snapshot,
    // and the values are as unpredictable as the states they encode.
    uint64_t m = uint64_t(1) << lane;
    for (size_t g = 0; g < n; ++g) {
        uint64_t b = uint64_t(s.val[g]); // Zero 0, One 1, X 2
        val_[g].k = (val_[g].k & ~m) | ((b >> 1 ^ 1) << lane);
        val_[g].v = (val_[g].v & ~m) | ((b & 1) << lane);
    }
    // Activity is nonzero only at gates of the lane-unioned bitset,
    // which the loaded activity joins, so the next step clears it.
    for (size_t w = 0; w < actBits_.size(); ++w) {
        uint64_t loaded = s.activeLast[w];
        for (uint64_t any = actBits_[w] | loaded; any; any &= any - 1) {
            unsigned i = unsigned(__builtin_ctzll(any));
            uint64_t &a = act_[w * 64 + i];
            a = (a & ~m) | (loaded >> i & 1) << lane;
        }
        actBits_[w] |= loaded;
    }
    for (size_t i = 0; i < loadedPrevEdge_.size(); ++i)
        loadedPrevEdge_[i] = (loadedPrevEdge_[i] & ~m) |
                             uint64_t(s.loadedPrevEdge[i] != 0) << lane;
    live_ |= m;
    // Simulator::afterRestore: the loaded state carries no wake marks,
    // so re-arm every flop; every gate's previous-cycle planes resync.
    wake_.armAllSeq();
    resyncAll_ = true;
}

Simulator::Snapshot
PackedSimulator::extractLaneState(unsigned lane, uint64_t cycle) const
{
    const LaneBytes b = laneBytes(lane);
    Simulator::Snapshot s;
    size_t n = b.numGates();
    s.val.resize(n);
    for (size_t g = 0; g < n; ++g)
        s.val[g] = V4(b.val(g));
    s.activeLast.resize(bitWords(n));
    for (size_t w = 0; w < s.activeLast.size(); ++w)
        s.activeLast[w] = b.activeWord(w);
    s.loadedPrevEdge.resize(b.numSeq());
    for (size_t i = 0; i < b.numSeq(); ++i)
        s.loadedPrevEdge[i] = b.loaded(i);
    s.cycle = cycle;
    return s;
}

void
PackedSimulator::copyLane(unsigned from, unsigned to)
{
    // Branch-free masked bit moves over flat word arrays (value plane
    // pairs and per-flop masks alike). Activity is nonzero only at gates of the lane-unioned bitset,
    // and the previous-cycle planes resync at the next step instead
    // of moving here. The copied state is a stepped lane's, so the
    // wake marks and activity bitsets that cover it already cover the
    // copy.
    const uint64_t toBit = uint64_t(1) << to;
    auto move = [from, to, toBit](uint64_t *w, size_t n) {
        for (size_t i = 0; i < n; ++i)
            w[i] = (w[i] & ~toBit) | ((w[i] >> from) & 1) << to;
    };
    static_assert(sizeof(V64) == 2 * sizeof(uint64_t));
    move(&val_[0].v, 2 * val_.size());
    move(dActPrev_.data(), dActPrev_.size());
    move(loadedPrevEdge_.data(), loadedPrevEdge_.size());
    forEachBit(actBits_, [&](GateId g) {
        act_[g] = (act_[g] & ~toBit) | ((act_[g] >> from) & 1) << to;
    });
    resyncAll_ = true;
    live_ |= toBit;
}

void
PackedSimulator::forceLane(GateId g, unsigned lane, V4 v)
{
    // Same restriction as Simulator::forceValue: a scheduled
    // combinational gate would be recomputed by its next evaluation.
    assert(isSequential(nl_->gate(g).kind) ||
           nl_->gate(g).kind == CellKind::Input);
    V64 cur = value(g);
    cur.setLane(lane, v);
    writeLive(g, cur.v, cur.k);
}

void
PackedSimulator::forceBusLane(const std::vector<GateId> &bus,
                              unsigned lane, Word16 w)
{
    for (size_t i = 0; i < bus.size(); ++i)
        forceLane(bus[i], lane, w.bit(unsigned(i)));
}

V64
PackedSimulator::predictSeqValue(GateId g) const
{
    const Gate &gate = nl_->gate(g);
    V64 ins[3];
    for (unsigned p = 0; p < gate.nin; ++p)
        ins[p] = val_[gate.in[p]];
    uint64_t held = 0;
    return evalSeqCell(gate.kind, val_[g], ins, held);
}

} // namespace ulpeak

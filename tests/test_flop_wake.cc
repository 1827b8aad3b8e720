/**
 * @file
 * Exhaustive check of the one-edge flop wake rule (sim/wake_queue.hh)
 * on single flops. For each sequential kind, every pin stimulus over
 * three post-settle cycles runs in the event-driven kernel, the full
 * sweep and a 64-lane PackedSimulator batch; all three must agree
 * every cycle on values, activity, energies and the full-state hash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "sim/packed_simulator.hh"

namespace ulpeak {
namespace {

constexpr unsigned kLanes = PackedSimulator::kLanes;

/** What a flop pin sees in one cycle. An X input is active every
 *  cycle; the held X comes from a flop that never toggles, so it is
 *  active only in the cycle it is switched onto the pin. */
enum Drive : uint8_t { kZero, kOne, kXActive, kXHeld };

constexpr std::array<Drive, 4> kDataDrives = {kZero, kOne, kXActive,
                                              kXHeld};
/** en and rstn take 0, 1 and the held X. An X input is active every
 *  cycle, so it would wake the flop at every edge through rule (a) of
 *  WakeQueue; behind a held X only the flop's own activity, rule (b),
 *  can wake it -- the self-wake under test. */
constexpr std::array<Drive, 3> kCtrlDrives = {kZero, kOne, kXHeld};

/** Enumerated cycles after the settle cycle, and one more that
 *  repeats the last drive, so the edge reading it is checked too. */
constexpr unsigned kSeqCycles = 3;
constexpr unsigned kSteps = 1 + kSeqCycles + 1;

/**
 * One flop of @p kind whose every pin is a Mux2(in, hold, sel): sel 0
 * passes the input (0, 1 or an active X), sel 1 the X of `hold`, a
 * Dffe whose enable is tied low -- held, hence inactive, from cycle 1
 * on. An inverter reads the flop, so its activity reaches a
 * combinational consumer.
 */
struct OneFlop {
    struct Pin {
        GateId in, sel;
    };

    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl{lib};
    std::vector<Pin> pins; ///< d [, en] [, rstn]

    explicit OneFlop(CellKind kind)
    {
        ModuleId m = nl.addModule("flop");
        GateId c0 = nl.addGate(CellKind::Const0, {}, m);
        GateId hold = nl.addGate(CellKind::Dffe, {c0, c0}, m);
        std::vector<GateId> fanins;
        for (unsigned p = 0; p < cellFaninCount(kind); ++p) {
            Pin pin{nl.addGate(CellKind::Input, {}, m),
                    nl.addGate(CellKind::Input, {}, m)};
            pins.push_back(pin);
            fanins.push_back(
                nl.addGate(CellKind::Mux2, {pin.in, hold, pin.sel}, m));
        }
        GateId flop = nl.addGate(kind, fanins, m);
        nl.addGate(CellKind::Inv, {flop}, m);
        nl.finalize();
    }

    /** Choices of pin @p p per cycle. */
    static size_t
    numDrives(unsigned p)
    {
        return p == 0 ? kDataDrives.size() : kCtrlDrives.size();
    }

    /** Drive combinations of one cycle. */
    size_t
    perCycle() const
    {
        size_t n = 1;
        for (unsigned p = 0; p < pins.size(); ++p)
            n *= numDrives(p);
        return n;
    }

    /** Sequences over kSeqCycles cycles. */
    size_t
    numSequences() const
    {
        size_t n = 1;
        for (unsigned c = 0; c < kSeqCycles; ++c)
            n *= perCycle();
        return n;
    }

    /** Pin @p p's drive at step @p step of sequence @p seq: the settle
     *  step loads 0 with en and rstn high, then the enumerated cycles,
     *  then the last one again. The first cycle's drives are the
     *  lowest digits of @p seq, so perCycle() consecutive sequences
     *  differ in their first cycle only. */
    Drive
    drive(size_t seq, unsigned step, unsigned p) const
    {
        if (step == 0)
            return p == 0 ? kZero : kOne;
        unsigned c = std::min(step, kSeqCycles) - 1;
        for (unsigned i = 0; i < c * pins.size() + p; ++i)
            seq /= numDrives(i % unsigned(pins.size()));
        size_t pick = seq % numDrives(p);
        return p == 0 ? kDataDrives[pick] : kCtrlDrives[pick];
    }

    std::string
    describe(size_t seq) const
    {
        static const char kChar[] = {'0', '1', 'x', 'h'};
        std::ostringstream os;
        for (unsigned c = 1; c <= kSeqCycles; ++c) {
            os << (c > 1 ? " | " : "") << "cycle " << c << ":";
            for (unsigned p = 0; p < pins.size(); ++p)
                os << ' ' << kChar[drive(seq, c, p)];
        }
        return os.str();
    }
};

/** The (in, sel) input values that put @p d on a pin. */
std::pair<V4, V4>
pinInputs(Drive d)
{
    switch (d) {
      case kZero: return {V4::Zero, V4::Zero};
      case kOne: return {V4::One, V4::Zero};
      case kXActive: return {V4::X, V4::Zero};
      default: return {V4::Zero, V4::One};
    }
}

/** The first observable difference between two scalar runs, or "". */
std::string
scalarDiff(const Simulator &a, const Simulator &b)
{
    for (GateId g = 0; g < a.netlist().numGates(); ++g)
        if (a.value(g) != b.value(g) || a.isActive(g) != b.isActive(g))
            return "gate " + std::to_string(g) + " value/activity";
    if (a.actualEnergyJ() != b.actualEnergyJ() ||
        a.boundEnergyJ() != b.boundEnergyJ() ||
        a.moduleBoundEnergyJ() != b.moduleBoundEnergyJ())
        return "energies";
    if (a.hashFullState() != b.hashFullState())
        return "full-state hash";
    return "";
}

/** The first difference between packed lane @p l and its scalar
 *  twin @p t, or "". */
std::string
laneDiff(const PackedSimulator &p, unsigned l, const Simulator &t)
{
    for (GateId g = 0; g < t.netlist().numGates(); ++g)
        if (p.valueLane(g, l) != t.value(g) ||
            bool((p.activeMask(g) >> l) & 1) != t.isActive(g))
            return "gate " + std::to_string(g) + " value/activity";
    if (p.actualEnergyJ(l) != t.actualEnergyJ() ||
        p.boundEnergyJ(l) != t.boundEnergyJ() ||
        p.moduleBoundEnergyLaneJ(l) != t.moduleBoundEnergyJ())
        return "energies";
    if (t.hashSnapshotState(p.extractLaneState(l, t.cycle())) !=
        t.hashFullState())
        return "full-state hash";
    return "";
}

/**
 * Sequences [first, first + count) of @p f, one per lane (the other
 * lanes retired): an event-driven and a full-sweep scalar run per
 * sequence and one packed batch, compared after every step. Returns
 * the first mismatch, or "".
 */
std::string
runBatch(const OneFlop &f, size_t first, unsigned count)
{
    PackedSimulator psim(f.nl);
    psim.retireLanes(~uint64_t(0) << count);
    std::vector<Simulator> ev, fs;
    ev.reserve(count);
    fs.reserve(count);
    for (unsigned l = 0; l < count; ++l) {
        ev.emplace_back(f.nl, EvalMode::EventDriven);
        fs.emplace_back(f.nl, EvalMode::FullSweep);
    }
    for (unsigned step = 0; step < kSteps; ++step) {
        psim.step([&](PackedSimulator &s) {
            for (unsigned p = 0; p < f.pins.size(); ++p) {
                V64 in, sel;
                for (unsigned l = 0; l < count; ++l) {
                    auto [i, sv] = pinInputs(f.drive(first + l, step, p));
                    in.setLane(l, i);
                    sel.setLane(l, sv);
                }
                s.setInput(f.pins[p].in, in);
                s.setInput(f.pins[p].sel, sel);
            }
        });
        for (unsigned l = 0; l < count; ++l) {
            auto drv = [&](Simulator &s) {
                for (unsigned p = 0; p < f.pins.size(); ++p) {
                    auto [i, sv] = pinInputs(f.drive(first + l, step, p));
                    s.setInput(f.pins[p].in, i);
                    s.setInput(f.pins[p].sel, sv);
                }
            };
            ev[l].step(drv);
            fs[l].step(drv);
            std::string d = scalarDiff(ev[l], fs[l]);
            const char *what = "event-driven vs full sweep";
            if (d.empty()) {
                d = laneDiff(psim, l, ev[l]);
                what = "packed lane vs scalar twin";
            }
            if (!d.empty())
                return std::string(what) + ": " + d + " at step " +
                       std::to_string(step) + " of sequence " +
                       f.describe(first + l);
        }
    }
    return "";
}

TEST(FlopWake, EveryOneFlopSequenceMatchesInAllKernels)
{
    // A packed flop is due when any lane wakes it. Each batch holds
    // the sequences that differ in their first cycle only, so from the
    // second cycle on every lane is driven alike and a lane that needs
    // its own wake cannot borrow one from a busier lane.
    for (CellKind kind : {CellKind::Dff, CellKind::Dffe, CellKind::Dffr,
                          CellKind::Dffre}) {
        SCOPED_TRACE(cellName(kind));
        OneFlop f(kind);
        unsigned count = unsigned(f.perCycle());
        ASSERT_LE(count, kLanes);
        for (size_t first = 0; first < f.numSequences(); first += count)
            ASSERT_EQ(runBatch(f, first, count), "");
    }
}

} // namespace
} // namespace ulpeak

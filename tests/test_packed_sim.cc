/**
 * @file
 * Tests of the bit-parallel 64-pattern kernel: lane identity of
 * PackedSimulator against independent scalar Simulator runs (both
 * EvalModes) on fuzz-generated netlists, the packed property the
 * ulfuzz driver runs, and batched concrete program runs
 * (power::runConcretePacked) against the scalar runConcrete path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>

#include "bench430/benchmarks.hh"
#include "fuzz/netlist_gen.hh"
#include "fuzz/properties.hh"
#include "fuzz/rng.hh"
#include "power/analysis.hh"
#include "power/packed_run.hh"
#include "sim/packed_simulator.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

constexpr unsigned kLanes = PackedSimulator::kLanes;

/** Every lane of a packed run vs an independent scalar run in mode
 *  @p mode: values, activity, energies and full-state hash, every
 *  cycle. */
void
expectLaneIdentity(uint64_t seed, EvalMode mode, unsigned cycles)
{
    fuzz::Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    fuzz::NetlistGenOptions opts;
    fuzz::RandomNetlist rn = fuzz::buildRandomNetlist(nl, rng, opts);
    unsigned nin = unsigned(rn.inputs.size());

    std::array<std::vector<std::vector<V4>>, kLanes> sched;
    for (unsigned l = 0; l < kLanes; ++l) {
        fuzz::Rng lrng(fuzz::Rng::deriveStream(seed, l));
        sched[l] = fuzz::makeInputSchedule(lrng, nin, cycles,
                                           opts.inputXPercent);
    }

    PackedSimulator psim(nl);
    std::vector<Simulator> sims;
    sims.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l)
        sims.emplace_back(nl, mode);

    for (unsigned c = 0; c < cycles; ++c) {
        psim.step([&](PackedSimulator &s) {
            for (unsigned i = 0; i < nin; ++i) {
                V64 v;
                for (unsigned l = 0; l < kLanes; ++l)
                    v.setLane(l, sched[l][c][i]);
                s.setInput(rn.inputs[i], v);
            }
        });
        for (unsigned l = 0; l < kLanes; ++l) {
            sims[l].step([&](Simulator &s) {
                for (unsigned i = 0; i < nin; ++i)
                    s.setInput(rn.inputs[i], sched[l][c][i]);
            });
            for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
                ASSERT_EQ(psim.valueLane(g, l), sims[l].value(g))
                    << "cycle " << c << " lane " << l << " gate " << g;
                ASSERT_EQ(bool((psim.activeMask(g) >> l) & 1),
                          sims[l].isActive(g))
                    << "cycle " << c << " lane " << l << " gate " << g;
            }
            ASSERT_EQ(psim.actualEnergyJ(l), sims[l].actualEnergyJ())
                << "cycle " << c << " lane " << l;
            ASSERT_EQ(psim.boundEnergyJ(l), sims[l].boundEnergyJ())
                << "cycle " << c << " lane " << l;
            ASSERT_EQ(psim.moduleBoundEnergyLaneJ(l),
                      sims[l].moduleBoundEnergyJ())
                << "cycle " << c << " lane " << l;
            ASSERT_EQ(sims[l].hashSnapshotState(
                          psim.extractLaneState(l, sims[l].cycle())),
                      sims[l].hashFullState())
                << "cycle " << c << " lane " << l;
        }
    }
}

// The word-level transpose of setInputBusLanes against per-lane
// writes of the same bits: random words with X bits, on a bus of
// every width, with some lanes retired (they keep what they held).
TEST(PackedSim, SetInputBusLanesMatchesPerLaneWrites)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    ModuleId m = nl.addModule("bus");
    std::vector<GateId> bus;
    for (unsigned i = 0; i < 16; ++i)
        bus.push_back(nl.addGate(CellKind::Input, {}, m));
    GateId acc = bus[0];
    for (unsigned i = 1; i < 16; ++i)
        acc = nl.addGate(CellKind::Xor2, {acc, bus[i]}, m);
    nl.finalize();

    fuzz::Rng rng(42);
    auto randomWord = [&rng] {
        Word16 w;
        w.xmask = uint16_t(rng.next() & rng.next()); // ~1/4 X bits
        w.value = uint16_t(rng.next()) & ~w.xmask;
        return w;
    };
    for (unsigned round = 0; round < 64; ++round) {
        PackedSimulator ps(nl);
        std::array<Word16, kLanes> before, lanes;
        for (Word16 &w : before)
            w = randomWord();
        ps.setInputBusLanes(bus, before);
        uint64_t retired = round ? rng.next() & rng.next() : 0;
        ps.retireLanes(retired);
        for (Word16 &w : lanes)
            w = randomWord();
        size_t width = 1 + round % 16;
        std::vector<GateId> sub(bus.begin(), bus.begin() + long(width));
        ps.setInputBusLanes(sub, lanes);
        for (size_t i = 0; i < 16; ++i) {
            V64 want;
            for (unsigned l = 0; l < kLanes; ++l) {
                bool wrote = i < width && !(retired >> l & 1);
                want.setLane(l, (wrote ? lanes[l] : before[l])
                                    .bit(unsigned(i)));
            }
            ASSERT_EQ(ps.value(bus[i]), want)
                << "round " << round << " bus bit " << i;
        }
    }
}

// The read twin of the test above: readBusLanes's one transpose
// against test::readBusLane per lane, on random words with X bits, on a bus
// of every width, retired lanes included (they read what they hold).
TEST(PackedSim, ReadBusLanesMatchesPerLaneReads)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    ModuleId m = nl.addModule("bus");
    std::vector<GateId> bus;
    for (unsigned i = 0; i < 16; ++i)
        bus.push_back(nl.addGate(CellKind::Input, {}, m));
    nl.finalize();

    fuzz::Rng rng(7);
    for (unsigned round = 0; round < 64; ++round) {
        PackedSimulator ps(nl);
        std::array<Word16, kLanes> lanes;
        for (Word16 &w : lanes) {
            w.xmask = uint16_t(rng.next() & rng.next());
            w.value = uint16_t(rng.next()) & ~w.xmask;
        }
        ps.setInputBusLanes(bus, lanes);
        ps.retireLanes(rng.next() & rng.next());
        size_t width = 1 + round % 16;
        std::vector<GateId> sub(bus.begin(), bus.begin() + long(width));
        std::array<Word16, kLanes> got = ps.readBusLanes(sub);
        for (unsigned l = 0; l < kLanes; ++l) {
            Word16 want = test::readBusLane(ps, sub, l);
            ASSERT_EQ(got[l].value, want.value)
                << "round " << round << " lane " << l;
            ASSERT_EQ(got[l].xmask, want.xmask)
                << "round " << round << " lane " << l;
        }
    }
}

TEST(PackedSim, LaneIdentityEventDriven)
{
    expectLaneIdentity(0x11u, EvalMode::EventDriven, 48);
}

TEST(PackedSim, LaneIdentityFullSweep)
{
    expectLaneIdentity(0x22u, EvalMode::FullSweep, 48);
}

// The pad rule: a 2-input gate's records read four pins, and its two
// pad pins must never bring activity into the held-X rule. Gate 0 is
// an Input held at X, active every cycle -- what a pad pointing at
// gate 0 would read. The And2 holds X behind a held flop and a settled
// 1: inactive in the scalar kernel in either mode, and in the lanes
// that hold the flop while the other lanes wake the gate.
TEST(PackedSim, HeldXGateIgnoresPadActivity)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    ModuleId m = nl.addModule("m");
    GateId noisy = nl.addGate(CellKind::Input, {}, m);
    ASSERT_EQ(noisy, 0u);
    GateId en = nl.addGate(CellKind::Input, {}, m);
    GateId one = nl.addGate(CellKind::Input, {}, m);
    GateId q = nl.addGate(CellKind::Dffe, {noisy, en}, m);
    GateId and2 = nl.addGate(CellKind::And2, {q, one}, m);
    nl.finalize();

    for (EvalMode mode : {EvalMode::FullSweep, EvalMode::EventDriven}) {
        Simulator sim(nl, mode);
        auto drive = [&](Simulator &s) {
            s.setInput(noisy, V4::X);
            s.setInput(en, V4::Zero);
            s.setInput(one, V4::One);
        };
        for (unsigned c = 0; c < 6; ++c) {
            sim.step(drive);
            ASSERT_TRUE(sim.isActive(noisy));
            EXPECT_EQ(sim.value(and2), V4::X);
            if (c >= 2) {
                EXPECT_FALSE(sim.isActive(and2))
                    << "cycle " << c << " mode " << int(mode);
            }
        }
    }

    // Lane 0 holds the flop (en 0); lane 1 loads X every edge, so its
    // flop stays active and the gate is evaluated in every lane.
    PackedSimulator psim(nl);
    auto pdrive = [&](PackedSimulator &s) {
        s.setInput(noisy, V64::allX());
        s.setInput(en, V64(uint64_t(2), ~uint64_t(0)));
        s.setInput(one, V64::splat(V4::One));
    };
    for (unsigned c = 0; c < 6; ++c) {
        psim.step(pdrive);
        EXPECT_EQ(psim.valueLane(and2, 0), V4::X);
        if (c >= 2) {
            EXPECT_EQ(psim.activeMask(and2) & 3u, 2u) << "cycle " << c;
        }
    }
}

TEST(PackedSim, FuzzPropertyHolds)
{
    // The exact check ulfuzz --mode packed runs (lanes alternate
    // EvalMode inside the property).
    fuzz::NetlistGenOptions opts;
    for (uint64_t seed : {3u, 4u, 5u}) {
        fuzz::PropertyResult r =
            fuzz::packedKernelEquivalenceCheck(seed, opts, 40);
        EXPECT_TRUE(r.ok) << r.detail;
    }
}

TEST(PackedSim, ProgramBatchMatchesScalarRuns)
{
    // A port-dependent program: different lanes take different
    // branches, so the batch genuinely diverges across lanes.
    const char *body = R"(
        mov &0x0020, r4
        mov #0, r5
        and #3, r4
        jz pk_skip
        add #5, r5
        add r4, r5
pk_skip:
        add #1, r5
)";
    msp::System &sys = test::sharedSystem();
    isa::Image image = isa::assemble(test::wrapProgram(body));
    power::PowerContext ctx(sys.netlist(), 100e6);

    fuzz::Rng rng(0xbeefu);
    power::PackedRunOptions popts;
    popts.maxCycles = 4000;
    for (unsigned l = 0; l < kLanes; ++l) {
        popts.portSchedules[l].resize(16);
        for (uint16_t &w : popts.portSchedules[l])
            w = rng.word();
    }
    power::PackedRunResult pr =
        power::runConcretePacked(sys, image, ctx, popts);

    for (unsigned l = 0; l < kLanes; ++l)
        EXPECT_TRUE(pr.lanes[l].halted) << "lane " << l;

    // Spot-check a spread of lanes float-for-float against the scalar
    // path (running all 64 scalar programs would dominate suite time).
    for (unsigned l : {0u, 7u, 13u, 31u, 42u, 63u}) {
        power::ConcreteRunOptions copts;
        copts.maxCycles = popts.maxCycles;
        copts.portSchedule = popts.portSchedules[l];
        power::ConcreteRunResult c =
            power::runConcrete(sys, image, ctx, copts);
        EXPECT_EQ(c.halted, pr.lanes[l].halted) << "lane " << l;
        EXPECT_EQ(c.traceW, pr.lanes[l].traceW) << "lane " << l;
        EXPECT_EQ(c.totalEnergyJ, pr.lanes[l].totalEnergyJ)
            << "lane " << l;
        EXPECT_EQ(c.stats.peakW, pr.lanes[l].stats.peakW)
            << "lane " << l;
        EXPECT_EQ(sys.xStoreFault(), pr.lanes[l].xStoreFault)
            << "lane " << l;
    }

    // Sanity: the lanes were not all the same run.
    bool diverged = false;
    for (unsigned l = 1; l < kLanes; ++l)
        if (pr.lanes[l].traceW != pr.lanes[0].traceW)
            diverged = true;
    EXPECT_TRUE(diverged);
}

TEST(PackedSim, EnvelopeBatchPropertyHolds)
{
    const char *body = R"(
        mov &0x0020, r4
        and #1, r4
        jz pe_a
        add #2, r5
pe_a:
        add #1, r5
)";
    msp::System &sys = test::sharedSystem();
    isa::Image image = isa::assemble(test::wrapProgram(body));
    fuzz::Rng rng(0x777u);
    fuzz::PropertyResult r =
        fuzz::packedEnvelopeBatchCheck(sys, image, rng);
    EXPECT_TRUE(r.ok) << r.detail;
}

// ---- Wake paths: between-step mutations against scalar twins ----

/** One copy of a small block in its own module: inputs d, en, x; a
 *  load-enabled flop r0 feeding a shift stage r1, and a resettable
 *  flop r2 fed back through a little logic cone. */
struct Block {
    GateId d, en, x;
    GateId r0, r1, r2;
};

Block
buildBlock(Netlist &nl, const char *name)
{
    ModuleId m = nl.addModule(name);
    Block b;
    b.d = nl.addGate(CellKind::Input, {}, m);
    b.en = nl.addGate(CellKind::Input, {}, m);
    b.x = nl.addGate(CellKind::Input, {}, m);
    b.r0 = nl.addGate(CellKind::Dffe, {b.d, b.en}, m);
    b.r1 = nl.addGate(CellKind::Dff, {b.r0}, m);
    b.r2 = nl.addGate(CellKind::Dffr, {kNoGate, b.en}, m);
    GateId g0 = nl.addGate(CellKind::Xor2, {b.r0, b.x}, m);
    GateId g1 = nl.addGate(CellKind::Nand2, {g0, b.r1}, m);
    GateId g2 = nl.addGate(CellKind::Mux2, {g1, b.r2, b.r1}, m);
    nl.setFanin(b.r2, 0, g2);
    return b;
}

/**
 * One PackedSimulator against 64 scalar twins (one per lane) over two
 * independent blocks. Block A is busy in the odd lanes (d toggles
 * every cycle) and X-driven in every fifth lane; block B settles to
 * constants in every lane, so an event on B is seen only through the
 * wake path that carries it -- a dropped wake is a missed evaluation.
 */
struct Lockstep {
    enum Input { Ad, Aen, Ax, Bd, Ben, Bx, kInputs };

    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl{lib};
    Block A = buildBlock(nl, "A");
    Block B = buildBlock(nl, "B");
    std::array<GateId, kInputs> gate{A.d, A.en, A.x, B.d, B.en, B.x};
    std::array<std::array<V4, kInputs>, kLanes> in;
    std::unique_ptr<PackedSimulator> psim;
    std::vector<Simulator> twins;
    /** Upsets to inject in the next step's driver: (gate, lane). */
    std::vector<std::pair<GateId, unsigned>> flips;
    /** Values of retired lanes, captured when they retired. */
    std::array<std::vector<V4>, kLanes> frozen;

    Lockstep()
    {
        nl.finalize();
        psim = std::make_unique<PackedSimulator>(nl);
        twins.reserve(kLanes);
        for (unsigned l = 0; l < kLanes; ++l) {
            twins.emplace_back(nl);
            V4 ax = l % 5 == 0 ? V4::X : bitV4((l >> 2) & 1);
            in[l] = {V4::Zero, V4::One, ax,
                     bitV4(l & 1), V4::One, bitV4((l >> 1) & 1)};
        }
    }

    static V4 bitV4(unsigned b) { return b ? V4::One : V4::Zero; }

    V4
    laneInput(unsigned l, unsigned i, unsigned c) const
    {
        return i == Ad && (l & 1) ? bitV4(c & 1) : in[l][i];
    }

    void
    step(unsigned c)
    {
        psim->step([&](PackedSimulator &s) {
            for (unsigned i = 0; i < kInputs; ++i) {
                V64 v;
                for (unsigned l = 0; l < kLanes; ++l)
                    v.setLane(l, laneInput(l, i, c));
                s.setInput(gate[i], v);
            }
            for (const auto &[g, l] : flips)
                s.injectSeuFlip(g, uint64_t(1) << l);
        });
        // A retired lane's twin stops stepping.
        for (uint64_t m = psim->liveMask(); m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            twins[l].step([&](Simulator &s) {
                for (unsigned i = 0; i < kInputs; ++i)
                    s.setInput(gate[i], laneInput(l, i, c));
                for (const auto &[g, fl] : flips)
                    if (fl == l)
                        s.injectSeuFlip(g);
            });
        }
        flips.clear();
    }

    void
    retire(unsigned l)
    {
        frozen[l] = psim->extractLaneState(l, 0).val;
        psim->retireLanes(uint64_t(1) << l);
    }

    /** The first difference between the packed lanes and their
     *  twins (or, for retired lanes, their frozen values and zero
     *  bills); empty when every lane matches. */
    std::string
    firstDiff() const
    {
        const PackedSimulator &p = *psim;
        std::ostringstream os;
        for (unsigned l = 0; l < kLanes; ++l) {
            bool live = (p.liveMask() >> l) & 1;
            const Simulator &t = twins[l];
            for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
                V4 want = live ? t.value(g) : frozen[l][g];
                bool wantAct = live && t.isActive(g);
                if (p.valueLane(g, l) != want ||
                    bool((p.activeMask(g) >> l) & 1) != wantAct) {
                    os << "lane " << l << " gate " << g << ": packed "
                       << v4Char(p.valueLane(g, l)) << "/"
                       << ((p.activeMask(g) >> l) & 1) << ", want "
                       << v4Char(want) << "/" << wantAct;
                    return os.str();
                }
            }
            std::vector<double> mod = p.moduleBoundEnergyLaneJ(l);
            bool billsMatch =
                live ? p.actualEnergyJ(l) == t.actualEnergyJ() &&
                           p.boundEnergyJ(l) == t.boundEnergyJ() &&
                           mod == t.moduleBoundEnergyJ() &&
                           t.hashSnapshotState(p.extractLaneState(
                               l, t.cycle())) == t.hashFullState()
                     : p.actualEnergyJ(l) == 0.0 &&
                           p.boundEnergyJ(l) == 0.0 &&
                           mod == std::vector<double>(mod.size(), 0.0);
            if (!billsMatch) {
                os << "lane " << l << ": energies or hash differ "
                   << "(packed actual " << p.actualEnergyJ(l)
                   << " bound " << p.boundEnergyJ(l) << ", twin actual "
                   << t.actualEnergyJ() << " bound " << t.boundEnergyJ()
                   << ")";
                return os.str();
            }
        }
        return "";
    }
};

/** When a case acts: before step(c), or after it (before the lanes
 *  are compared). */
enum class Phase { Between, AfterStep };

struct WakeCase {
    const char *name;
    void (*act)(Lockstep &, unsigned cycle, Phase);
};

const WakeCase kWakeCases[] = {
    {"setInput between steps changes one lane",
     [](Lockstep &ls, unsigned c, Phase ph) {
         if (ph != Phase::Between || c != 6)
             return;
         ls.in[4][Lockstep::Bd] = V4::One; // lane 4 settled at 0
         V64 v = ls.psim->value(ls.B.d);
         v.setLane(4, V4::One);
         ls.psim->setInput(ls.B.d, v);
         ls.twins[4].setInput(ls.B.d, V4::One);
     }},
    {"forceLane between steps",
     [](Lockstep &ls, unsigned c, Phase ph) {
         if (ph != Phase::Between || c != 6)
             return;
         ls.psim->forceLane(ls.B.r1, 6, V4::One); // settled at 0
         ls.twins[6].forceValue(ls.B.r1, V4::One);
     }},
    {"injectSeuFlip of a held flop",
     [](Lockstep &ls, unsigned c, Phase ph) {
         if (ph != Phase::Between)
             return;
         if (c == 4) // r0 of lane 8 holds its settled 0 from here on
             ls.in[8][Lockstep::Ben] = V4::Zero;
         if (c == 7)
             ls.flips.push_back({ls.B.r0, 8});
     }},
    {"loadLanes while other lanes are active",
     [](Lockstep &ls, unsigned c, Phase ph) {
         if (ph != Phase::Between || c != 8)
             return;
         // A donor run with block B in flight (d toggling), restored
         // into lane 10 and into lane 10's twin.
         Simulator donor(ls.nl);
         for (unsigned dc = 0; dc < 5; ++dc) {
             donor.step([&](Simulator &s) {
                 for (unsigned i = 0; i < Lockstep::kInputs; ++i)
                     s.setInput(ls.gate[i], ls.laneInput(10, i, dc));
                 s.setInput(ls.B.d, Lockstep::bitV4(dc & 1));
             });
         }
         Simulator::Snapshot snap = donor.snapshot();
         ls.psim->loadLanes(uint64_t(1) << 10, snap);
         ls.twins[10].restore(snap);
     }},
    {"retired lane holds and bills nothing",
     [](Lockstep &ls, unsigned c, Phase ph) {
         // Lane 15 is busy in block A and X-driven there.
         if (ph == Phase::Between && c == 5)
             ls.retire(15);
     }},
    {"energy split read after a between-step mutation",
     [](Lockstep &ls, unsigned c, Phase ph) {
         if (ph != Phase::AfterStep || c != 7)
             return;
         // Lane 3's A.d toggled this cycle; write it back before the
         // comparison reads the lazily priced split.
         V4 was = ls.laneInput(3, Lockstep::Ad, c - 1);
         V64 v = ls.psim->value(ls.A.d);
         v.setLane(3, was);
         ls.psim->setInput(ls.A.d, v);
         ls.twins[3].setInput(ls.A.d, was);
     }},
};

void
runWakeCase(const WakeCase &wc)
{
    Lockstep ls;
    for (unsigned c = 0; c < 14; ++c) {
        wc.act(ls, c, Phase::Between);
        ls.step(c);
        wc.act(ls, c, Phase::AfterStep);
        ASSERT_EQ(ls.firstDiff(), "") << "cycle " << c;
    }
}

TEST(PackedSim, WakePathsMatchScalarTwins)
{
    for (const WakeCase &wc : kWakeCases) {
        SCOPED_TRACE(wc.name);
        runWakeCase(wc);
    }
}

/** Lane @p lane of @p ps against the scalar run @p sim: values,
 *  activity, energies and the full-state hash read in the lane. */
std::string
laneVsScalar(const PackedSimulator &ps, unsigned lane, const Simulator &sim)
{
    std::ostringstream os;
    for (GateId g = 0; g < GateId(sim.netlist().numGates()); ++g)
        if (ps.valueLane(g, lane) != sim.value(g) ||
            bool((ps.activeMask(g) >> lane) & 1) != sim.isActive(g)) {
            os << "gate " << g;
            return os.str();
        }
    if (ps.boundEnergyJ(lane) != sim.boundEnergyJ() ||
        ps.actualEnergyJ(lane) != sim.actualEnergyJ() ||
        ps.moduleBoundEnergyLaneJ(lane) != sim.moduleBoundEnergyJ())
        return "energies";
    if (sim.hashState(ps.laneBytes(lane), sim.cycle()) !=
        sim.hashFullState())
        return "hash";
    return "";
}

// A lane copied from a stepped lane, and a reload of the extracted
// lane, each stepped on, equal the scalar run of the same state --
// values, activity, energies and the full-state hash read in the lane
// -- on the MSP430 core mid-program with other lanes live. The
// in-lane hash under a prune basis equals the hash of the extracted
// snapshot.
TEST(PackedSim, LaneCopyMatchesReloadAndScalar)
{
    msp::System &sys = test::sharedSystem();
    const isa::Image img = bench430::benchmarkByName("PI").assembleImage();
    auto driveX = [&](Simulator &s) { sys.driveCycle(s, Word16::allX()); };
    constexpr unsigned kFrom = 1, kTo = 40;
    for (bool copy : {true, false}) {
        SCOPED_TRACE(copy ? "copy" : "reload");
        sys.memory().reset();
        sys.loadImage(img);
        sys.clearHalted();
        Simulator sim(sys.netlist());
        sys.attach(sim);
        sys.reset(sim);
        for (unsigned c = 0; c < 40; ++c)
            sim.step(driveX);
        const Simulator::Snapshot start = sim.snapshot();
        const msp::System::Snapshot startSys = sys.snapshot();

        msp::PackedSystem lanes(sys);
        PackedSimulator ps(sys.netlist());
        lanes.attach(ps);
            ps.retireLanes(~uint64_t(0));
        for (unsigned l : {0u, kFrom, 2u}) {
            ps.loadLanes(uint64_t(1) << l, start);
            lanes.restore(l, startSys);
        }
        auto drivePacked = [&](PackedSimulator &s) {
            lanes.driveCycle(s, Word16::allX());
        };
        for (unsigned c = 0; c < 3; ++c) {
            ps.step(drivePacked);
            sim.step(driveX);
        }

        // Lane kFrom forks: lane kTo takes a copy of it, or a reload of
        // its extracted state (the way of a queued child).
        const Simulator::Snapshot extracted =
            ps.extractLaneState(kFrom, sim.cycle());
        lanes.restore(kTo, msp::System::Snapshot{
                               lanes.memory(kFrom).snapshot(), false,
                               false});
        if (copy)
            ps.copyLane(kFrom, kTo);
        else
            ps.loadLanes(uint64_t(1) << kTo, extracted);

        Simulator pruned(sys.netlist());
        auto mask = std::make_shared<std::vector<uint8_t>>(
            sys.netlist().numGates(), 0);
        for (size_t g = 0; g < mask->size(); g += 3)
            (*mask)[g] = 1;
        pruned.setStaticPrune(mask, 0);
        for (unsigned l : {kFrom, kTo}) {
            EXPECT_EQ(sim.hashState(ps.laneBytes(l), sim.cycle()),
                      sim.hashFullState())
                << "lane " << l;
            EXPECT_EQ(pruned.hashState(ps.laneBytes(l), sim.cycle()),
                      pruned.hashSnapshotState(extracted))
                << "lane " << l;
        }

        for (unsigned c = 0; c < 24; ++c) {
            ps.step(drivePacked);
            sim.step(driveX);
            for (unsigned l : {kFrom, kTo})
                ASSERT_EQ(laneVsScalar(ps, l, sim), "")
                    << "cycle " << c << " lane " << l;
        }
    }
}

// Lanes that bill alike share one accumulator in the bound walk
// (PackedSimulator::priceBound) and split where they stop billing
// alike. All 64 lanes start from one mid-program state, so they start
// as one class; at one cycle, upsets of the lowest-id and the
// highest-id known flop in two lane groups split it at the start and
// at the end of the walk, and one lane retired, then revived by
// copyLane, and one revived by loadLanes rejoin later. Every live
// lane's energies must equal its scalar twin's bit for bit each cycle.
TEST(PackedSim, LaneClassesBillLikeScalar)
{
    msp::System &sys = test::sharedSystem();
    const isa::Image img = bench430::benchmarkByName("PI").assembleImage();
    auto driveX = [&](Simulator &s) { sys.driveCycle(s, Word16::allX()); };
    sys.memory().reset();
    sys.loadImage(img);
    sys.clearHalted();
    Simulator sim(sys.netlist());
    sys.attach(sim);
    sys.reset(sim);
    for (unsigned c = 0; c < 40; ++c)
        sim.step(driveX);
    const Simulator::Snapshot start = sim.snapshot();
    const msp::System::Snapshot startSys = sys.snapshot();

    std::vector<GateId> known;
    for (GateId g : sys.netlist().seqGates())
        if (sim.value(g) != V4::X)
            known.push_back(g);
    ASSERT_GE(known.size(), 2u);
    const GateId lo = *std::min_element(known.begin(), known.end());
    const GateId hi = *std::max_element(known.begin(), known.end());
    constexpr uint64_t kFlipLo = 0xfffull << 8;  // lanes 8-19: a class
    constexpr uint64_t kFlipHi = 0xfull << 20;   // lanes 20-23: single
    constexpr unsigned kFlipCycle = 2, kRetireCycle = 5, kReviveCycle = 7;
    constexpr unsigned kCopied = 5, kReloaded = 6;

    // One scalar twin (System and Simulator) per lane.
    struct Twin {
        std::unique_ptr<msp::System> sys;
        std::unique_ptr<Simulator> sim;
    };
    std::vector<Twin> twins(kLanes);
    for (Twin &t : twins) {
        t.sys = std::make_unique<msp::System>(CellLibrary::tsmc65Like());
        t.sys->loadImage(img);
        t.sys->restore(startSys);
        t.sim = std::make_unique<Simulator>(sys.netlist());
        t.sys->attach(*t.sim);
        t.sim->restore(start);
    }

    msp::PackedSystem lanes(sys);
    PackedSimulator ps(sys.netlist());
    lanes.attach(ps);
    ps.loadLanes(~uint64_t(0), start);
    for (unsigned l = 0; l < kLanes; ++l)
        lanes.restore(l, startSys);

    bool split = false;
    for (unsigned c = 0; c < 16; ++c) {
        const bool flip = c == kFlipCycle;
        ps.step([&](PackedSimulator &s) {
            lanes.driveCycle(s, Word16::allX());
            if (flip) {
                s.injectSeuFlip(lo, kFlipLo);
                s.injectSeuFlip(hi, kFlipHi);
            }
        });
        for (uint64_t m = ps.liveMask(); m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            twins[l].sim->step([&](Simulator &s) {
                twins[l].sys->driveCycle(s, Word16::allX());
                if (flip && (kFlipLo >> l & 1))
                    s.injectSeuFlip(lo);
                if (flip && (kFlipHi >> l & 1))
                    s.injectSeuFlip(hi);
            });
            ASSERT_EQ(laneVsScalar(ps, l, *twins[l].sim), "")
                << "cycle " << c << " lane " << l;
        }
        split |= ps.boundEnergyJ(8) != ps.boundEnergyJ(0) &&
                 ps.boundEnergyJ(20) != ps.boundEnergyJ(0);
        if (c == kRetireCycle) {
            ps.retireLanes(uint64_t(1) << kCopied | uint64_t(1) << kReloaded);
        } else if (c == kReviveCycle) {
            ps.copyLane(0, kCopied);
            lanes.restore(kCopied, twins[0].sys->snapshot());
            twins[kCopied].sys->restore(twins[0].sys->snapshot());
            twins[kCopied].sim->restore(twins[0].sim->snapshot());
            const Simulator::Snapshot held = twins[kReloaded].sim->snapshot();
            ps.loadLanes(uint64_t(1) << kReloaded, held);
            twins[kReloaded].sim->restore(held);
        }
    }
    EXPECT_TRUE(split) << "the upsets never changed a lane's bill";
}

} // namespace
} // namespace ulpeak

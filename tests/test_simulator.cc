/**
 * @file
 * Tests of the cycle-based simulator: value propagation, X handling,
 * the paper's activity definition (Section 3.1), per-cycle energies
 * and snapshot/restore.
 */

#include <gtest/gtest.h>

#include "hw/builder.hh"
#include "sim/simulator.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

using hw::Builder;
using hw::Bus;

TEST(Simulator, CombPropagation)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig a = b.input("a");
    hw::Sig c = b.input("c");
    hw::Sig o = b.and2(b.inv(a), c);
    nl.finalize();

    Simulator sim(nl);
    sim.step([&](Simulator &s) {
        s.setInput(a, V4::Zero);
        s.setInput(c, V4::One);
    });
    EXPECT_EQ(sim.value(o), V4::One);
    sim.step([&](Simulator &s) {
        s.setInput(a, V4::One);
        s.setInput(c, V4::One);
    });
    EXPECT_EQ(sim.value(o), V4::Zero);
}

TEST(Simulator, SequentialDelaysOneCycle)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig a = b.input("a");
    Bus q = b.reg(Bus{a}, "q");
    nl.finalize();

    Simulator sim(nl);
    sim.step([&](Simulator &s) { s.setInput(a, V4::One); });
    sim.step([&](Simulator &s) { s.setInput(a, V4::Zero); });
    EXPECT_EQ(sim.value(q[0]), V4::One) << "captured previous cycle";
    sim.step([&](Simulator &s) { s.setInput(a, V4::Zero); });
    EXPECT_EQ(sim.value(q[0]), V4::Zero);
}

TEST(Simulator, ActivityChangedGateIsActive)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig a = b.input("a");
    hw::Sig o = b.inv(a);
    nl.finalize();

    Simulator sim(nl);
    sim.step([&](Simulator &s) { s.setInput(a, V4::Zero); });
    sim.step([&](Simulator &s) { s.setInput(a, V4::One); });
    EXPECT_TRUE(sim.isActive(o));
    EXPECT_GT(sim.actualEnergyJ(), 0.0);
    sim.step([&](Simulator &s) { s.setInput(a, V4::One); });
    EXPECT_FALSE(sim.isActive(o));
    EXPECT_DOUBLE_EQ(sim.actualEnergyJ(), 0.0);
}

TEST(Simulator, StableXIsInactive)
{
    // Paper 3.1: a gate is active if it toggles OR is X and driven by
    // an active gate. A gate whose X fanins are stable must be idle.
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig x = b.input("x");
    hw::Sig gate1 = b.inv(x);
    hw::Sig toggler = b.input("t");
    hw::Sig mixed = b.and2(gate1, toggler);
    nl.finalize();

    Simulator sim(nl);
    auto drive = [&](V4 t) {
        return [&, t](Simulator &s) {
            s.setInput(x, V4::X);
            s.setInput(toggler, t);
        };
    };
    sim.step(drive(V4::One));
    sim.step(drive(V4::One));
    sim.step(drive(V4::One));
    // x held X: the primary input itself stays conservative-active,
    // but gate1 (X, no changing fanin... except the input rule) --
    // inputs count as potentially toggling, so check the deeper gate
    // under a concrete blocker instead:
    sim.step(drive(V4::Zero));
    sim.step(drive(V4::Zero));
    EXPECT_EQ(sim.value(mixed), V4::Zero);
    EXPECT_FALSE(sim.isActive(mixed)) << "0-blocked gate is idle";
}

TEST(Simulator, BoundEnergyCoversXToggles)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig a = b.input("a");
    hw::Sig o = b.inv(a);
    (void)o;
    nl.finalize();

    Simulator sim(nl);
    sim.step([&](Simulator &s) { s.setInput(a, V4::Zero); });
    sim.step([&](Simulator &s) { s.setInput(a, V4::X); });
    // X assignment assumes the max-power consistent transition.
    EXPECT_GT(sim.boundEnergyJ(), 0.0);
    EXPECT_DOUBLE_EQ(sim.actualEnergyJ(), 0.0)
        << "no concrete toggle happened";
}

TEST(Simulator, BoundEqualsActualWhenConcrete)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    Bus a = b.busInput(8, "a");
    Bus n = b.busNot(a);
    Bus q = b.reg(n, "q");
    (void)q;
    nl.finalize();

    Simulator sim(nl);
    uint32_t pattern = 0x5a;
    for (int i = 0; i < 8; ++i) {
        sim.step([&](Simulator &s) {
            for (unsigned j = 0; j < 8; ++j)
                s.setInput(a[j], fromBool((pattern >> j) & 1));
        });
        // The first cycles resolve the power-on X state (registers
        // start unknown, Algorithm 1 line 2); once concrete, the
        // bound must equal the actual energy exactly.
        if (i >= 2)
            EXPECT_DOUBLE_EQ(sim.actualEnergyJ(), sim.boundEnergyJ());
        pattern = (pattern * 37 + 11) & 0xff;
    }
}

TEST(Simulator, ModuleEnergySplit)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig a = b.input("a");
    b.pushModule("m1");
    hw::Sig o1 = b.inv(a);
    b.popModule();
    b.pushModule("m2");
    hw::Sig o2 = b.inv(a);
    hw::Sig o3 = b.inv(o2);
    b.popModule();
    (void)o1;
    (void)o3;
    ModuleId m1 = nl.findModule("m1");
    ModuleId m2 = nl.findModule("m2");
    nl.finalize();

    Simulator sim(nl);
    sim.step([&](Simulator &s) { s.setInput(a, V4::Zero); });
    sim.step([&](Simulator &s) { s.setInput(a, V4::One); });
    const auto &split = sim.moduleBoundEnergyJ();
    EXPECT_GT(split[m1], 0.0);
    EXPECT_GT(split[m2], split[m1]) << "m2 has two toggling gates";
    double total = 0.0;
    for (double e : split)
        total += e;
    EXPECT_NEAR(total, sim.boundEnergyJ(), 1e-21);
}

TEST(Simulator, SnapshotRestoreRoundTrip)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig a = b.input("a");
    Bus cnt = b.busWireDecl(4, "cnt");
    Bus q = b.reg(hw::addConst(b, cnt, 1), "q");
    b.busWireConnect(cnt, q);
    (void)a;
    nl.finalize();

    Simulator sim(nl);
    auto drv = [&](Simulator &s) { s.setInput(a, V4::Zero); };
    // Counter starts X; force it by snapshot surgery: run a few
    // cycles, grab the state, keep running, then restore and check
    // deterministic continuation.
    for (int i = 0; i < 3; ++i)
        sim.step(drv);
    Simulator::Snapshot snap = sim.snapshot();
    uint64_t h0 = sim.hashFullState();
    sim.step(drv);
    sim.step(drv);
    EXPECT_NE(sim.cycle(), snap.cycle);
    sim.restore(snap);
    EXPECT_EQ(sim.cycle(), snap.cycle);
    EXPECT_EQ(sim.hashFullState(), h0);
}

// Step both kernels with the same driver and require bit-identical
// per-cycle observables.
void
expectLockstepCycle(Simulator &ev, Simulator &fs, const char *what,
                    uint64_t c)
{
    ASSERT_EQ(ev.actualEnergyJ(), fs.actualEnergyJ())
        << what << " cycle " << c;
    ASSERT_EQ(ev.boundEnergyJ(), fs.boundEnergyJ())
        << what << " cycle " << c;
    ASSERT_EQ(ev.behavioralEnergyJ(), fs.behavioralEnergyJ())
        << what << " cycle " << c;
    ASSERT_EQ(ev.activeBits(), fs.activeBits())
        << what << " cycle " << c;
    ASSERT_EQ(ev.moduleBoundEnergyJ(), fs.moduleBoundEnergyJ())
        << what << " cycle " << c;
    ASSERT_EQ(ev.hashFullState(), fs.hashFullState())
        << what << " cycle " << c;
}

TEST(SimulatorKernel, EventDrivenMatchesFullSweepSmallNetlist)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    Bus a = b.busInput(4, "a");
    hw::Sig x = b.input("x");
    Bus n = b.busNot(a);
    Bus q = b.reg(n, "q");
    hw::Sig mixed = b.and2(b.inv(x), q[0]);
    hw::Sig deep = b.xor2(mixed, b.or2(q[1], q[2]));
    (void)deep;
    nl.finalize();

    Simulator ev(nl, EvalMode::EventDriven);
    Simulator fs(nl, EvalMode::FullSweep);
    uint32_t pattern = 0x9;
    for (int i = 0; i < 40; ++i) {
        auto drv = [&](Simulator &s) {
            for (unsigned j = 0; j < 4; ++j)
                s.setInput(a[j], fromBool((pattern >> j) & 1));
            // Exercise X phases and stable phases.
            s.setInput(x, (i % 7 < 3) ? V4::X : V4::Zero);
        };
        ev.step(drv);
        fs.step(drv);
        expectLockstepCycle(ev, fs, "small", uint64_t(i));
        for (GateId g = 0; g < nl.numGates(); ++g) {
            ASSERT_EQ(ev.value(g), fs.value(g)) << "gate " << g;
            ASSERT_EQ(ev.isActive(g), fs.isActive(g)) << "gate " << g;
        }
        if (i % 3 == 0)
            pattern = (pattern * 37 + 11) & 0xf;
    }
}

TEST(SimulatorKernel, EventDrivenMatchesFullSweepCpuXRun)
{
    // Symbolic-style single-path prefix on the full CPU: port all-X,
    // uninitialized memory -- the X-heavy regime of Algorithm 1.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov &0x0020, r4
        mov r4, &0x0130
        mov &0x0020, r5
        xor r4, r5
        mov r5, &0x0500
    )"));

    msp::System sysFs(CellLibrary::tsmc65Like());
    ASSERT_EQ(sys.netlist().numGates(), sysFs.netlist().numGates())
        << "System elaboration must be deterministic";

    for (msp::System *s : {&sys, &sysFs}) {
        s->memory().reset();
        s->loadImage(img);
        s->clearHalted();
    }
    Simulator ev(sys.netlist(), EvalMode::EventDriven);
    Simulator fs(sysFs.netlist(), EvalMode::FullSweep);
    sys.attach(ev);
    sysFs.attach(fs);
    sys.reset(ev);
    sysFs.reset(fs);
    ASSERT_EQ(ev.cycle(), fs.cycle());

    for (int c = 0; c < 220; ++c) {
        ev.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::allX());
        });
        fs.step([&](Simulator &s) {
            sysFs.driveCycle(s, Word16::allX());
        });
        expectLockstepCycle(ev, fs, "cpu-x", ev.cycle());
    }
}

TEST(SimulatorKernel, SetInputBetweenStepsPropagates)
{
    // setInput is legal between steps (not just inside a driver);
    // both kernels must see the edit: the prologue copies val_ into
    // prev_, so the input itself reads as unchanged, but consumers
    // still re-evaluate against their stale outputs.
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig in = b.input("in");
    hw::Sig n = b.inv(in);
    Bus q = b.reg(Bus{in}, "q");
    nl.finalize();

    for (EvalMode mode : {EvalMode::EventDriven, EvalMode::FullSweep}) {
        Simulator sim(nl, mode);
        sim.step([&](Simulator &s) { s.setInput(in, V4::Zero); });
        sim.step();
        EXPECT_EQ(sim.value(n), V4::One);

        sim.setInput(in, V4::One); // between steps, no driver
        sim.step();
        EXPECT_EQ(sim.value(n), V4::Zero) << "comb consumer stale";
        EXPECT_TRUE(sim.isActive(n));
        EXPECT_GT(sim.actualEnergyJ(), 0.0);
        sim.step();
        EXPECT_EQ(sim.value(q[0]), V4::One) << "flop consumer stale";
    }
}

// expectLockstepCycle plus every gate's value and activity flag.
void
expectSameGates(Simulator &a, Simulator &b, const char *what, uint64_t c)
{
    expectLockstepCycle(a, b, what, c);
    for (GateId g = 0; g < a.netlist().numGates(); ++g) {
        ASSERT_EQ(a.value(g), b.value(g))
            << what << " cycle " << c << " gate " << g;
        ASSERT_EQ(a.isActive(g), b.isActive(g))
            << what << " cycle " << c << " gate " << g;
    }
}

TEST(SimulatorKernel, DPinActivityPulseEndsAtTheSelfWokenEdge)
{
    // x is an always-active X input. r (enable e) captures it only on
    // the pulse, so d = buf(r) stays X throughout and is active in
    // exactly one cycle: a pure activity pulse, no value change. The
    // flop q on d is woken by d's activity at the next edge (q
    // active), and by its own activity at the edge after, where the
    // pulse has ended (q inactive again) -- in lockstep with the full
    // sweep, with no second edge of D-pin wake.
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig x = b.input("x");
    hw::Sig e = b.input("e");
    Bus r = b.reg(Bus{x}, "r", e);
    hw::Sig d = b.buf(r[0]);
    Bus q = b.reg(Bus{d}, "q");
    nl.finalize();

    Simulator ev(nl, EvalMode::EventDriven);
    Simulator fs(nl, EvalMode::FullSweep);
    constexpr int kPulse = 6; // the cycle whose driver raises e
    for (int c = 0; c < 12; ++c) {
        auto drv = [&](Simulator &s) {
            s.setInput(x, V4::X);
            s.setInput(e, c == kPulse ? V4::One : V4::Zero);
        };
        ev.step(drv);
        fs.step(drv);
        expectSameGates(ev, fs, "pulse", uint64_t(c));
        if (c < 3)
            continue; // power-on X settling
        EXPECT_EQ(ev.value(d), V4::X);
        EXPECT_EQ(ev.isActive(d), c == kPulse + 1) << "cycle " << c;
        EXPECT_EQ(ev.isActive(q[0]), c == kPulse + 2) << "cycle " << c;
    }
}

TEST(SimulatorKernel, BetweenStepEditsPropagateLikeFullSweep)
{
    // setInput, forceValue and injectSeuFlip between steps: the event
    // kernel must carry each edit's wake marks into the next step and
    // end up exactly where the full sweep re-derives everything.
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig in = b.input("in");
    hw::Sig en = b.input("en");
    hw::Sig n = b.inv(in);
    Bus h = b.reg(Bus{in}, "h", en); // holds while en = 0
    hw::Sig o = b.xor2(h[0], n);
    Bus z = b.reg(Bus{o}, "z");
    nl.finalize();

    Simulator ev(nl, EvalMode::EventDriven);
    Simulator fs(nl, EvalMode::FullSweep);
    uint64_t c = 0;
    auto stepBoth = [&](V4 en_value) {
        auto drv = [&](Simulator &s) { s.setInput(en, en_value); };
        ev.step(drv);
        fs.step(drv);
        expectSameGates(ev, fs, "edit", c++);
    };
    for (Simulator *s : {&ev, &fs})
        s->setInput(in, V4::Zero);
    for (int i = 0; i < 3; ++i)
        stepBoth(V4::One); // h loads 0
    stepBoth(V4::Zero);    // from here on h holds
    ASSERT_EQ(ev.value(h[0]), V4::Zero);

    for (Simulator *s : {&ev, &fs})
        s->setInput(in, V4::One);
    for (int i = 0; i < 3; ++i)
        stepBoth(V4::Zero);
    EXPECT_EQ(ev.value(n), V4::Zero) << "setInput reached n";
    EXPECT_EQ(ev.value(z[0]), V4::Zero) << "and z through o";

    for (Simulator *s : {&ev, &fs})
        s->forceValue(h[0], V4::One);
    for (int i = 0; i < 3; ++i)
        stepBoth(V4::Zero);
    EXPECT_EQ(ev.value(h[0]), V4::One) << "held flop keeps the force";
    EXPECT_EQ(ev.value(z[0]), V4::One) << "forceValue reached z";

    // An upset between steps adds exactly its own gate to the
    // activity.
    for (Simulator *s : {&ev, &fs}) {
        ASSERT_FALSE(s->isActive(h[0])) << "held flop starts inactive";
        std::vector<uint64_t> want = s->activeBits();
        setBit(want.data(), h[0]);
        ASSERT_TRUE(s->injectSeuFlip(h[0]));
        EXPECT_EQ(s->activeBits(), want);
    }
    for (int i = 0; i < 3; ++i)
        stepBoth(V4::Zero);
    EXPECT_EQ(ev.value(h[0]), V4::Zero) << "held flop keeps the upset";
    EXPECT_EQ(ev.value(z[0]), V4::Zero) << "injectSeuFlip reached z";

    // A loading flop forced or upset between steps must be
    // re-evaluated at the next edge, which reloads its D pin.
    for (Simulator *s : {&ev, &fs})
        s->forceValue(z[0], V4::One);
    stepBoth(V4::Zero);
    EXPECT_EQ(ev.value(z[0]), V4::Zero) << "the edge reloads a forced z";
    for (Simulator *s : {&ev, &fs})
        ASSERT_TRUE(s->injectSeuFlip(z[0]));
    stepBoth(V4::Zero);
    EXPECT_EQ(ev.value(z[0]), V4::Zero) << "the edge reloads an upset z";
}

TEST(SimulatorKernel, RestoreOverStaleWakeBitsMatchesFreshSimulator)
{
    // Between-step edits leave pending and flop wake bits behind.
    // Restoring a snapshot over them must leave no trace: the
    // continuation equals a simulator that never saw the edits, and
    // the full sweep.
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    Bus a = b.busInput(4, "a");
    Bus cnt = b.busWireDecl(4, "cnt");
    Bus next = b.reg(hw::addConst(b, cnt, 1), "next");
    b.busWireConnect(cnt, next);
    Bus mix = b.busXor(cnt, a);
    Bus q = b.reg(mix, "q");
    nl.finalize();

    uint32_t pattern = 0x6;
    auto drv = [&](Simulator &s) {
        for (unsigned j = 0; j < 4; ++j)
            s.setInput(a[j], fromBool((pattern >> j) & 1));
    };
    Simulator stale(nl, EvalMode::EventDriven);
    for (int i = 0; i < 5; ++i)
        stale.step(drv);
    Simulator::Snapshot snap = stale.snapshot();

    stale.setInput(a[0], V4::X);
    stale.forceValue(cnt[1], logicNot(stale.value(cnt[1])));
    stale.injectSeuFlip(q[2]);
    stale.restore(snap);

    Simulator fresh(nl, EvalMode::EventDriven);
    Simulator fs(nl, EvalMode::FullSweep);
    fresh.restore(snap);
    fs.restore(snap);
    for (int i = 0; i < 12; ++i) {
        pattern = (pattern * 5 + 3) & 0xf;
        stale.step(drv);
        fresh.step(drv);
        fs.step(drv);
        expectSameGates(stale, fresh, "stale-vs-fresh", stale.cycle());
        expectSameGates(stale, fs, "stale-vs-full", stale.cycle());
        ASSERT_EQ(stale.hashFullState(), fresh.hashFullState());
    }
}

TEST(SimulatorKernel, SnapshotForkDivergesIndependently)
{
    // Fork a mid-program state, diverge the two continuations through
    // different port inputs, and verify (a) the divergence is real,
    // (b) replaying a continuation after the other ran reproduces it
    // exactly, (c) a fresh run matches the forked continuation.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov #8, r6
fk_loop:
        mov &0x0020, r4     ; sample the port
        add r4, r5
        dec r6
        jnz fk_loop
        mov r5, &0x0500
    )"));

    auto drive = [&](uint16_t port) {
        return [&sys, port](Simulator &s) {
            sys.driveCycle(s, Word16::known(port));
        };
    };
    auto freshTo = [&](unsigned cycles, uint16_t port) {
        sys.memory().reset();
        sys.loadImage(img);
        sys.clearHalted();
        auto sim = std::make_unique<Simulator>(sys.netlist());
        sys.attach(*sim);
        sys.reset(*sim);
        for (unsigned i = 0; i < cycles; ++i)
            sim->step(drive(port));
        return sim;
    };

    constexpr unsigned kForkAt = 50, kTail = 80;
    auto sim = freshTo(kForkAt, 0x00ff);
    Simulator::Snapshot simSnap = sim->snapshot();
    msp::System::Snapshot sysSnap = sys.snapshot();

    auto runTail = [&](uint16_t port) {
        std::vector<double> bound;
        for (unsigned i = 0; i < kTail; ++i) {
            sim->step(drive(port));
            bound.push_back(sim->boundEnergyJ());
        }
        return bound;
    };

    std::vector<double> tailA = runTail(0x00ff);
    uint64_t hashA = sim->hashFullState();

    sim->restore(simSnap);
    sys.restore(sysSnap);
    std::vector<double> tailB = runTail(0xff00);
    uint64_t hashB = sim->hashFullState();
    EXPECT_NE(hashA, hashB) << "different ports must diverge";
    EXPECT_NE(tailA, tailB);

    // Replay A after B ran: bit-identical (B left no residue).
    sim->restore(simSnap);
    sys.restore(sysSnap);
    std::vector<double> tailA2 = runTail(0x00ff);
    EXPECT_EQ(tailA, tailA2);
    EXPECT_EQ(sim->hashFullState(), hashA);

    // A fresh, snapshot-free run reaches the same states/energies.
    auto fresh = freshTo(kForkAt, 0x00ff);
    std::vector<double> freshTail;
    for (unsigned i = 0; i < kTail; ++i) {
        fresh->step(drive(0x00ff));
        freshTail.push_back(fresh->boundEnergyJ());
    }
    EXPECT_EQ(tailA, freshTail);
    EXPECT_EQ(fresh->hashFullState(), hashA);
}

TEST(Simulator, HashDiffersForDifferentState)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    Builder b(nl);
    hw::Sig a = b.input("a");
    Bus q = b.reg(Bus{a, a}, "q");
    (void)q;
    nl.finalize();

    Simulator sim(nl);
    sim.step([&](Simulator &s) { s.setInput(a, V4::Zero); });
    sim.step([&](Simulator &s) { s.setInput(a, V4::Zero); });
    uint64_t h0 = sim.hashFullState();
    sim.step([&](Simulator &s) { s.setInput(a, V4::One); });
    sim.step([&](Simulator &s) { s.setInput(a, V4::One); });
    EXPECT_NE(sim.hashFullState(), h0);
}

} // namespace
} // namespace ulpeak

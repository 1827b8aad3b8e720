/**
 * @file
 * Delta-vs-full snapshot equivalence: the sparse fork snapshots the
 * exploration core uses (Simulator::DeltaSnapshot) must be
 * indistinguishable from full state copies under every randomized
 * dirty pattern -- materialize() reproduces the full snapshot bit
 * for bit, restore(delta) into any simulator (the original or a
 * fresh clone, either kernel) continues exactly like
 * restore(full), the empty delta (no cycles between base and
 * capture) round-trips, and a delta's activity and load-history
 * entries are needed (a constructed fork continues differently with
 * either plane from its base). The dedup keys themselves (full-state
 * hashes of a bench430 run, in every kernel) are pinned to literal
 * values.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench430/benchmarks.hh"
#include "fuzz/netlist_gen.hh"
#include "fuzz/rng.hh"
#include "lint/lint.hh"
#include "msp/cpu.hh"
#include "sim/simulator.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

/** Drive @p sim for @p cycles cycles from @p sched starting at
 *  @p from (all simulators in these tests share one schedule so
 *  their states are comparable). */
void
runCycles(Simulator &sim, const std::vector<GateId> &inputs,
          const std::vector<std::vector<V4>> &sched, unsigned from,
          unsigned cycles)
{
    for (unsigned c = from; c < from + cycles; ++c) {
        sim.step([&](Simulator &s) {
            for (size_t i = 0; i < inputs.size(); ++i)
                s.setInput(inputs[i], sched[c][i]);
        });
    }
}

struct Rig {
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl{lib};
    fuzz::RandomNetlist rn;
    std::vector<std::vector<V4>> sched;

    Rig(uint64_t seed, unsigned cycles)
    {
        fuzz::Rng rng(seed);
        fuzz::NetlistGenOptions opts;
        rn = fuzz::buildRandomNetlist(nl, rng, opts);
        sched = fuzz::makeInputSchedule(
            rng, unsigned(rn.inputs.size()), cycles,
            opts.inputXPercent);
    }
};

bool
snapshotsEqual(const Simulator::Snapshot &a,
               const Simulator::Snapshot &b)
{
    return a.val == b.val && a.activeLast == b.activeLast &&
           a.loadedPrevEdge == b.loadedPrevEdge && a.cycle == b.cycle;
}

bool
deltasEqual(const Simulator::DeltaSnapshot &a,
            const Simulator::DeltaSnapshot &b)
{
    return a.base == b.base && a.valIdx == b.valIdx &&
           a.valNew == b.valNew && a.actIdx == b.actIdx &&
           a.actNew == b.actNew && a.seqIdx == b.seqIdx &&
           a.seqNew == b.seqNew && a.cycle == b.cycle;
}

// materialize(delta-vs-base) must equal the full snapshot captured
// at the same instant, across randomized dirty distances and seeds;
// capturing from the live simulator (snapshotDelta) gives the same
// delta as capturing from the full snapshot (deltaBetween).
TEST(SnapshotDelta, MaterializeEqualsFullSnapshot)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rig rig(seed, 128);
        Simulator sim(rig.nl);
        fuzz::Rng rng(seed * 977);

        unsigned at = 0;
        runCycles(sim, rig.rn.inputs, rig.sched, at, 8);
        at += 8;
        auto base = std::make_shared<const Simulator::Snapshot>(
            sim.snapshot());
        while (at < 110) {
            unsigned gap = 1 + rng.below(12); // randomized dirtying
            runCycles(sim, rig.rn.inputs, rig.sched, at, gap);
            at += gap;
            Simulator::Snapshot full = sim.snapshot();
            Simulator::DeltaSnapshot delta =
                Simulator::deltaBetween(full, base);
            EXPECT_TRUE(
                snapshotsEqual(Simulator::materialize(delta), full))
                << "seed " << seed << " cycle " << at;
            EXPECT_TRUE(deltasEqual(sim.snapshotDelta(base), delta))
                << "seed " << seed << " cycle " << at;
        }
    }
}

// The empty delta: capturing immediately after the base stores
// nothing and still restores the full state.
TEST(SnapshotDelta, EmptyDeltaRoundTrips)
{
    Rig rig(3, 16);
    Simulator sim(rig.nl);
    runCycles(sim, rig.rn.inputs, rig.sched, 0, 10);
    auto base = std::make_shared<const Simulator::Snapshot>(
        sim.snapshot());
    Simulator::DeltaSnapshot delta =
        Simulator::deltaBetween(sim.snapshot(), base);
    EXPECT_EQ(delta.deltaBytes(), 0u);
    EXPECT_TRUE(snapshotsEqual(Simulator::materialize(delta), *base));

    Simulator clone(rig.nl);
    clone.restore(delta);
    EXPECT_EQ(clone.hashFullState(), sim.hashFullState());
    EXPECT_EQ(clone.cycle(), sim.cycle());
}

// restore(delta) and restore(full) are interchangeable: restoring
// either form into a fresh clone (and into a simulator of the
// *other* kernel) must produce identical continuations, cycle by
// cycle, to the straight-line run.
TEST(SnapshotDelta, RestoreIntoCloneMatchesFullRestore)
{
    for (uint64_t seed = 11; seed <= 14; ++seed) {
        Rig rig(seed, 64);
        Simulator sim(rig.nl);
        runCycles(sim, rig.rn.inputs, rig.sched, 0, 12);
        auto base = std::make_shared<const Simulator::Snapshot>(
            sim.snapshot());
        runCycles(sim, rig.rn.inputs, rig.sched, 12, 9);
        Simulator::Snapshot full = sim.snapshot();
        Simulator::DeltaSnapshot delta =
            Simulator::deltaBetween(full, base);

        // Continue the original to the end of the schedule.
        runCycles(sim, rig.rn.inputs, rig.sched, 21, 43);

        Simulator viaFull(rig.nl);
        viaFull.restore(full);
        Simulator viaDelta(rig.nl);
        viaDelta.restore(delta);
        Simulator viaDeltaFullSweep(rig.nl, EvalMode::FullSweep);
        viaDeltaFullSweep.restore(delta);
        EXPECT_EQ(viaFull.hashFullState(), viaDelta.hashFullState());
        EXPECT_EQ(viaFull.activeBits(), viaDelta.activeBits());

        for (unsigned c = 21; c < 64; ++c) {
            auto drive = [&](Simulator &s) {
                for (size_t i = 0; i < rig.rn.inputs.size(); ++i)
                    s.setInput(rig.rn.inputs[i], rig.sched[c][i]);
            };
            viaFull.step(drive);
            viaDelta.step(drive);
            viaDeltaFullSweep.step(drive);
            ASSERT_EQ(viaFull.hashFullState(),
                      viaDelta.hashFullState())
                << "seed " << seed << " cycle " << c;
            ASSERT_EQ(viaFull.boundEnergyJ(), viaDelta.boundEnergyJ());
            ASSERT_EQ(viaFull.hashFullState(),
                      viaDeltaFullSweep.hashFullState())
                << "seed " << seed << " cycle " << c
                << " (FullSweep clone)";
        }
        EXPECT_EQ(viaDelta.hashFullState(), sim.hashFullState())
            << "restored continuation diverged from the "
               "straight-line run";
    }
}

/** The first difference between @p a and @p b after a step (values,
 *  activity, energies), or "" when they agree. */
std::string
firstDifference(const Simulator &a, const Simulator &b)
{
    for (GateId g = 0; g < GateId(a.netlist().numGates()); ++g)
        if (a.value(g) != b.value(g))
            return "value of gate " + std::to_string(g);
    if (a.activeBits() != b.activeBits())
        return "activity";
    if (a.boundEnergyJ() != b.boundEnergyJ())
        return "bound energy";
    if (a.actualEnergyJ() != b.actualEnergyJ())
        return "actual energy";
    return "";
}

// A fork's delta must carry its own activity and load-history planes:
// restored with either plane taken from the base instead, a fork
// continues differently. Forks of bench430 programs do not show it (a
// full fork-tree walk of rle, binSearch, PI, tHold, div and inSort with
// both planes from the reset snapshot stepped identically to the true
// restore), so the counterexample is a constructed one. F1 = Dffe(x, en)
// holds an X once en drops, B = Buf(F1) and F2 = Dff(B), G = Dffe(B, en).
// The base is taken while F1 still loads (B active, G loaded); the fork
// after two held edges (B quiet, G held). At the next edge, en = 1:
//  - F2 reloads the same X with B quiet, so it is inactive -- with the
//    base's activity, B looks active and F2 is billed;
//  - G loads the X after a held edge, so it may toggle -- with the
//    base's load history, G looks reloaded and is not billed.
TEST(SnapshotDelta, ForkNeedsItsOwnActivityAndLoadHistory)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    ModuleId m = nl.addModule("m");
    GateId x = nl.addGate(CellKind::Input, {}, m);
    GateId en = nl.addGate(CellKind::Input, {}, m);
    GateId f1 = nl.addGate(CellKind::Dffe, {x, en}, m);
    GateId b = nl.addGate(CellKind::Buf, {f1}, m);
    GateId f2 = nl.addGate(CellKind::Dff, {b}, m);
    GateId g = nl.addGate(CellKind::Dffe, {b, en}, m);
    nl.finalize();

    // en as each step drives it (x is X throughout); an edge reads the
    // previous step's en. Edges 1-3 load, the base follows step 2,
    // edges 4 and 5 hold, the fork follows step 5, and edge 6 loads.
    const V4 enAt[] = {V4::One,  V4::One, V4::One, V4::Zero,
                       V4::Zero, V4::One, V4::One};
    auto drive = [&](unsigned c) {
        return [&, c](Simulator &s) {
            s.setInput(x, V4::X);
            s.setInput(en, enAt[c]);
        };
    };
    for (EvalMode mode : {EvalMode::EventDriven, EvalMode::FullSweep}) {
        SCOPED_TRACE(int(mode));
        Simulator sim(nl, mode);
        for (unsigned c = 0; c < 3; ++c)
            sim.step(drive(c));
        EXPECT_TRUE(sim.isActive(b));
        auto base =
            std::make_shared<const Simulator::Snapshot>(sim.snapshot());
        for (unsigned c = 3; c < 6; ++c)
            sim.step(drive(c));
        EXPECT_FALSE(sim.isActive(b));
        const Simulator::DeltaSnapshot fork =
            Simulator::deltaBetween(sim.snapshot(), base);

        Simulator::DeltaSnapshot actFromBase = fork;
        actFromBase.actIdx.clear();
        actFromBase.actNew.clear();
        Simulator::DeltaSnapshot loadFromBase = fork;
        loadFromBase.seqIdx.clear();
        loadFromBase.seqNew.clear();
        Simulator truth(nl, mode), noAct(nl, mode), noLoad(nl, mode);
        truth.restore(fork);
        noAct.restore(actFromBase);
        noLoad.restore(loadFromBase);
        for (Simulator *s : {&sim, &truth, &noAct, &noLoad})
            s->step(drive(6));

        EXPECT_EQ(firstDifference(truth, sim), "");
        EXPECT_FALSE(truth.isActive(f2));
        EXPECT_TRUE(noAct.isActive(f2));
        EXPECT_EQ(firstDifference(truth, noAct), "activity");
        EXPECT_TRUE(truth.isActive(g));
        EXPECT_FALSE(noLoad.isActive(g));
        EXPECT_EQ(firstDifference(truth, noLoad), "activity");
        EXPECT_LT(noLoad.boundEnergyJ(), truth.boundEnergyJ());
    }
}

// A snapshot or a delta base from a different netlist must be
// rejected loudly, not silently mis-applied.
TEST(SnapshotDelta, MismatchedBaseThrows)
{
    Rig rigA(21, 8);
    fuzz::NetlistGenOptions bigger;
    bigger.numCombGates = 40;
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nlB(lib);
    fuzz::Rng rng(22);
    fuzz::buildRandomNetlist(nlB, rng, bigger);

    Simulator simA(rigA.nl);
    runCycles(simA, rigA.rn.inputs, rigA.sched, 0, 4);
    Simulator simB(nlB);
    auto baseB = std::make_shared<const Simulator::Snapshot>(
        simB.snapshot());
    EXPECT_THROW(simA.snapshotDelta(baseB), std::logic_error);
    EXPECT_THROW(Simulator::deltaBetween(simA.snapshot(), baseB),
                 std::logic_error);
    EXPECT_THROW(simA.restore(*baseB), std::logic_error);
    Simulator::DeltaSnapshot deltaB =
        Simulator::deltaBetween(*baseB, baseB);
    EXPECT_THROW(simA.restore(deltaB), std::logic_error);
    // The rejected restores left simA's state alone.
    runCycles(simA, rigA.rn.inputs, rigA.sched, 4, 4);
    EXPECT_EQ(simA.cycle(), 8u);
}

/** PI with an all-X port, this many cycles past reset: X inputs keep
 *  X activity flowing, so the keys cover values and activity alike. */
constexpr unsigned kKeyCycles = 60;

struct ScalarKeys {
    uint64_t full = 0;     ///< hashFullState()
    uint64_t snapshot = 0; ///< hashSnapshotState(snapshot())
};

ScalarKeys
scalarKeys(EvalMode mode, bool prune)
{
    msp::System &sys = test::sharedSystem();
    sys.memory().reset();
    sys.loadImage(bench430::benchmarkByName("PI").assembleImage());
    sys.clearHalted();
    Simulator sim(sys.netlist(), mode);
    sys.attach(sim);
    sys.reset(sim);
    if (prune) {
        // As the symbolic engine installs it (staticPrune).
        const msp::CpuHandles &h = sys.handles();
        lint::ConstAnalysisOptions lopts;
        lopts.portBits.assign(h.portIn.begin(), h.portIn.end());
        lopts.drivenConstants = sys.runPins();
        lint::ConstAnalysis ca =
            lint::analyzeConstants(sys.netlist(), lopts);
        sim.setStaticPrune(std::make_shared<const std::vector<uint8_t>>(
                               std::move(ca.pruneMask)),
                           sim.cycle() + 1 + ca.maxPruneDepth);
    }
    for (unsigned c = 0; c < kKeyCycles; ++c)
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::allX());
        });
    EXPECT_FALSE(sys.halted());
    EXPECT_EQ(sim.staticPruneActive(), prune);
    return {sim.hashFullState(), sim.hashSnapshotState(sim.snapshot())};
}

// The dedup keys are literal values: a change to how the state is
// hashed (byte order, activity encoding, padding) moves every key
// even when it leaves every tested report alone, and keys also break
// exact peak-power ties between candidates, so a moved key can move
// the reported peak cycle. Both scalar kernels and every lane of the
// packed kernel must produce the same key.
TEST(DedupKeys, PinnedAcrossKernels)
{
    constexpr uint64_t kKey = 523337835501358110ull;
    constexpr uint64_t kPrunedKey = 8296361778052317545ull;
    for (EvalMode mode : {EvalMode::EventDriven, EvalMode::FullSweep}) {
        SCOPED_TRACE(int(mode));
        ScalarKeys k = scalarKeys(mode, /*prune=*/false);
        EXPECT_EQ(k.full, kKey);
        EXPECT_EQ(k.snapshot, kKey);
        ScalarKeys p = scalarKeys(mode, /*prune=*/true);
        EXPECT_EQ(p.full, kPrunedKey);
        EXPECT_EQ(p.snapshot, kPrunedKey);
    }

    msp::System &sys = test::sharedSystem();
    sys.memory().reset();
    sys.loadImage(bench430::benchmarkByName("PI").assembleImage());
    msp::PackedSystem lanes(sys);
    PackedSimulator ps(sys.netlist());
    lanes.attach(ps);
    lanes.reset(ps);
    for (unsigned c = 0; c < kKeyCycles; ++c)
        ps.step([&](PackedSimulator &s) {
            lanes.driveCycle(s, Word16::allX());
        });
    EXPECT_EQ(lanes.haltedMask(), 0u);
    // The engine's dedup-key path: a lane's extracted snapshot, hashed
    // by an unpruned scalar simulator.
    Simulator hasher(sys.netlist());
    for (unsigned lane : {0u, 31u, 63u})
        EXPECT_EQ(hasher.hashSnapshotState(
                      ps.extractLaneState(lane, ps.cycle())),
                  kKey)
            << "lane " << lane;
}

} // namespace
} // namespace ulpeak

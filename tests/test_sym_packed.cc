/**
 * @file
 * Tests of the exploration frontiers: pending execution-tree paths
 * drained through the 64-lane bit-parallel kernel -- always
 * (SymbolicConfig::packedExplore) or by the automatic per-worker
 * choice -- must be invisible in every reported number. Covers the batch scheduler's edge cases
 * -- frontiers smaller than 64 lanes, lanes halting mid-batch, dedup
 * merges landing inside a batch, per-lane scenario/mode schedule
 * phases -- plus the scalar<->packed state transpose round-trip and
 * the interplay with delta snapshots, static pruning and
 * multi-threaded workers.
 */

#include <gtest/gtest.h>

#include "fuzz/properties.hh"
#include "lint/lint.hh"
#include "peak/peak_analysis.hh"
#include "sim/packed_simulator.hh"
#include "bench430/benchmarks.hh"
#include "sym/symbolic_engine.hh"
#include "sym/testing.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

peak::Options
baseOptions()
{
    peak::Options o;
    o.recordEnvelope = true;
    o.recordActiveSets = true;
    return o;
}

/** A straight-line program: the frontier never exceeds one pending
 *  path, so every packed batch runs almost empty. */
std::string
straightLineSource()
{
    return test::wrapProgram(R"(
        mov &0x0020, r4
        add r4, r4
        mov r4, &0x0130
        xor #0x5a5a, r4
        mov r4, &0x0132
    )");
}

/** Port-dependent branches over a live accumulator: forks, paths of
 *  different lengths (lanes halt mid-batch), and states that
 *  re-converge (dedup merges land inside a batch). */
std::string
forkySource(unsigned rounds)
{
    std::string body;
    for (unsigned i = 0; i < rounds; ++i) {
        std::string skip = "sp_skip_" + std::to_string(i);
        body += "        mov &0x0020, r5\n"
                "        and #1, r5\n"
                "        jz " + skip + "\n"
                "        add #1, r4\n" +
                skip + ":\n";
    }
    body += "        mov r4, &0x0130\n";
    return test::wrapProgram(body);
}

/** @p levels port-bit tests, each into two equal-length arms (one
 *  sets bit i of r5, the other bit i of r6), then ten nops: a
 *  complete binary tree of 2^(levels+1) - 1 paths with no merges,
 *  whose leaves all run the same number of cycles. */
std::string
fanSource(unsigned levels = 6)
{
    std::string body = "        mov &0x0020, r4\n";
    for (unsigned i = 0; i < levels; ++i) {
        std::string bit = "#" + std::to_string(1u << i);
        std::string zero = "fan_zero" + std::to_string(i);
        std::string join = "fan_join" + std::to_string(i);
        body += "        bit " + bit + ", r4\n"
                "        jz " + zero + "\n"
                "        bis " + bit + ", r5\n"
                "        jmp " + join + "\n" +
                zero + ":\n"
                "        bis " + bit + ", r6\n"
                "        jmp " + join + "\n" +
                join + ":\n";
    }
    for (unsigned i = 0; i < 10; ++i)
        body += "        nop\n";
    return test::wrapProgram(body);
}

/** Forks on a port bit: the taken arm halts at once, the other
 *  counts down a concrete loop for thousands of cycles -- one live
 *  lane long after the frontier has narrowed -- and then forks once
 *  more, capturing against the state it was loaded from. */
std::string
longTailSource()
{
    return test::wrapProgram(R"(
        mov &0x0020, r5
        bit #1, r5
        jz lt_done
        mov #1000, r4
lt_loop:
        dec r4
        jnz lt_loop
        mov &0x0020, r5
        bit #2, r5
        jz lt_done
        nop
lt_done:
)");
}

/** A port-bit fork whose arms re-converge: the fall-through arm runs
 *  an add/sub pair the taken arm skips, so the taken arm reaches the
 *  second fork first, in the state the fall-through arm forks in a
 *  few cycles later (a dedup merge across cycles). */
std::string
twinSource()
{
    return test::wrapProgram(R"(
        mov &0x0020, r5
        bit #1, r5
        jz tw_join
        add #1, r4
        sub #1, r4
tw_join:
        mov #0, r6
        mov #0, r7
        mov &0x0020, r5
        bit #2, r5
        jz tw_end
        add #1, r6
tw_end:
)");
}

TEST(SymPacked, AutoFrontierMatchesBothReferences)
{
    // The automatic frontier against the forced scalar and forced
    // packed references, at 1, 2 and 4 threads: a single-path
    // program, one that fills all 64 lanes, the long tail, scheduled
    // scenarios and static pruning. Everything reportDiff covers,
    // snapshot byte counters included, must agree.
    using sym::testing::Frontier;
    struct Case {
        const char *name;
        isa::Image img;
        const char *scenario;
        bool prune;
    };
    auto bench = [](const char *n) {
        return bench430::benchmarkByName(n).assembleImage();
    };
    const Case cases[] = {
        {"FFT", bench("FFT"), "unconstrained", false},
        {"rle", bench("rle"), "unconstrained", false},
        {"long-tail", isa::assemble(longTailSource()), "unconstrained",
         false},
        {"tHold/periodic-sensor", bench("tHold"), "periodic-sensor", false},
        {"tHold/duty-cycled-dvfs", bench("tHold"), "duty-cycled-dvfs",
         false},
        {"tHold/ports-grounded+prune", bench("tHold"), "ports-grounded",
         true},
    };
    msp::System &sys = test::sharedSystem();
    for (const Case &c : cases) {
        for (unsigned threads : {1u, 2u, 4u}) {
            peak::Options o = baseOptions();
            o.scenario = scenario::Scenario::preset(c.scenario);
            o.staticPrune = c.prune;
            o.numThreads = threads;
            auto run = [&](Frontier f) {
                sym::testing::ScopedFrontier forced(f);
                return peak::analyze(sys, c.img, o);
            };
            peak::Report scalar = run(Frontier::Scalar);
            peak::Report packed = run(Frontier::Packed);
            peak::Report automatic = run(Frontier::Auto);
            SCOPED_TRACE(std::string(c.name) + ", " +
                         std::to_string(threads) + " thread(s)");
            ASSERT_TRUE(scalar.ok) << scalar.error;
            EXPECT_EQ(fuzz::reportDiff(scalar, automatic), "");
            EXPECT_EQ(fuzz::reportDiff(scalar, packed), "");
            EXPECT_EQ(scalar.packedSweeps, 0u);
            if (scalar.pathsExplored == 1)
                EXPECT_EQ(automatic.packedSweeps, 0u)
                    << "a single path never builds the lanes";
            if (std::string(c.name) == "rle" && threads == 1)
                EXPECT_GT(automatic.packedLaneCycles,
                          16 * automatic.packedSweeps)
                    << "a wide frontier runs on well-filled lanes";
            if (std::string(c.name) == "long-tail") {
                // The halting arm ends within a few sweeps; the tail
                // then goes back to the scalar simulator until its
                // second fork.
                EXPECT_GT(scalar.totalCycles, 3000u);
                EXPECT_EQ(scalar.pathsExplored, 5u);
                EXPECT_LE(automatic.packedSweeps, 16u);
            }
        }
    }
}

TEST(SymPacked, LanesBeforeWorkers)
{
    // Extra workers only take a surplus beyond one full lane batch. A
    // 6-level fan never queues more than 64 paths on one deque, so one
    // worker explores it alone whatever the thread count; a 7-level
    // fan's last level queues 128 at once, and thieves may take the
    // surplus. Both must match the scalar reference exactly.
    msp::System &sys = test::sharedSystem();
    for (unsigned levels : {6u, 7u}) {
        isa::Image img = isa::assemble(fanSource(levels));
        peak::Report ref;
        {
            sym::testing::ScopedFrontier scalar(
                sym::testing::Frontier::Scalar);
            ref = peak::analyze(sys, img, baseOptions());
        }
        ASSERT_TRUE(ref.ok) << ref.error;
        ASSERT_EQ(ref.pathsExplored, (2u << levels) - 1);
        peak::Options o = baseOptions();
        o.numThreads = 4;
        peak::Report r = peak::analyze(sys, img, o);
        SCOPED_TRACE(std::to_string(levels) + " levels");
        EXPECT_EQ(fuzz::reportDiff(ref, r), "");
        if (levels == 6) {
            EXPECT_EQ(r.steals, 0u);
            for (size_t w = 1; w < r.perWorkerCycles.size(); ++w)
                EXPECT_EQ(r.perWorkerCycles[w], 0u) << "worker " << w;
        } else {
            // A steal is a surplus batch: at most 64 paths each.
            EXPECT_LE(r.steals, 3u * PackedSimulator::kLanes);
        }
    }
}

TEST(SymPacked, SmallFrontierMatchesScalar)
{
    // Frontier stays below 64 lanes the whole run (a handful of
    // paths): partial batches must still be bit-identical.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(straightLineSource());

    peak::Options scalar = baseOptions();
    peak::Report rs = peak::analyze(sys, img, scalar);
    ASSERT_TRUE(rs.ok) << rs.error;

    peak::Options packed = scalar;
    packed.packedExplore = true;
    peak::Report rp = peak::analyze(sys, img, packed);
    EXPECT_EQ(fuzz::reportDiff(rs, rp), "");

    // The packed run actually went through the batched path, and its
    // occupancy stats are sane: live-lane cycles can never exceed
    // 64 x sweeps.
    EXPECT_GT(rp.packedBatches, 0u);
    EXPECT_GT(rp.packedSweeps, 0u);
    EXPECT_LE(rp.packedLaneCycles, 64 * rp.packedSweeps);
    EXPECT_EQ(rs.packedSweeps, 0u); // scalar runs report zero
}

TEST(SymPacked, ForkHeavyTreeWithMidBatchHaltsAndDedup)
{
    // Wide tree: lanes fork, halt at different cycles inside one
    // batch, and re-converged states dedup-merge while other lanes
    // are still running.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(12));

    peak::Report rs = peak::analyze(sys, img, baseOptions());
    ASSERT_TRUE(rs.ok) << rs.error;
    ASSERT_GT(rs.pathsExplored, 10u);
    ASSERT_GT(rs.dedupMerges, 0u);

    peak::Options packed = baseOptions();
    packed.packedExplore = true;
    peak::Report rp = peak::analyze(sys, img, packed);
    EXPECT_EQ(fuzz::reportDiff(rs, rp), "");
    // With dozens of pending paths, batches must actually pack
    // multiple lanes: mean occupancy strictly above one lane.
    EXPECT_GT(rp.packedLaneCycles, rp.packedSweeps);
}

TEST(SymPacked, ScenarioAndModeSchedulePhasesPerLane)
{
    // Lanes at different absolute cycles sit in different phases of
    // the scenario's port schedule and DVFS mode schedule; per-lane
    // phase bookkeeping must reproduce the scalar engine exactly.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(8));

    for (const char *name :
         {"periodic-sensor", "duty-cycled-dvfs", "sensor-4bit"}) {
        peak::Options scalar = baseOptions();
        scalar.scenario = scenario::Scenario::preset(name);
        peak::Report rs = peak::analyze(sys, img, scalar);

        peak::Options packed = scalar;
        packed.packedExplore = true;
        peak::Report rp = peak::analyze(sys, img, packed);
        SCOPED_TRACE(name);
        EXPECT_EQ(fuzz::reportDiff(rs, rp), "");
    }
}

TEST(SymPacked, SnapshotModesAndStaticPruneInterplay)
{
    // The packed frontier loads lanes from delta-materialized and
    // full snapshots alike, and static pruning changes the dedup
    // hash basis but not the numbers -- all four combinations must
    // agree with the scalar delta baseline.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(10));

    peak::Options ref = baseOptions();
    ref.scenario = scenario::Scenario::preset("ports-grounded");
    peak::Report rs = peak::analyze(sys, img, ref);
    ASSERT_TRUE(rs.ok) << rs.error;

    for (bool fullSnap : {false, true}) {
        for (bool prune : {false, true}) {
            peak::Options packed = ref;
            packed.packedExplore = true;
            packed.snapshotMode = fullSnap ? sym::SnapshotMode::Full
                                           : sym::SnapshotMode::Delta;
            packed.staticPrune = prune;
            peak::Report rp = peak::analyze(sys, img, packed);
            SCOPED_TRACE((fullSnap ? "full" : "delta") +
                         std::string(prune ? "+prune" : ""));
            EXPECT_EQ(fuzz::reportDiff(rs, rp), "");
        }
    }
}

TEST(SymPacked, MultiThreadPackedDeterminism)
{
    // Workers race to refill lanes from their own deques and steal
    // from others; the reports must not notice.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(10));

    peak::Options packed = baseOptions();
    packed.packedExplore = true;
    peak::Report r1 = peak::analyze(sys, img, packed);
    ASSERT_TRUE(r1.ok) << r1.error;

    packed.numThreads = 3;
    peak::Report rk = peak::analyze(sys, img, packed);
    EXPECT_EQ(fuzz::reportDiff(r1, rk), "");
}

TEST(SymPacked, CycleBudgetHoldsAtTheBoundary)
{
    // The total cycle budget is reserved before cycles are simulated,
    // by both frontiers alike: a 64-lane sweep must not overrun it,
    // and a budget of exactly the tree's cycle count must suffice.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(fanSource());
    peak::Report ref = peak::analyze(sys, img, baseOptions());
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_EQ(ref.pathsExplored, 127u);
    const uint64_t T = ref.totalCycles;

    for (uint64_t budget : {T - 50, T}) {
        for (bool packed : {false, true}) {
            for (unsigned threads : {1u, 2u}) {
                peak::Options o = baseOptions();
                o.maxTotalCycles = budget;
                o.packedExplore = packed;
                o.numThreads = threads;
                peak::Report r = peak::analyze(sys, img, o);
                SCOPED_TRACE(std::string(packed ? "packed" : "scalar") +
                             ", " + std::to_string(threads) +
                             " thread(s), budget T" +
                             (budget < T ? "-50" : ""));
                if (budget < T) {
                    EXPECT_FALSE(r.ok);
                    EXPECT_EQ(r.error, "symbolic cycle budget exhausted");
                    EXPECT_LE(r.totalCycles, budget);
                } else {
                    EXPECT_EQ(fuzz::reportDiff(ref, r), "");
                }
            }
        }
    }
}

TEST(SymPacked, FailuresMatchScalar)
{
    // Every engine failure, reached after a port-dependent fork so
    // that the packed frontier meets it with more than one live lane:
    // both frontiers, serial and parallel, must fail with the same
    // error.
    const std::string fork = R"(
        mov &0x0020, r6
        bit #1, r6
        jz fm_join
        nop
fm_join:
)";
    const std::string loop = R"(
        mov #10000, r4
fm_loop:
        dec r4
        jnz fm_loop
)";
    struct Case {
        const char *name;
        std::string body;
        uint64_t maxPathCycles, maxTotalCycles;
        const char *errorPrefix;
    };
    const uint64_t kPath = 100000, kTotal = 3000000;
    const Case cases[] = {
        {"x-store",
         fork + "        mov &0x0020, r4\n"
                "        and #0x07fe, r4\n"
                "        add #0x0200, r4\n"
                "        mov #1, 0(r4)\n",
         kPath, kTotal, "store with unknown address or enable"},
        {"trap", fork + "        .word 0x0000\n", kPath, kTotal,
         "core trapped (invalid instruction)"},
        {"x-pc",
         fork + "        mov &0x0020, r4\n"
                "        and #0x000e, r4\n"
                "        add #0xf800, r4\n"
                "        mov r4, pc\n",
         kPath, kTotal, "unresolvable X program counter (op "},
        {"path-cycles", fork + loop, 200, kTotal,
         "path exceeded maxPathCycles"},
        {"cycle-budget", fork + loop, kPath, 300,
         "symbolic cycle budget exhausted"},
    };
    msp::System &sys = test::sharedSystem();
    for (const Case &c : cases) {
        isa::Image img = isa::assemble(test::wrapProgram(c.body));
        sym::SymbolicConfig cfg;
        cfg.maxPathCycles = c.maxPathCycles;
        cfg.maxTotalCycles = c.maxTotalCycles;
        sym::SymbolicResult ref = sym::SymbolicEngine(sys, cfg).run(img);
        SCOPED_TRACE(c.name);
        EXPECT_FALSE(ref.ok);
        EXPECT_EQ(ref.error.rfind(c.errorPrefix, 0), 0u) << ref.error;
        EXPECT_GT(ref.pathsExplored, 1u);
        for (bool packed : {false, true}) {
            for (unsigned threads : {1u, 2u}) {
                cfg.packedExplore = packed;
                cfg.numThreads = threads;
                sym::SymbolicResult r =
                    sym::SymbolicEngine(sys, cfg).run(img);
                SCOPED_TRACE(std::string(packed ? "packed" : "scalar") +
                             ", " + std::to_string(threads) +
                             " thread(s)");
                EXPECT_EQ(r.ok, ref.ok);
                EXPECT_EQ(r.error, ref.error);
            }
        }
    }
}

/** Two fan levels on port bits 0 and 1, then a split on r7 (set per
 *  scenario by reg_init): with r7 != 0 an X-address store @p delay
 *  nops later fails the analysis, with r7 == 0 the path fans on port
 *  bits 2-4. Varying @p delay moves the failure across the sibling's
 *  fork sweeps. */
std::string
failOrForkSource(unsigned delay)
{
    auto level = [](unsigned i) {
        std::string bit = "#" + std::to_string(1u << i);
        std::string zero = "ff_zero" + std::to_string(i);
        std::string join = "ff_join" + std::to_string(i);
        return "        bit " + bit + ", r4\n"
               "        jz " + zero + "\n"
               "        bis " + bit + ", r5\n"
               "        jmp " + join + "\n" +
               zero + ":\n"
               "        bis " + bit + ", r6\n"
               "        jmp " + join + "\n" +
               join + ":\n";
    };
    std::string body = "        mov &0x0020, r4\n" + level(0) + level(1) +
                       "        tst r7\n"
                       "        jz ff_fork\n";
    for (unsigned i = 0; i < delay; ++i)
        body += "        nop\n";
    body += "        mov r4, r8\n"
            "        and #0x07fe, r8\n"
            "        add #0x0200, r8\n"
            "        mov #1, 0(r8)\n"
            "ff_fork:\n" +
            level(2) + level(3) + level(4);
    return test::wrapProgram(body);
}

TEST(SymPacked, GroupFailureMidSweepLeavesSiblingsAlone)
{
    // One context of a group fails in the middle of a sweep's reading
    // loop, retiring its lanes, while its sibling's lanes fork and copy
    // children into free lanes -- possibly lanes the failure freed
    // that the loop has not read yet. Every row must equal its
    // analysis run alone.
    msp::System &sys = test::sharedSystem();
    scenario::Scenario forks, fails;
    forks.name = "forks";
    forks.regInit = {{7, 0}};
    fails.name = "fails";
    fails.regInit = {{7, 1}};
    using sym::testing::Frontier;
    for (unsigned delay = 0; delay < 12; ++delay) {
        isa::Image img = isa::assemble(failOrForkSource(delay));
        for (Frontier f : {Frontier::Auto, Frontier::Packed}) {
            SCOPED_TRACE("delay " + std::to_string(delay) +
                         (f == Frontier::Auto ? ", auto" : ", packed"));
            sym::testing::ScopedFrontier forced(f);
            std::vector<peak::Report> group = peak::analyzeGroup(
                sys, img, baseOptions(),
                {forks, fails, forks});
            ASSERT_EQ(group.size(), 3u);
            for (size_t k = 0; k < group.size(); ++k) {
                peak::Options alone = baseOptions();
                alone.scenario = k == 1 ? fails : forks;
                peak::Report ref = peak::analyze(sys, img, alone);
                EXPECT_EQ(fuzz::reportDiff(ref, group[k]), "")
                    << "row " << k;
            }
            EXPECT_TRUE(group[0].ok) << group[0].error;
            EXPECT_FALSE(group[1].ok);
            EXPECT_GT(group[0].laneCopies, 0u);
        }
    }
}

TEST(SymPacked, TreeWiderThanTheLanesQueuesAndReloads)
{
    // A 7-level fan puts 128 paths at its last level: with every lane
    // taken, forked children leave the lanes (extracted, captured,
    // queued) and come back through reloads, beside in-place
    // continuations and lane copies. All of it equals the scalar
    // reference.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(fanSource(7));
    peak::Report ref;
    {
        sym::testing::ScopedFrontier scalar(sym::testing::Frontier::Scalar);
        ref = peak::analyze(sys, img, baseOptions());
    }
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_EQ(ref.pathsExplored, 255u);
    EXPECT_EQ(ref.laneLoads + ref.laneCopies + ref.laneExtracts, 0u);
    EXPECT_EQ(ref.forkCaptures, 127u) << "every scalar fork captures";
    for (auto f : {sym::testing::Frontier::Auto,
                   sym::testing::Frontier::Packed}) {
        sym::testing::ScopedFrontier forced(f);
        peak::Report r = peak::analyze(sys, img, baseOptions());
        SCOPED_TRACE(f == sym::testing::Frontier::Auto ? "auto" : "packed");
        EXPECT_EQ(fuzz::reportDiff(ref, r), "");
        EXPECT_GT(r.laneContinues, 0u);
        EXPECT_GT(r.laneCopies, 0u);
        EXPECT_GT(r.laneExtracts, 0u);
        EXPECT_GT(r.laneLoads, 1u);
        // On the lanes alone, a fork captures only for a child that
        // leaves them, through an extract.
        if (f == sym::testing::Frontier::Packed)
            EXPECT_LE(r.forkCaptures, r.laneExtracts);
    }
}

TEST(SymPacked, LaneForkAtThePruneEngageCycle)
{
    // A lane's fork state is hashed where it is, at the path's
    // simulator cycle, and the prune basis of the hash switches at
    // exactly the engage cycle. Engage pruning at the cycle the taken
    // arm of twinSource forks: automatically, the root runs on the
    // scalar simulator and the arms on the lanes, and the fall-through
    // arm must merge into the taken arm's fork as on the scalar
    // reference. A lane hashed one cycle early keys that fork unpruned
    // and loses the merge.
    using sym::testing::Frontier;
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(twinSource());
    peak::Options o = baseOptions();
    o.staticPrune = true;

    // The taken arm's fork cycle, read off the (unpruned) scalar tree.
    sym::SymbolicResult plain;
    {
        sym::testing::ScopedFrontier scalar(Frontier::Scalar);
        plain = sym::SymbolicEngine(sys, sym::SymbolicConfig{}).run(img);
    }
    ASSERT_TRUE(plain.ok) << plain.error;
    const sym::TreeNode &root = plain.tree.node(0);
    ASSERT_EQ(root.edges.size(), 2u);
    size_t firstArm = std::min(
        plain.tree.node(root.edges[0].child).powerW.size(),
        plain.tree.node(root.edges[1].child).powerW.size());
    uint64_t forkCycle =
        msp::System::kResetCycles + root.powerW.size() + firstArm;
    uint64_t engage = msp::System::kResetCycles + 1 +
                      lint::analyzeConstants(sys, o.scenario).maxPruneDepth;
    ASSERT_GT(forkCycle, engage);
    sym::testing::ScopedPruneDelay delay(forkCycle - engage);

    auto run = [&](Frontier f) {
        sym::testing::ScopedFrontier forced(f);
        return peak::analyze(sys, img, o);
    };
    peak::Report scalar = run(Frontier::Scalar);
    ASSERT_TRUE(scalar.ok) << scalar.error;
    EXPECT_EQ(scalar.dedupMerges, 2u) << "the arms re-converge";
    for (Frontier f : {Frontier::Auto, Frontier::Packed}) {
        peak::Report r = run(f);
        SCOPED_TRACE(f == Frontier::Auto ? "auto" : "packed");
        EXPECT_GT(r.packedSweeps, 0u);
        EXPECT_EQ(fuzz::reportDiff(scalar, r), "");
    }
}

TEST(SymPacked, LaneStateTransposeRoundTrip)
{
    // Scalar snapshot -> loadLaneState -> extractLaneState must be
    // the identity, from a mid-run state with real activity flags and
    // clocked sequential history on several distinct lanes.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(straightLineSource());
    sys.memory().reset();
    sys.loadImage(img);
    sys.clearHalted();

    Simulator sim(sys.netlist());
    sys.attach(sim);
    sys.reset(sim);
    std::vector<Simulator::Snapshot> snaps;
    for (int burst = 0; burst < 3; ++burst) {
        for (int c = 0; c < 7; ++c)
            sim.step([&](Simulator &s) {
                sys.driveCycle(s, Word16::allX());
            });
        snaps.push_back(sim.snapshot());
    }

    PackedSimulator ps(sys.netlist());
    ps.step(); // packed edge functions arm only after one cycle
    for (unsigned lane : {0u, 17u, 63u})
        ps.loadLaneState(lane, snaps[lane % snaps.size()]);

    for (unsigned lane : {0u, 17u, 63u}) {
        const Simulator::Snapshot &in = snaps[lane % snaps.size()];
        Simulator::Snapshot out = ps.extractLaneState(lane, in.cycle);
        SCOPED_TRACE(lane);
        EXPECT_EQ(in.val, out.val);
        EXPECT_EQ(in.activeLast, out.activeLast);
        EXPECT_EQ(in.loadedPrevEdge, out.loadedPrevEdge);
        EXPECT_EQ(in.cycle, out.cycle);
    }
}

} // namespace
} // namespace ulpeak

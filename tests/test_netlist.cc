/**
 * @file
 * Unit tests for the netlist graph, levelization and stats.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "msp/cpu.hh"
#include "netlist/netlist.hh"

namespace ulpeak {
namespace {

/** Level of scheduled node @p node: the level bucket holding its
 *  position. */
uint32_t
levelOf(const FlatNetlist &f, uint32_t node)
{
    uint32_t pos = f.posOfNode[node];
    return uint32_t(std::upper_bound(f.levelOffset.begin(),
                                     f.levelOffset.end(), pos) -
                    f.levelOffset.begin()) -
           1;
}

/**
 * Pin every schedule position's NodeRecord against its Gate: node,
 * class, truth-table row, pin mask, fanins, pads (pin 0 repeated, so
 * a four-pin activity OR adds nothing) and the fanout range; and
 * posOfNode inverts record.node.
 */
void
expectRecordsMirrorGates(const Netlist &nl)
{
    const FlatNetlist &f = nl.flat();
    uint32_t n = f.numGates;
    ASSERT_EQ(f.levelOffset.back(), f.records.size());
    std::vector<unsigned> seen(f.numNodes(), 0);
    for (uint32_t pos = 0; pos < f.records.size(); ++pos) {
        const NodeRecord &r = f.records[pos];
        ASSERT_LT(r.node, f.numNodes()) << "pos " << pos;
        ++seen[r.node];
        EXPECT_EQ(f.posOfNode[r.node], pos) << "pos " << pos;
        if (r.node >= n) {
            EXPECT_EQ(r.cls, NodeClass::Hook) << "pos " << pos;
            EXPECT_EQ(r.fanout.begin, r.fanout.end) << "pos " << pos;
            continue;
        }
        const Gate &gate = nl.gate(r.node);
        NodeClass cls = NodeClass::Logic;
        if (gate.kind == CellKind::Input)
            cls = NodeClass::Input;
        else if (gate.kind == CellKind::Const0 ||
                 gate.kind == CellKind::Const1)
            cls = NodeClass::Const;
        EXPECT_EQ(r.cls, cls) << "pos " << pos;
        EXPECT_EQ(r.row, unsigned(gate.kind) * kPackedFaninStates)
            << "pos " << pos;
        EXPECT_EQ(r.pinMask, (1u << (2 * gate.nin)) - 1) << "pos " << pos;
        for (unsigned p = 0; p < 4; ++p) {
            GateId want = p < gate.nin ? gate.in[p]
                          : gate.nin   ? gate.in[0]
                                       : 0;
            EXPECT_EQ(r.in[p], want) << "pos " << pos << " pin " << p;
        }
        EXPECT_EQ(r.fanout.begin, f.fanoutOffset[r.node]) << "pos " << pos;
        EXPECT_EQ(r.fanout.end, f.fanoutOffset[r.node + 1])
            << "pos " << pos;
    }
    for (uint32_t node = 0; node < f.numNodes(); ++node) {
        bool seq = node < n && isSequential(nl.gate(node).kind);
        EXPECT_EQ(seen[node], seq ? 0u : 1u) << "node " << node;
        if (seq) {
            EXPECT_EQ(f.posOfNode[node], kNoLevel) << "node " << node;
        }
    }
}

class NetlistTest : public ::testing::Test {
  protected:
    NetlistTest() : lib(CellLibrary::tsmc65Like()), nl(lib) {}
    CellLibrary lib;
    Netlist nl;
};

TEST_F(NetlistTest, AddGatesAndModules)
{
    ModuleId m = nl.addModule("alu");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId b = nl.addGate(CellKind::Input, {}, m);
    GateId c = nl.addGate(CellKind::And2, {a, b}, m);
    EXPECT_EQ(nl.numGates(), 3u);
    EXPECT_EQ(nl.gate(c).kind, CellKind::And2);
    EXPECT_EQ(nl.gate(c).in[0], a);
    EXPECT_EQ(nl.moduleName(m), "alu");
}

TEST_F(NetlistTest, WrongFaninCountRejected)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    EXPECT_THROW(nl.addGate(CellKind::And2, {a}, m),
                 std::invalid_argument);
    EXPECT_THROW(nl.addGate(CellKind::Inv, {a, a}, m),
                 std::invalid_argument);
}

TEST_F(NetlistTest, LevelizeOrdersFanins)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId b = nl.addGate(CellKind::Inv, {a}, m);
    GateId c = nl.addGate(CellKind::And2, {a, b}, m);
    GateId d = nl.addGate(CellKind::Inv, {c}, m);
    nl.finalize();

    const std::vector<uint32_t> &pos = nl.flat().posOfNode;
    EXPECT_LT(pos[a], pos[b]);
    EXPECT_LT(pos[b], pos[c]);
    EXPECT_LT(pos[c], pos[d]);
}

TEST_F(NetlistTest, FlatViewMirrorsGates)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId b = nl.addGate(CellKind::Inv, {a}, m);
    GateId c = nl.addGate(CellKind::And2, {a, b}, m);
    GateId q = nl.addGate(CellKind::Dff, {c}, m);
    GateId d = nl.addGate(CellKind::Xor2, {q, b}, m);
    nl.finalize();

    const FlatNetlist &f = nl.flat();
    ASSERT_EQ(f.numGates, nl.numGates());
    expectRecordsMirrorGates(nl);
    for (GateId g = 0; g < nl.numGates(); ++g) {
        ASSERT_EQ(f.transE.size(), 3 * nl.numGates());
        EXPECT_EQ(f.transE[3 * g + kTransRise], nl.riseEnergyJ(g));
        EXPECT_EQ(f.transE[3 * g + kTransFall], nl.fallEnergyJ(g));
        EXPECT_EQ(f.transE[3 * g + kTransMax],
                  std::max(nl.riseEnergyJ(g), nl.fallEnergyJ(g)));
        EXPECT_EQ(nl.maxEnergyJ(g), f.transE[3 * g + kTransMax]);
    }

    // Fanout CSR: the combinational consumers as schedule positions,
    // then the flop consumers past seqWakeBase. The Dff q consumes c
    // at the edge, so c has only a sequential entry; q feeds d.
    ASSERT_EQ(f.seqWakeBase % 64, 0u);
    ASSERT_GE(f.seqWakeBase, f.records.size());
    auto fanoutsOf = [&](GateId g) {
        std::vector<GateId> out;
        for (uint32_t i = f.fanoutOffset[g]; i < f.fanoutOffset[g + 1];
             ++i) {
            uint32_t w = f.fanoutPos[i];
            out.push_back(w < f.seqWakeBase
                              ? f.records[w].node
                              : nl.seqGates()[w - f.seqWakeBase]);
        }
        return out;
    };
    EXPECT_EQ(fanoutsOf(a), (std::vector<GateId>{b, c}));
    EXPECT_EQ(fanoutsOf(b), (std::vector<GateId>{c, d}));
    EXPECT_EQ(fanoutsOf(c), std::vector<GateId>{q});
    EXPECT_EQ(fanoutsOf(q), std::vector<GateId>{d});
}

TEST_F(NetlistTest, FlatScheduleIsLevelizedTopologicalOrder)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId b = nl.addGate(CellKind::Inv, {a}, m);
    GateId c = nl.addGate(CellKind::And2, {a, b}, m);
    GateId q = nl.addGate(CellKind::Dff, {c}, m);
    GateId hookOut = nl.addGate(CellKind::Input, {}, m);
    nl.addHook(BehavioralHook{"h", {c}, {hookOut}});
    GateId d = nl.addGate(CellKind::Xor2, {hookOut, q}, m);
    nl.finalize();

    const FlatNetlist &f = nl.flat();
    uint32_t n = f.numGates;
    ASSERT_EQ(f.numHooks, 1u);

    // Every non-sequential node is scheduled exactly once, level
    // buckets are contiguous and ascending, and posOfNode inverts the
    // schedule.
    expectRecordsMirrorGates(nl);
    for (uint32_t l = 0; l < f.numLevels; ++l)
        EXPECT_LT(f.levelOffset[l], f.levelOffset[l + 1]) << "level " << l;

    // Dependencies strictly precede consumers: combinational fanins,
    // hook dependencies, and hook outputs all sit at lower levels.
    EXPECT_LT(levelOf(f, a), levelOf(f, b));
    EXPECT_LT(levelOf(f, b), levelOf(f, c));
    uint32_t hookNode = n + 0;
    EXPECT_LT(levelOf(f, c), levelOf(f, hookNode));
    EXPECT_LT(levelOf(f, hookNode), levelOf(f, hookOut));
    EXPECT_LT(levelOf(f, hookOut), levelOf(f, d));

    // Every combinational fanout position lies strictly above its
    // producer's (the event kernel's ascending-position drain relies
    // on it), and sequential entries follow combinational ones.
    for (GateId g = 0; g < n; ++g) {
        bool seen_seq = false;
        for (uint32_t i = f.fanoutOffset[g]; i < f.fanoutOffset[g + 1];
             ++i) {
            uint32_t w = f.fanoutPos[i];
            if (w >= f.seqWakeBase) {
                seen_seq = true;
                continue;
            }
            EXPECT_FALSE(seen_seq) << "gate " << g;
            if (!isSequential(nl.gate(g).kind))
                EXPECT_GT(w, f.posOfNode[g]) << "gate " << g;
        }
    }
}

// Hooks, Inputs and Consts share levels with logic: the tie cells
// beside an Input at level 0, a hook beside two level-2 gates, its
// Input output beside a level-3 gate.
TEST_F(NetlistTest, RecordsMirrorGatesAcrossClasses)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId one = nl.addGate(CellKind::Const1, {}, m);
    GateId zero = nl.addGate(CellKind::Const0, {}, m);
    GateId inv = nl.addGate(CellKind::Inv, {a}, m);
    GateId nand = nl.addGate(CellKind::Nand3, {inv, one, a}, m);
    GateId mux = nl.addGate(CellKind::Mux2, {inv, zero, a}, m);
    GateId q = nl.addGate(CellKind::Dffre, {nand, mux, one}, m);
    GateId hookOut = nl.addGate(CellKind::Input, {}, m);
    nl.addHook(BehavioralHook{"h", {inv}, {hookOut}});
    GateId aoi = nl.addGate(CellKind::Aoi22, {nand, q, mux, inv}, m);
    GateId xo = nl.addGate(CellKind::Xor2, {hookOut, aoi}, m);
    GateId buf = nl.addGate(CellKind::Buf, {hookOut}, m);
    nl.finalize();

    const FlatNetlist &f = nl.flat();
    expectRecordsMirrorGates(nl);
    uint32_t hookNode = f.numGates;
    EXPECT_EQ(levelOf(f, one), levelOf(f, a));
    EXPECT_EQ(levelOf(f, zero), levelOf(f, a));
    EXPECT_EQ(levelOf(f, hookNode), levelOf(f, nand));
    EXPECT_EQ(levelOf(f, hookNode), levelOf(f, mux));
    EXPECT_EQ(levelOf(f, hookOut), levelOf(f, aoi));
    EXPECT_EQ(levelOf(f, buf), levelOf(f, xo));
    EXPECT_EQ(f.records[f.posOfNode[inv]].in,
              (std::array<GateId, 4>{a, a, a, a}));
}

TEST(NetlistRecords, MirrorGatesOnMsp430Core)
{
    msp::System sys(CellLibrary::tsmc65Like());
    expectRecordsMirrorGates(sys.netlist());
    EXPECT_GT(sys.netlist().flat().numHooks, 0u);
}

TEST_F(NetlistTest, CombinationalLoopDetected)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Inv, {kNoGate}, m);
    GateId b = nl.addGate(CellKind::Inv, {a}, m);
    nl.setFanin(a, 0, b);
    EXPECT_THROW(nl.finalize(), std::logic_error);
}

TEST_F(NetlistTest, SequentialBreaksLoops)
{
    ModuleId m = nl.addModule("m");
    GateId ff = nl.addGate(CellKind::Dff, {kNoGate}, m);
    GateId inv = nl.addGate(CellKind::Inv, {ff}, m);
    nl.setFanin(ff, 0, inv); // classic toggle flop
    EXPECT_NO_THROW(nl.finalize());
    EXPECT_EQ(nl.seqGates().size(), 1u);
    EXPECT_EQ(nl.seqGates()[0], ff);
}

TEST_F(NetlistTest, UnconnectedFaninFatal)
{
    ModuleId m = nl.addModule("m");
    nl.addGate(CellKind::Inv, {kNoGate}, m);
    EXPECT_THROW(nl.finalize(), std::logic_error);
}

TEST_F(NetlistTest, FanoutCountsAndEnergies)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId g1 = nl.addGate(CellKind::Inv, {a}, m);
    GateId g2 = nl.addGate(CellKind::Inv, {a}, m);
    GateId g3 = nl.addGate(CellKind::And2, {g1, g2}, m);
    (void)g3;
    nl.finalize();
    EXPECT_EQ(nl.fanoutCount(a), 2u);
    EXPECT_EQ(nl.fanoutCount(g1), 1u);
    EXPECT_EQ(nl.fanoutCount(g3), 0u);
    EXPECT_GT(nl.riseEnergyJ(a), 0.0);
    EXPECT_GT(nl.maxEnergyJ(g3), 0.0);
    EXPECT_GT(nl.totalLeakageW(), 0.0);
}

TEST_F(NetlistTest, HookSchedulingBetweenDependsAndOutputs)
{
    ModuleId m = nl.addModule("m");
    GateId addr = nl.addGate(CellKind::Input, {}, m);
    GateId addrInv = nl.addGate(CellKind::Inv, {addr}, m);
    GateId data = nl.addGate(CellKind::Input, {}, m);
    GateId user = nl.addGate(CellKind::Inv, {data}, m);

    BehavioralHook hook;
    hook.name = "mem";
    hook.depends = {addrInv};
    hook.outputs = {data};
    nl.addHook(hook);
    nl.finalize();

    const std::vector<uint32_t> &pos = nl.flat().posOfNode;
    uint32_t posAddrInv = pos[addrInv], posHook = pos[nl.numGates()],
             posData = pos[data], posUser = pos[user];
    EXPECT_LT(posAddrInv, posHook);
    EXPECT_LT(posHook, posData);
    EXPECT_LT(posData, posUser);
}

TEST_F(NetlistTest, TopLevelModuleResolution)
{
    ModuleId cpu = nl.addModule("cpu");
    ModuleId alu = nl.addModule("alu", cpu);
    ModuleId adder = nl.addModule("adder", alu);
    EXPECT_EQ(nl.topLevelModuleOf(adder), cpu);
    EXPECT_EQ(nl.topLevelModuleOf(alu), cpu);
    EXPECT_EQ(nl.topLevelModuleOf(cpu), cpu);
    EXPECT_EQ(nl.findModule("adder"), adder);
}

TEST_F(NetlistTest, NamesRoundTrip)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    nl.setName(a, "port_a");
    EXPECT_EQ(nl.findGate("port_a"), a);
    EXPECT_EQ(nl.gateName(a), "port_a");
    EXPECT_EQ(nl.findGate("nope"), kNoGate);
}

TEST_F(NetlistTest, StatsCountModulesAndKinds)
{
    ModuleId m1 = nl.addModule("alu");
    ModuleId m2 = nl.addModule("regs");
    GateId a = nl.addGate(CellKind::Input, {}, m1);
    nl.addGate(CellKind::Inv, {a}, m1);
    nl.addGate(CellKind::Dff, {a}, m2);
    nl.finalize();
    NetlistStats s = computeStats(nl);
    EXPECT_EQ(s.totalGates, 3u);
    EXPECT_EQ(s.seqGates, 1u);
    EXPECT_EQ(s.combGates, 2u);
    EXPECT_GT(s.areaUm2, 0.0);
    std::string text = formatStats(s);
    EXPECT_NE(text.find("alu"), std::string::npos);
}

} // namespace
} // namespace ulpeak

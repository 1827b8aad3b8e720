/**
 * @file
 * Unit tests of the static netlist analysis layer (src/lint) and the
 * `ullint` CLI driver: structural lint on hand-built pathological
 * netlists (combinational loops, floating fanins, multi-driven nets,
 * dead cones, fanout hotspots), the scenario-aware constant fixpoint
 * (const cells, pinned ports, driven constants, settle depths through
 * flops, hook-driven exclusions), the energy split bookkeeping, and
 * the CLI contract (parse errors, JSON byte-identity across --jobs).
 *
 * The dynamic half of the prune-soundness story -- pruned vs unpruned
 * bound identity and concrete validation of every proven constant --
 * is fuzz property 9, fuzz::staticPruneCheck, run by
 * `ulfuzz --mode lint`; pruned runs among themselves are covered by
 * property 3 (tests/test_fuzz_sym.cc, `ulfuzz --mode invariance`).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "cli/lint_driver.hh"
#include "lint/lint.hh"
#include "msp/cpu.hh"

namespace ulpeak {
namespace {

namespace fs = std::filesystem;

class LintTest : public ::testing::Test {
  protected:
    LintTest() : lib(CellLibrary::tsmc65Like()), nl(lib) {}
    CellLibrary lib;
    Netlist nl;
};

size_t
countKind(const lint::StructuralReport &r, lint::IssueKind k)
{
    return r.count(k);
}

TEST_F(LintTest, CombLoopDetected)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId g1 = nl.addGate(CellKind::And2, {a, kNoGate}, m);
    GateId g2 = nl.addGate(CellKind::Inv, {g1}, m);
    nl.setFanin(g1, 1, g2); // g1 -> g2 -> g1
    nl.setName(g2, "observed");

    lint::StructuralReport r = lint::structuralLint(nl);
    EXPECT_EQ(countKind(r, lint::IssueKind::CombLoop), 1u);
    EXPECT_GE(r.errors(), 1u);
    for (const lint::Issue &is : r.issues) {
        if (is.kind != lint::IssueKind::CombLoop)
            continue;
        EXPECT_EQ(is.severity, lint::Severity::Error);
        EXPECT_NE(std::find(is.gates.begin(), is.gates.end(), g1),
                  is.gates.end());
        EXPECT_NE(std::find(is.gates.begin(), is.gates.end(), g2),
                  is.gates.end());
    }
}

TEST_F(LintTest, SelfLoopDetected)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId s = nl.addGate(CellKind::Or2, {a, kNoGate}, m);
    nl.setFanin(s, 1, s); // s feeds itself
    nl.setName(s, "observed");

    lint::StructuralReport r = lint::structuralLint(nl);
    EXPECT_EQ(countKind(r, lint::IssueKind::CombLoop), 1u);
}

TEST_F(LintTest, FlopBreaksCombLoop)
{
    // A cycle through a Dff is a registered feedback path, not a
    // combinational loop.
    ModuleId m = nl.addModule("m");
    GateId q = nl.addGate(CellKind::Dff, {kNoGate}, m);
    GateId inv = nl.addGate(CellKind::Inv, {q}, m);
    nl.setFanin(q, 0, inv);
    nl.setName(inv, "observed");

    lint::StructuralReport r = lint::structuralLint(nl);
    EXPECT_EQ(countKind(r, lint::IssueKind::CombLoop), 0u);
    EXPECT_EQ(r.errors(), 0u);
}

TEST_F(LintTest, FloatingInputDetected)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId f = nl.addGate(CellKind::And2, {a, kNoGate}, m);
    nl.setName(f, "observed");

    lint::StructuralReport r = lint::structuralLint(nl);
    EXPECT_EQ(countKind(r, lint::IssueKind::FloatingInput), 1u);
    EXPECT_GE(r.errors(), 1u);
}

TEST_F(LintTest, MultiDriverHookOverlapDetected)
{
    ModuleId m = nl.addModule("m");
    GateId d = nl.addGate(CellKind::Input, {}, m);
    nl.addHook({"ram", {}, {d}});
    nl.addHook({"rom", {}, {d}}); // same net claimed twice
    nl.setName(d, "observed");

    lint::StructuralReport r = lint::structuralLint(nl);
    EXPECT_EQ(countKind(r, lint::IssueKind::MultiDriver), 1u);
    EXPECT_GE(r.errors(), 1u);
}

TEST_F(LintTest, HookOnComputedGateRejectedAtConstruction)
{
    // A hook writing a gate that also computes its own value would
    // double-drive the net; Netlist::addHook refuses it outright
    // (the lint multi-driver pass remains a backstop for netlists
    // built without that check).
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId g = nl.addGate(CellKind::Inv, {a}, m);
    nl.setName(g, "observed");
    EXPECT_THROW(nl.addHook({"ram", {}, {g}}), std::exception);
}

TEST_F(LintTest, DeadConeDetected)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId obs = nl.addGate(CellKind::Inv, {a}, m);
    nl.setName(obs, "out");
    GateId d1 = nl.addGate(CellKind::Inv, {a}, m);
    GateId d2 = nl.addGate(CellKind::Inv, {d1}, m);
    (void)d2;

    lint::StructuralReport r = lint::structuralLint(nl);
    EXPECT_EQ(r.deadGates, 2u);
    EXPECT_EQ(countKind(r, lint::IssueKind::DeadGate), 1u);
    EXPECT_EQ(r.errors(), 0u); // dead gates warn, they don't fail
}

TEST_F(LintTest, HookDependsCountAsObservation)
{
    // A gate read by a behavioral hook is observed even if unnamed.
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId g = nl.addGate(CellKind::Inv, {a}, m);
    nl.addHook({"ram", {g}, {}});

    lint::StructuralReport r = lint::structuralLint(nl);
    EXPECT_EQ(r.deadGates, 0u);
}

TEST_F(LintTest, FanoutHotspotReported)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId sink = kNoGate;
    for (int i = 0; i < 4; ++i)
        sink = nl.addGate(CellKind::Inv, {a}, m);
    nl.setName(sink, "out");

    lint::StructuralOptions o;
    o.fanoutHotspotThreshold = 3;
    lint::StructuralReport r = lint::structuralLint(nl, o);
    EXPECT_EQ(r.fanoutHotspotThreshold, 3u);
    ASSERT_EQ(countKind(r, lint::IssueKind::FanoutHotspot), 1u);
    for (const lint::Issue &is : r.issues)
        if (is.kind == lint::IssueKind::FanoutHotspot) {
            EXPECT_EQ(is.severity, lint::Severity::Info);
            ASSERT_EQ(is.gates.size(), 1u);
            EXPECT_EQ(is.gates[0], a);
        }
}

TEST_F(LintTest, ConstCellConesProven)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId c0 = nl.addGate(CellKind::Const0, {}, m);
    GateId c1 = nl.addGate(CellKind::Const1, {}, m);
    GateId x = nl.addGate(CellKind::And2, {c0, a}, m); // 0 & X = 0
    GateId y = nl.addGate(CellKind::Or2, {c1, a}, m);  // 1 | X = 1
    GateId z = nl.addGate(CellKind::Xor2, {a, x}, m);  // X ^ 0 = X
    nl.setName(z, "out");
    nl.setName(y, "out2");
    nl.finalize();

    lint::ConstAnalysis ca = lint::analyzeConstants(nl, {});
    EXPECT_EQ(ca.value[x], V4::Zero);
    EXPECT_EQ(ca.value[y], V4::One);
    EXPECT_EQ(ca.value[z], V4::X);
    EXPECT_EQ(ca.value[a], V4::X); // unconstrained port stays free
    EXPECT_TRUE(ca.pruneMask[x]);
    EXPECT_TRUE(ca.pruneMask[y]);
    EXPECT_FALSE(ca.pruneMask[z]);
    EXPECT_FALSE(ca.pruneMask[a]);
    EXPECT_EQ(ca.settleDepth[x], 0u);
    EXPECT_GE(ca.provenConst, 4u); // c0, c1, x, y
}

TEST_F(LintTest, SettleDepthThroughFlops)
{
    // c1 -> inv (0) -> dff q (depth 1) -> inv w (depth 1, prunable);
    // w's proof must pass through the flop, so its settle depth
    // inherits the +1 of the sequential stage.
    ModuleId m = nl.addModule("m");
    GateId c1 = nl.addGate(CellKind::Const1, {}, m);
    GateId inv = nl.addGate(CellKind::Inv, {c1}, m);
    GateId q = nl.addGate(CellKind::Dff, {inv}, m);
    GateId w = nl.addGate(CellKind::Inv, {q}, m);
    nl.setName(w, "out");
    nl.finalize();

    lint::ConstAnalysis ca = lint::analyzeConstants(nl, {});
    EXPECT_EQ(ca.value[inv], V4::Zero);
    EXPECT_EQ(ca.value[q], V4::Zero);
    EXPECT_EQ(ca.value[w], V4::One);
    EXPECT_GE(ca.settleDepth[q], 1u); // one edge to load the flop
    EXPECT_GE(ca.provenSeq, 1u);
    EXPECT_FALSE(ca.pruneMask[q]); // sequential gates never join
    EXPECT_TRUE(ca.pruneMask[w]);
    EXPECT_GE(ca.maxPruneDepth, 1u); // w settles after q loads
}

TEST_F(LintTest, PinnedPortBitsSeedTheFixpoint)
{
    ModuleId m = nl.addModule("m");
    GateId p0 = nl.addGate(CellKind::Input, {}, m);
    GateId p1 = nl.addGate(CellKind::Input, {}, m);
    GateId i0 = nl.addGate(CellKind::Inv, {p0}, m);
    GateId i1 = nl.addGate(CellKind::Inv, {p1}, m);
    nl.setName(i0, "o0");
    nl.setName(i1, "o1");
    nl.finalize();

    lint::ConstAnalysisOptions o;
    o.portBits = {p0, p1};
    o.scenario.port.pinned = 0x0001; // bit 0 pinned to 1, bit 1 free
    o.scenario.port.value = 0x0001;
    lint::ConstAnalysis ca = lint::analyzeConstants(nl, o);
    EXPECT_EQ(ca.value[p0], V4::One);
    EXPECT_EQ(ca.value[i0], V4::Zero);
    EXPECT_EQ(ca.value[p1], V4::X);
    EXPECT_EQ(ca.value[i1], V4::X);
    EXPECT_TRUE(ca.pruneMask[p0]);
    EXPECT_TRUE(ca.pruneMask[i0]);
}

TEST_F(LintTest, ScheduledPortBitOnlyProvenWhenPhaseInvariant)
{
    ModuleId m = nl.addModule("m");
    GateId p0 = nl.addGate(CellKind::Input, {}, m);
    GateId p1 = nl.addGate(CellKind::Input, {}, m);
    GateId s = nl.addGate(CellKind::And2, {p0, p1}, m);
    nl.setName(s, "out");
    nl.finalize();

    // Two-phase schedule: bit 0 pinned to 0 in both phases (schedule
    // invariant), bit 1 pinned to 0 then 1 (varies -> not constant).
    lint::ConstAnalysisOptions o;
    o.portBits = {p0, p1};
    scenario::PortPattern ph0, ph1;
    ph0.pinned = 0x0003;
    ph0.value = 0x0000;
    ph1.pinned = 0x0003;
    ph1.value = 0x0002;
    o.scenario.portSchedule = {ph0, ph1};
    lint::ConstAnalysis ca = lint::analyzeConstants(nl, o);
    EXPECT_EQ(ca.value[p0], V4::Zero);
    EXPECT_EQ(ca.value[p1], V4::X);
    EXPECT_EQ(ca.value[s], V4::Zero); // 0 & X = 0 either way
}

TEST_F(LintTest, DrivenConstantsSeedTheFixpoint)
{
    ModuleId m = nl.addModule("m");
    GateId rstn = nl.addGate(CellKind::Input, {}, m);
    GateId g = nl.addGate(CellKind::Inv, {rstn}, m);
    nl.setName(g, "out");
    nl.finalize();

    lint::ConstAnalysisOptions o;
    o.drivenConstants = {{rstn, V4::One}};
    lint::ConstAnalysis ca = lint::analyzeConstants(nl, o);
    EXPECT_EQ(ca.value[rstn], V4::One);
    EXPECT_EQ(ca.value[g], V4::Zero);
    EXPECT_TRUE(ca.pruneMask[g]);
}

TEST_F(LintTest, HookDrivenGatesNeverProven)
{
    ModuleId m = nl.addModule("m");
    GateId hd = nl.addGate(CellKind::Input, {}, m);
    GateId g = nl.addGate(CellKind::Inv, {hd}, m);
    nl.addHook({"ram", {}, {hd}});
    nl.setName(g, "out");
    nl.finalize();

    // Even an (erroneous) driven-constant claim on a hook-driven net
    // is refused: the hook owns the value.
    lint::ConstAnalysisOptions o;
    o.drivenConstants = {{hd, V4::One}};
    lint::ConstAnalysis ca = lint::analyzeConstants(nl, o);
    EXPECT_EQ(ca.value[hd], V4::X);
    EXPECT_EQ(ca.value[g], V4::X);
    EXPECT_FALSE(ca.pruneMask[hd]);
}

TEST_F(LintTest, EnergySplitMatchesMask)
{
    ModuleId m = nl.addModule("m");
    GateId a = nl.addGate(CellKind::Input, {}, m);
    GateId c0 = nl.addGate(CellKind::Const0, {}, m);
    GateId x = nl.addGate(CellKind::And2, {c0, a}, m);
    GateId z = nl.addGate(CellKind::Xor2, {a, x}, m);
    nl.setName(z, "out");
    nl.finalize();

    lint::ConstAnalysis ca = lint::analyzeConstants(nl, {});
    double quiescent = 0.0, switching = 0.0;
    for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
        if (ca.pruneMask[g])
            quiescent += nl.maxEnergyJ(g);
        if (ca.value[g] == V4::X)
            switching += nl.maxEnergyJ(g);
    }
    EXPECT_NEAR(ca.quiescentEnergyJ, quiescent, 1e-18);
    EXPECT_NEAR(ca.switchingBoundJ,
                switching + nl.clockEnergyPerCycleJ(), 1e-18);
    // The split is a partition plus the clock tree: nothing counted
    // twice, nothing both quiescent and still switching.
    EXPECT_GT(ca.quiescentEnergyJ, 0.0);
    EXPECT_GT(ca.switchingBoundJ, 0.0);
}

TEST_F(LintTest, QuiescentConesGroupByTopModule)
{
    ModuleId ma = nl.addModule("alpha");
    ModuleId mb = nl.addModule("beta");
    GateId c0 = nl.addGate(CellKind::Const0, {}, ma);
    GateId a = nl.addGate(CellKind::Input, {}, mb);
    GateId x = nl.addGate(CellKind::And2, {c0, a}, ma);
    GateId y = nl.addGate(CellKind::Xor2, {a, x}, mb);
    nl.setName(y, "out");
    nl.finalize();

    lint::ConstAnalysis ca = lint::analyzeConstants(nl, {});
    std::vector<lint::QuiescentCone> cones =
        lint::quiescentCones(nl, ca);
    ASSERT_EQ(cones.size(), 2u);
    EXPECT_EQ(cones[0].module, "alpha"); // deterministic order
    EXPECT_EQ(cones[1].module, "beta");
    EXPECT_EQ(cones[0].gates, 2u);
    EXPECT_EQ(cones[0].constGates, 2u); // c0 and x
    EXPECT_EQ(cones[0].pruned, 2u);
    EXPECT_EQ(cones[1].constGates, 0u);
}

TEST(LintCore, RealCoreIsStructurallyCleanAndPrunable)
{
    msp::System sys(CellLibrary::tsmc65Like());
    lint::StructuralReport sr = lint::structuralLint(sys.netlist());
    EXPECT_EQ(sr.errors(), 0u);

    lint::ConstAnalysisOptions o;
    const msp::CpuHandles &h = sys.handles();
    o.portBits.assign(h.portIn.begin(), h.portIn.end());
    o.drivenConstants = {{h.rstn, V4::One}, {h.irq, V4::Zero}};
    lint::ConstAnalysis ca =
        lint::analyzeConstants(sys.netlist(), o);
    // The reset/irq cone alone proves a nontrivial prune set; a
    // pinned-port scenario can only grow it.
    EXPECT_GT(ca.prunable, 50u);

    scenario::Scenario grounded;
    grounded.port.pinned = 0xffff;
    grounded.port.value = 0;
    lint::ConstAnalysisOptions og = o;
    og.scenario = grounded;
    lint::ConstAnalysis cg =
        lint::analyzeConstants(sys.netlist(), og);
    EXPECT_GT(cg.prunable, ca.prunable);
}

// ---------------------------------------------------------------
// CLI driver
// ---------------------------------------------------------------

TEST(LintCli, ParseDefaultsAndErrors)
{
    cli::LintCliOptions o;
    std::string err;
    const char *ok[] = {"ullint", "--scenario",
                        "unconstrained,ports-grounded", "--jobs", "2",
                        "--json", "-", "--no-timings", "--quiet"};
    ASSERT_TRUE(cli::parseLintArgs(9, ok, o, err)) << err;
    EXPECT_EQ(o.scenarioSpecs.size(), 2u);
    EXPECT_EQ(o.jobs, 2u);
    EXPECT_EQ(o.jsonPath, "-");
    EXPECT_TRUE(o.noTimings);
    EXPECT_TRUE(o.quiet);

    cli::LintCliOptions bad;
    const char *badJobs[] = {"ullint", "--jobs", "2x"};
    EXPECT_FALSE(cli::parseLintArgs(3, badJobs, bad, err));
    const char *zeroJobs[] = {"ullint", "--jobs", "0"};
    EXPECT_FALSE(cli::parseLintArgs(3, zeroJobs, bad, err));
    const char *unknown[] = {"ullint", "--bogus"};
    EXPECT_FALSE(cli::parseLintArgs(2, unknown, bad, err));
}

TEST(LintCli, JsonByteIdenticalAcrossJobs)
{
    fs::path dir = fs::temp_directory_path() /
                   ("ullint_test_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    std::string j1 = (dir / "j1.json").string();
    std::string j2 = (dir / "j2.json").string();

    const char *argv1[] = {"ullint", "--scenario",
                           "unconstrained,ports-grounded,sensor-4bit",
                           "--jobs", "1", "--json", j1.c_str(),
                           "--no-timings", "--quiet"};
    const char *argv2[] = {"ullint", "--scenario",
                           "unconstrained,ports-grounded,sensor-4bit",
                           "--jobs", "3", "--json", j2.c_str(),
                           "--no-timings", "--quiet"};
    EXPECT_EQ(cli::runLintCli(9, argv1), 0);
    EXPECT_EQ(cli::runLintCli(9, argv2), 0);

    auto slurp = [](const std::string &p) {
        std::ifstream in(p);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    std::string a = slurp(j1), b = slurp(j2);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    // A constrained scenario proves at least as much as the
    // unconstrained one (spot-check the report content).
    EXPECT_NE(a.find("\"ports-grounded\""), std::string::npos);
    fs::remove_all(dir);
}

// Control characters in a scenario name come out JSON-escaped, so the
// report stays valid JSON.
TEST(LintCli, JsonEscapesControlCharactersInScenarioNames)
{
    fs::path dir = fs::temp_directory_path() /
                   ("ullint_ctrl_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    std::string scn = (dir / "scn.json").string();
    std::string out = (dir / "out.json").string();
    {
        // "\r" is a JSON escape; the 0x01 byte goes in raw.
        std::ofstream f(scn);
        f << "{\"name\": \"grounded\\rA\x01" "B\", \"port\": "
             "{\"pinned\": \"0xffff\", \"value\": \"0x0000\"}}";
    }
    const char *argv[] = {"ullint",       "--scenario", scn.c_str(),
                          "--json",       out.c_str(),  "--no-timings",
                          "--quiet"};
    ASSERT_EQ(cli::runLintCli(7, argv), 0);

    std::ifstream in(out);
    std::string j((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    EXPECT_NE(j.find("\"grounded\\rA\\u0001B\""), std::string::npos)
        << j;
    for (char c : j)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control byte " << int(c);
    fs::remove_all(dir);
}

// With --json - stdout carries the JSON report and nothing else: the
// same bytes --json FILE writes, without the text table in front.
TEST(LintCli, JsonToStdoutCarriesOnlyTheReport)
{
    fs::path dir = fs::temp_directory_path() /
                   ("ullint_stdout_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    std::string out = (dir / "out.json").string();
    const char *toFile[] = {"ullint", "--json", out.c_str(),
                            "--no-timings", "--quiet"};
    ASSERT_EQ(cli::runLintCli(5, toFile), 0);
    std::ifstream in(out);
    std::string j((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    ASSERT_FALSE(j.empty());

    const char *toStdout[] = {"ullint", "--json", "-", "--no-timings"};
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(cli::runLintCli(4, toStdout), 0);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), j);
    fs::remove_all(dir);
}

TEST(LintCli, UsageErrorExitsTwo)
{
    const char *argv[] = {"ullint", "--jobs"};
    EXPECT_EQ(cli::runLintCli(2, argv), 2);
}

} // namespace
} // namespace ulpeak

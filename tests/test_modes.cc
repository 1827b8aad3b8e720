/**
 * @file
 * Tests for the per-operating-mode envelope report
 * (peak::buildModeReport): mode slices, transition detection and
 * settling-window peaks, assertion verdicts, and the low-voltage
 * decap finding -- all on a hand-built envelope so every expected
 * number is checkable by eye -- plus the layout of its JSON rows
 * (cli::toModesJson).
 */

#include <gtest/gtest.h>

#include "cli/driver.hh"
#include "peak/modes.hh"
#include "sizing/sizing.hh"

namespace ulpeak {
namespace peak {
namespace {

/** burst/sleep on a {b, b, s, s} schedule with a hand-picked
 *  8-cycle envelope. */
scenario::Scenario
dutyScenario()
{
    scenario::Scenario s;
    s.name = "duty-test";
    s.modes.push_back({"burst", 1.0, 100e6});
    s.modes.push_back({"sleep", 0.6, 8e6});
    s.modeSchedule = {0, 0, 1, 1};
    return s;
}

Envelope
dutyEnvelope()
{
    Envelope env;
    env.present = true;
    //            burst   burst   sleep   sleep   burst    burst
    env.powerW = {0.004f, 0.005f, 0.003f, 0.001f, 0.0045f, 0.002f,
                  //  sleep    sleep
                  0.0015f, 0.0012f};
    return env;
}

TEST(Modes, AbsentWithoutModesOrEnvelope)
{
    scenario::Scenario plain; // unconstrained, no modes
    EXPECT_FALSE(buildModeReport(dutyEnvelope(), plain, 1.0).present);
    Envelope missing; // analysis ran without envelope recording
    EXPECT_FALSE(buildModeReport(missing, dutyScenario(), 1.0).present);
}

TEST(Modes, SlicesSplitTheEnvelopeByMode)
{
    ModeReport rep =
        buildModeReport(dutyEnvelope(), dutyScenario(), 1.0);
    ASSERT_TRUE(rep.present);
    EXPECT_EQ(rep.envelopeCycles, 8u);
    EXPECT_NEAR(rep.compositePeakW, 0.005, 1e-9);

    ASSERT_EQ(rep.modes.size(), 2u);
    const ModeSlice &burst = rep.modes[0];
    EXPECT_EQ(burst.name, "burst");
    EXPECT_EQ(burst.cycles, 4u); // cycles 0, 1, 4, 5
    EXPECT_NEAR(burst.peakW, 0.005, 1e-9);
    EXPECT_EQ(burst.peakCycle, 1u);
    EXPECT_NEAR(burst.avgW, (0.004 + 0.005 + 0.0045 + 0.002) / 4,
                1e-9);
    EXPECT_NEAR(burst.energyJ,
                (0.004 + 0.005 + 0.0045 + 0.002) / 100e6, 1e-16);

    const ModeSlice &sleep = rep.modes[1];
    EXPECT_EQ(sleep.cycles, 4u); // cycles 2, 3, 6, 7
    EXPECT_NEAR(sleep.peakW, 0.003, 1e-9);
    EXPECT_EQ(sleep.peakCycle, 2u);
    EXPECT_NEAR(sleep.energyJ,
                (0.003 + 0.001 + 0.0015 + 0.0012) / 8e6, 1e-16);
}

TEST(Modes, TransitionsAndSettlingWindows)
{
    scenario::Scenario scen = dutyScenario();
    scen.assertions.push_back({"sleep", 2e-3, 1});
    ModeReport rep = buildModeReport(dutyEnvelope(), scen, 1.0);

    ASSERT_EQ(rep.transitions.size(), 2u);
    // Phase 0 enters burst from the cyclically-previous sleep phase,
    // but cycle 0 itself is reset exit, not a switch: the first
    // counted entry is cycle 4 (and it is the only one in 8 cycles).
    const ModeTransition &toBurst = rep.transitions[0];
    EXPECT_EQ(toBurst.from, "sleep");
    EXPECT_EQ(toBurst.to, "burst");
    EXPECT_EQ(toBurst.phase, 0u);
    EXPECT_EQ(toBurst.occurrences, 1u);
    EXPECT_NEAR(toBurst.peakEntryW, 0.0045, 1e-9);
    EXPECT_EQ(toBurst.settleCycles, 0u); // no assertion names burst
    EXPECT_NEAR(toBurst.peakSettleW, 0.0045, 1e-9);

    const ModeTransition &toSleep = rep.transitions[1];
    EXPECT_EQ(toSleep.from, "burst");
    EXPECT_EQ(toSleep.to, "sleep");
    EXPECT_EQ(toSleep.phase, 2u);
    EXPECT_EQ(toSleep.occurrences, 2u); // cycles 2 and 6
    EXPECT_NEAR(toSleep.peakEntryW, 0.003, 1e-9);
    EXPECT_EQ(toSleep.settleCycles, 1u); // widest sleep assertion
    EXPECT_NEAR(toSleep.peakSettleW, 0.003, 1e-9);
}

TEST(Modes, AssertionsRespectSettlingWindows)
{
    scenario::Scenario scen = dutyScenario();
    // Entry cycles (2 and 6) exceed 2 mW but sit inside the 1-cycle
    // settling window; the settled cycles (3 and 7) are under it.
    scen.assertions.push_back({"sleep", 2e-3, 1});
    // No settling exemption and a floor below every sleep cycle.
    scen.assertions.push_back({"sleep", 0.9e-3, 0});
    ModeReport rep = buildModeReport(dutyEnvelope(), scen, 1.0);

    ASSERT_EQ(rep.assertions.size(), 2u);
    const ModeAssertionResult &settled = rep.assertions[0];
    EXPECT_TRUE(settled.pass);
    EXPECT_EQ(settled.checkedCycles, 2u); // cycles 3 and 7
    EXPECT_EQ(settled.violations, 0u);

    const ModeAssertionResult &strict = rep.assertions[1];
    EXPECT_FALSE(strict.pass);
    EXPECT_EQ(strict.checkedCycles, 4u);
    EXPECT_EQ(strict.violations, 4u);
    EXPECT_EQ(strict.firstViolationCycle, 2u);
    EXPECT_NEAR(strict.maxExcessW, 0.003 - 0.9e-3, 1e-9);

    EXPECT_FALSE(rep.allAssertionsPass());
}

TEST(Modes, LowVoltageModeRaisesDecapFinding)
{
    // sleep at 0.6 V sits under the 0.95 V droop floor of a 1.0 V
    // rail: exactly the input sizing::decapFarads now refuses.
    ModeReport rep =
        buildModeReport(dutyEnvelope(), dutyScenario(), 1.0);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_NE(rep.findings[0].find("sleep"), std::string::npos);
    EXPECT_NE(rep.findings[0].find("0.95"), std::string::npos);

    // Every mode above the floor: nothing to report.
    scenario::Scenario safe = dutyScenario();
    safe.modes[1].vdd = 0.96;
    EXPECT_TRUE(
        buildModeReport(dutyEnvelope(), safe, 1.0).findings.empty());
}

// A report with no mode-scheduled row has an empty rows block, laid
// out like every other empty block; a present row wraps its mode,
// transition, assertion and finding lists one column past its '{'.
TEST(Modes, JsonRowsLayout)
{
    BatchReport rep;
    rep.programs.resize(1);
    rep.programs[0].name = "mult";
    rep.programs[0].scenario = "duty-test";
    std::vector<ModeReport> reports(1);
    EXPECT_EQ(cli::toModesJson(rep, reports),
              "{\n"
              "  \"tool\": \"ulpeak\",\n"
              "  \"report\": \"modes\",\n"
              "  \"rows\": [\n"
              "  ]\n"
              "}\n");

    reports[0] = buildModeReport(dutyEnvelope(), dutyScenario(), 1.0);
    std::string j = cli::toModesJson(rep, reports);
    EXPECT_NE(j.find("  \"rows\": [\n"
                     "    {\"program\": \"mult\", \"scenario\": "
                     "\"duty-test\", \"composite_peak_w\": "),
              std::string::npos)
        << j;
    for (const char *list : {"modes", "transitions", "assertions",
                             "findings"})
        EXPECT_NE(j.find(std::string(",\n     \"") + list + "\": ["),
                  std::string::npos)
            << list << " in\n" << j;
    EXPECT_EQ(j.substr(j.size() - 10), "\"]}\n  ]\n}\n") << j;
}

} // namespace
} // namespace peak
} // namespace ulpeak

/**
 * @file
 * One argv table per tool (ulpeak, ulfault, ullint, ulfuzz), run
 * through the tool's public parser: an accepted command line must
 * set the expected option fields, a rejected one must fail with a
 * message that names the offending flag (or argument). Every tool's
 * --help text must list every row of its option table.
 *
 * Also the report plumbing the tools share (cli/json_util.hh): the
 * JSON writer's two layouts, wrap rule, empty containers and
 * escaping, and fmtDouble against printf's "%.17g".
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cli/driver.hh"
#include "cli/fault_driver.hh"
#include "cli/fuzz_driver.hh"
#include "cli/json_util.hh"
#include "cli/lint_driver.hh"
#include "cli/options.hh"
#include "fuzz/rng.hh"

namespace ulpeak {
namespace {

/** One command line (argv[0] omitted). An accepted case checks the
 *  parsed fields in @p expect; a rejected one (no expect) must fail
 *  with an error containing @p named. */
template <class Opts>
struct Case {
    std::vector<const char *> args;
    std::function<void(const Opts &)> expect;
    const char *named = nullptr;
};

template <class Opts>
using Parser = bool (*)(int, const char *const *, Opts &, std::string &);

template <class Opts>
void
runTable(const char *tool, Parser<Opts> parse,
         const std::vector<Case<Opts>> &cases)
{
    for (const Case<Opts> &c : cases) {
        std::vector<const char *> argv{tool};
        argv.insert(argv.end(), c.args.begin(), c.args.end());
        std::string line;
        for (const char *a : argv)
            line += std::string(line.empty() ? "" : " ") + "'" + a + "'";
        Opts o;
        std::string err;
        bool ok = parse(int(argv.size()), argv.data(), o, err);
        if (c.expect) {
            ASSERT_TRUE(ok) << line << ": " << err;
            SCOPED_TRACE(line);
            c.expect(o);
        } else {
            EXPECT_FALSE(ok) << line << " was accepted";
            EXPECT_NE(err.find(c.named), std::string::npos)
                << line << ": error \"" << err << "\" does not name "
                << c.named;
        }
    }
}

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

TEST(CliOptions, UlpeakTable)
{
    using O = cli::CliOptions;
    std::vector<Case<O>> cases = {
        {{"mult"},
         [](const O &o) {
             EXPECT_EQ(o.programSpecs, std::vector<std::string>{"mult"});
             // Uncapped: the CPU budget splits the host's CPUs.
             EXPECT_EQ(o.jobs, 0u);
             EXPECT_EQ(o.threads, 0u);
             EXPECT_EQ(o.freqHz, 100e6);
             EXPECT_EQ(o.evalMode, EvalMode::EventDriven);
             EXPECT_EQ(o.loopBound, 0u);
             EXPECT_EQ(o.maxTotalCycles, 3000000u);
             EXPECT_FALSE(o.envelope);
             EXPECT_EQ(o.envelopeFormat, "json");
             EXPECT_FALSE(o.modes);
             EXPECT_EQ(o.modesFormat, "table");
             EXPECT_EQ(o.cacheDir, ".ulpeak-cache");
             EXPECT_TRUE(o.windows.empty());
             EXPECT_TRUE(o.scenarioSpecs.empty());
             EXPECT_FALSE(o.help);
         }},
        {{"--programs", "mult,FFT", "tea8,", "--jobs", "4", "--threads",
          "2"},
         [](const O &o) {
             EXPECT_EQ(o.programSpecs,
                       (std::vector<std::string>{"mult", "FFT", "tea8"}));
             EXPECT_EQ(o.jobs, 4u);
             EXPECT_EQ(o.threads, 2u);
         }},
        {{"--programs", "", "mult"},
         [](const O &o) { EXPECT_EQ(o.programSpecs.size(), 1u); }},
        {{"--loop-bound", "4294967295", "--max-cycles",
          "18446744073709551615", "--freq", "8e6", "mult"},
         [](const O &o) {
             EXPECT_EQ(o.loopBound, 4294967295u);
             EXPECT_EQ(o.maxTotalCycles, kU64Max);
             EXPECT_EQ(o.freqHz, 8e6);
         }},
        {{"--loop-bound", "0x10", "mult"},
         [](const O &o) { EXPECT_EQ(o.loopBound, 16u); }},
        {{"--eval-mode", "full", "mult"},
         [](const O &o) { EXPECT_EQ(o.evalMode, EvalMode::FullSweep); }},
        {{"--envelope=csv", "--envelope", "mult"},
         [](const O &o) {
             EXPECT_TRUE(o.envelope);
             EXPECT_EQ(o.envelopeFormat, "csv");
         }},
        {{"--modes=json", "--windows", "5,50", "mult"},
         [](const O &o) {
             EXPECT_TRUE(o.modes);
             EXPECT_EQ(o.modesFormat, "json");
             EXPECT_EQ(o.windows, (std::vector<unsigned>{5, 50}));
         }},
        {{"--scenario", "ports-grounded,,sensor-4bit", "--scenario", "",
          "mult"},
         [](const O &o) {
             EXPECT_EQ(o.scenarioSpecs,
                       (std::vector<std::string>{"ports-grounded",
                                                 "sensor-4bit"}));
         }},
        {{"--static-prune", "--packed-explore", "--no-timings",
          "--no-cache", "--fail-fast", "--quiet", "mult"},
         [](const O &o) {
             EXPECT_TRUE(o.staticPrune);
             EXPECT_TRUE(o.packedExplore);
             EXPECT_TRUE(o.noTimings);
             EXPECT_TRUE(o.noCache);
             EXPECT_TRUE(o.failFast);
             EXPECT_TRUE(o.quiet);
         }},
        // A value is the next token verbatim, even when it looks like
        // a flag.
        {{"--json", "-x", "--csv", "c.csv", "--cache-dir", "d", "mult"},
         [](const O &o) {
             EXPECT_EQ(o.jsonPath, "-x");
             EXPECT_EQ(o.csvPath, "c.csv");
             EXPECT_EQ(o.cacheDir, "d");
         }},
        {{"--help"}, [](const O &o) { EXPECT_TRUE(o.help); }},
        {{"-h", "--jobs", "2"}, [](const O &o) { EXPECT_TRUE(o.help); }},

        {{"--loop-bound", "4294967296", "mult"}, nullptr, "--loop-bound"},
        {{"--loop-bound", "-1", "mult"}, nullptr, "--loop-bound"},
        {{"--max-cycles", "18446744073709551616", "mult"}, nullptr,
         "--max-cycles"},
        {{"--jobs", "0", "mult"}, nullptr, "--jobs"},
        {{"--jobs", "many", "mult"}, nullptr, "--jobs"},
        {{"--jobs"}, nullptr, "--jobs"},
        {{"--threads", "-1", "mult"}, nullptr, "--threads"},
        {{"--threads", "4294967296", "mult"}, nullptr, "--threads"},
        {{"--freq", "0", "mult"}, nullptr, "--freq"},
        {{"--freq", "8e6x", "mult"}, nullptr, "--freq"},
        {{"--eval-mode", "fast", "mult"}, nullptr, "--eval-mode"},
        {{"--envelope=xml", "mult"}, nullptr, "--envelope"},
        {{"--envelope=", "mult"}, nullptr, "--envelope"},
        {{"--modes=xml", "mult"}, nullptr, "--modes"},
        {{"--windows", "0", "mult"}, nullptr, "--windows"},
        {{"--windows", "", "mult"}, nullptr, "--windows"},
        {{"--windows", "1,,2", "mult"}, nullptr, "--windows"},
        {{"--windows", "4294967296", "mult"}, nullptr, "--windows"},
        {{"--scenario", "", "mult"}, nullptr, "--scenario"},
        {{"--bogus", "mult"}, nullptr, "--bogus"},
        {{"--jobs=4", "mult"}, nullptr, "--jobs=4"},
        {{"--help", "--bogus"}, nullptr, "--bogus"},
        {{}, nullptr, "--programs"},
    };
    runTable<O>("ulpeak", cli::parseArgs, cases);
}

TEST(CliOptions, UlfaultTable)
{
    using O = cli::FaultCliOptions;
    std::vector<Case<O>> cases = {
        {{"mult"},
         [](const O &o) {
             EXPECT_EQ(o.programSpec, "mult");
             EXPECT_EQ(o.seed, 1u);
             EXPECT_EQ(o.jobs, 0u); // uncapped
             EXPECT_EQ(o.cyclesPerSite, 1u);
             EXPECT_EQ(o.maxSites, 0u);
             EXPECT_EQ(o.ramSites, 0u);
             EXPECT_EQ(o.hangCycles, 0u);
             EXPECT_EQ(o.port, 0u);
             EXPECT_FALSE(o.portSet);
             EXPECT_EQ(o.freqHz, 100e6);
             EXPECT_FALSE(o.envelope);
             EXPECT_EQ(o.top, 20u);
             EXPECT_EQ(o.cacheDir, ".ulpeak-cache");
             EXPECT_FALSE(o.replay);
             EXPECT_FALSE(o.help);
         }},
        {{"--seed", "7", "--jobs", "2", "--cycles-per-site",
          "3", "--max-sites", "16", "--ram-sites", "4", "--hang-cycles",
          "100", "--port", "0xffff", "--freq", "8e6", "--envelope",
          "--top", "4294967295", "--json", "a", "--csv", "b",
          "--cache-dir", "c", "--no-cache", "--no-timings", "--quiet",
          "tea8"},
         [](const O &o) {
             EXPECT_EQ(o.programSpec, "tea8");
             EXPECT_EQ(o.seed, 7u);
             EXPECT_EQ(o.jobs, 2u);
             EXPECT_EQ(o.cyclesPerSite, 3u);
             EXPECT_EQ(o.maxSites, 16u);
             EXPECT_EQ(o.ramSites, 4u);
             EXPECT_EQ(o.hangCycles, 100u);
             EXPECT_EQ(o.port, 0xffffu);
             EXPECT_TRUE(o.portSet);
             EXPECT_EQ(o.freqHz, 8e6);
             EXPECT_TRUE(o.envelope);
             EXPECT_EQ(o.top, 4294967295u);
             EXPECT_EQ(o.jsonPath, "a");
             EXPECT_EQ(o.csvPath, "b");
             EXPECT_EQ(o.cacheDir, "c");
             EXPECT_TRUE(o.noCache);
             EXPECT_TRUE(o.noTimings);
             EXPECT_TRUE(o.quiet);
         }},
        {{"mult", "--replay", "4294967295@40"},
         [](const O &o) {
             EXPECT_TRUE(o.replay);
             EXPECT_EQ(o.replaySite, 4294967295u);
             EXPECT_EQ(o.replayCycle, 40u);
         }},
        {{"--help"}, [](const O &o) { EXPECT_TRUE(o.help); }},

        {{"mult", "--top", "4294967296"}, nullptr, "--top"},
        {{"mult", "--replay", "4294967296@5"}, nullptr, "--replay"},
        {{"mult", "--replay", "3"}, nullptr, "--replay"},
        {{"mult", "--replay", "3@"}, nullptr, "--replay"},
        {{"mult", "--replay", "@3"}, nullptr, "--replay"},
        {{"mult", "--port", "65536"}, nullptr, "--port"},
        {{"mult", "--jobs", "0"}, nullptr, "--jobs"},
        {{"mult", "--cycles-per-site", "0"}, nullptr, "--cycles-per-site"},
        {{"mult", "--seed", "x"}, nullptr, "--seed"},
        {{"mult", "--max-sites", "-1"}, nullptr, "--max-sites"},
        {{"mult", "--ram-sites", "1e3"}, nullptr, "--ram-sites"},
        {{"mult", "--hang-cycles", ""}, nullptr, "--hang-cycles"},
        {{"mult", "--freq", "inf"}, nullptr, "--freq"},
        {{"mult", "--json"}, nullptr, "--json"},
        {{"mult", "--envelope=json"}, nullptr, "--envelope=json"},
        {{"mult", "--bogus"}, nullptr, "--bogus"},
        {{"mult", "--scalar"}, nullptr, "--scalar"},
        {{"mult", "tea8"}, nullptr, "PROGRAM"},
        {{}, nullptr, "PROGRAM"},
        {{"--help", "--bogus"}, nullptr, "--bogus"},
    };
    runTable<O>("ulfault", cli::parseFaultArgs, cases);
}

TEST(CliOptions, UllintTable)
{
    using O = cli::LintCliOptions;
    std::vector<Case<O>> cases = {
        {{},
         [](const O &o) {
             EXPECT_TRUE(o.scenarioSpecs.empty());
             EXPECT_EQ(o.jobs, 0u); // uncapped
             EXPECT_EQ(o.freqHz, 100e6);
             EXPECT_EQ(o.fanoutThreshold, 0u);
             EXPECT_EQ(o.maxDeadListed, 16u);
             EXPECT_TRUE(o.jsonPath.empty());
             EXPECT_FALSE(o.help);
         }},
        {{"--scenario", "unconstrained,ports-grounded", "--jobs", "2",
          "--freq", "5e7", "--fanout-threshold", "4294967295",
          "--dead-limit", "4", "--json", "-", "--no-timings", "--quiet"},
         [](const O &o) {
             EXPECT_EQ(o.scenarioSpecs.size(), 2u);
             EXPECT_EQ(o.jobs, 2u);
             EXPECT_EQ(o.freqHz, 5e7);
             EXPECT_EQ(o.fanoutThreshold, 4294967295u);
             EXPECT_EQ(o.maxDeadListed, 4u);
             EXPECT_EQ(o.jsonPath, "-");
             EXPECT_TRUE(o.noTimings);
             EXPECT_TRUE(o.quiet);
         }},
        {{"--help"}, [](const O &o) { EXPECT_TRUE(o.help); }},

        {{"--jobs", "2x"}, nullptr, "--jobs"},
        {{"--jobs", "0"}, nullptr, "--jobs"},
        {{"--jobs"}, nullptr, "--jobs"},
        {{"--freq", "nan"}, nullptr, "--freq"},
        {{"--fanout-threshold", "4294967296"}, nullptr,
         "--fanout-threshold"},
        {{"--dead-limit", "-1"}, nullptr, "--dead-limit"},
        {{"--scenario", ""}, nullptr, "--scenario"},
        {{"--bogus"}, nullptr, "--bogus"},
        {{"extra"}, nullptr, "extra"},
        {{"--help", "--bogus"}, nullptr, "--bogus"},
    };
    runTable<O>("ullint", cli::parseLintArgs, cases);
}

TEST(CliOptions, UlfuzzTable)
{
    using O = cli::FuzzCliOptions;
    std::vector<Case<O>> cases = {
        {{},
         [](const O &o) {
             EXPECT_EQ(o.seed, 1u);
             EXPECT_EQ(o.counts.at("--programs"), 50u);
             EXPECT_EQ(o.counts.at("--netlists"), 50u);
             EXPECT_EQ(o.counts.size(), 11u);
             EXPECT_EQ(o.instructions, 24u);
             EXPECT_EQ(o.threads, 4u);
             EXPECT_EQ(o.kernelCycles, 64u);
             EXPECT_EQ(o.only, -1);
             EXPECT_EQ(o.mode, "all");
             EXPECT_FALSE(o.dumpPrograms);
             EXPECT_FALSE(o.help);
         }},
        {{"--seed", "18446744073709551615", "--instr", "10", "--threads",
          "2", "--kernel-cycles", "8", "--only", "3", "--mode", "cosim",
          "--dump-programs", "--quiet", "--netlists", "0"},
         [](const O &o) {
             EXPECT_EQ(o.seed, kU64Max);
             EXPECT_EQ(o.instructions, 10u);
             EXPECT_EQ(o.threads, 2u);
             EXPECT_EQ(o.kernelCycles, 8u);
             EXPECT_EQ(o.only, 3);
             EXPECT_EQ(o.mode, "cosim");
             EXPECT_TRUE(o.dumpPrograms);
             EXPECT_TRUE(o.quiet);
             EXPECT_EQ(o.counts.at("--netlists"), 0u);
         }},
        {{"--programs", "12", "--mode", "scenario"},
         [](const O &o) {
             EXPECT_EQ(o.counts.at("--scn-programs"), 12u);
         }},
        {{"--help"}, [](const O &o) { EXPECT_TRUE(o.help); }},

        {{"--threads", "1"}, nullptr, "--threads"},
        {{"--mode", "sym"}, nullptr, "--mode"},
        {{"--netlists", "4x"}, nullptr, "--netlists"},
        {{"--netlists", "4294967296"}, nullptr, "--netlists"},
        {{"--kernel-cycles", "-1"}, nullptr, "--kernel-cycles"},
        {{"--instr", "4294967296"}, nullptr, "--instr"},
        {{"--only", "-1"}, nullptr, "--only"},
        {{"--seed"}, nullptr, "--seed"},
        {{"--mode", "kernel", "--programs", "5"}, nullptr, "--programs"},
        {{"--sym-programs", "4"}, nullptr, "--sym-programs"},
        {{"extra"}, nullptr, "extra"},
        {{"--help", "--bogus"}, nullptr, "--bogus"},
    };
    runTable<O>("ulfuzz", cli::parseFuzzArgs, cases);
}

/** Every row of @p table appears in @p help as a flag entry. */
void
expectEveryFlagListed(const std::string &help,
                      const std::vector<cli::Option> &table)
{
    ASSERT_FALSE(table.empty());
    for (const cli::Option &o : table)
        EXPECT_NE(help.find("\n  " + o.flag), std::string::npos)
            << o.flag << " missing from\n" << help;
    EXPECT_NE(help.find("\n  --help"), std::string::npos);
}

TEST(CliOptions, HelpListsEveryFlagOfTheTable)
{
    cli::CliOptions p;
    expectEveryFlagListed(cli::usage(), cli::peakOptions(p));
    cli::FaultCliOptions f;
    expectEveryFlagListed(cli::faultUsage(), cli::faultOptions(f));
    cli::LintCliOptions l;
    expectEveryFlagListed(cli::lintUsage(), cli::lintOptions(l));
    cli::FuzzCliOptions z;
    expectEveryFlagListed(cli::fuzzUsage(), cli::fuzzOptions(z));
    // Every work list's count flag is a row.
    EXPECT_EQ(z.counts.size(), 11u);
}

using cli::JsonWriter;
using cli::Layout;

TEST(JsonWriter, BlockAndInlineLayouts)
{
    JsonWriter w;
    w.beginObject().field("tool", "t").field("n", 3).field("ok", true);
    w.key("opts").beginObject().field("x", 1.5).field("neg", -7).end();
    w.key("rows").beginArray();
    w.beginObject(Layout::Inline).field("a", 1u).field("b", false).end();
    w.value(std::vector<unsigned>{1, 2}).value("s");
    w.end().key("tail").beginObject(Layout::Inline).field("c", 0.25f);
    EXPECT_EQ(w.end().end().take(),
              "{\n"
              "  \"tool\": \"t\",\n"
              "  \"n\": 3,\n"
              "  \"ok\": true,\n"
              "  \"opts\": {\n"
              "    \"x\": 1.5,\n"
              "    \"neg\": -7\n"
              "  },\n"
              "  \"rows\": [\n"
              "    {\"a\": 1, \"b\": false},\n"
              "    [1, 2],\n"
              "    \"s\"\n"
              "  ],\n"
              "  \"tail\": {\"c\": 0.25}\n"
              "}\n");
}

// wrap() breaks an Inline container's next member onto a new line one
// column past its opener; a Block opened on that line indents two
// past that column and closes at it.
TEST(JsonWriter, WrapAndABlockNestedInAWrappedLine)
{
    JsonWriter w;
    w.beginObject().key("scenarios").beginArray();
    w.beginObject(Layout::Inline).field("name", "a").wrap()
        .field("n", 1).wrap().key("cones").beginArray();
    w.beginObject(Layout::Inline).field("m", "x").end();
    w.beginObject(Layout::Inline).field("m", "y").end();
    w.end().end();
    w.beginObject(Layout::Inline).field("name", "b").field("k", 2)
        .wrap().key("l").value(std::vector<int>{}).end();
    EXPECT_EQ(w.end().end().take(),
              "{\n"
              "  \"scenarios\": [\n"
              "    {\"name\": \"a\",\n"
              "     \"n\": 1,\n"
              "     \"cones\": [\n"
              "       {\"m\": \"x\"},\n"
              "       {\"m\": \"y\"}\n"
              "     ]},\n"
              "    {\"name\": \"b\", \"k\": 2,\n"
              "     \"l\": []}\n"
              "  ]\n"
              "}\n");
}

TEST(JsonWriter, EmptyContainers)
{
    JsonWriter w;
    w.beginObject().key("block").beginArray().end();
    w.key("obj").beginObject().end();
    w.key("inline").beginArray(Layout::Inline).end();
    w.key("io").beginObject(Layout::Inline).end();
    EXPECT_EQ(w.end().take(),
              "{\n"
              "  \"block\": [\n"
              "  ],\n"
              "  \"obj\": {\n"
              "  },\n"
              "  \"inline\": [],\n"
              "  \"io\": {}\n"
              "}\n");
    JsonWriter empty;
    EXPECT_EQ(empty.beginObject().end().take(), "{\n}\n");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlBytes)
{
    std::string raw = "q\"b\\";
    std::string want = "\"q\\\"b\\\\";
    for (int c = 0; c < 0x20; ++c) {
        raw += char(c);
        if (c == '\n')
            want += "\\n";
        else if (c == '\t')
            want += "\\t";
        else if (c == '\r')
            want += "\\r";
        else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
            want += buf;
        }
    }
    raw += "\x7f\xc3\xa9";
    want += "\x7f\xc3\xa9\"";
    JsonWriter w;
    w.beginArray(Layout::Inline).value(raw);
    EXPECT_EQ(w.end().take(), "[" + want + "]\n");
    JsonWriter k;
    k.beginObject(Layout::Inline).field(raw, 1);
    EXPECT_EQ(k.end().take(), "{" + want + ": 1}\n");
}

// fmtDouble (and so every double in a report) is printf's "%.17g".
TEST(JsonWriter, FmtDoubleMatchesPrintf17g)
{
    auto printf17g = [](double d) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        return std::string(buf);
    };
    std::vector<double> values = {
        0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.1, 1e8,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    fuzz::Rng rng(17);
    for (int i = 0; i < 100000; ++i) {
        uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        uint32_t fbits = uint32_t(rng.next());
        float f;
        std::memcpy(&f, &fbits, sizeof f);
        values.push_back(d);
        values.push_back(double(f));
    }
    size_t mismatches = 0;
    for (double d : values)
        if (cli::fmtDouble(d) != printf17g(d) && ++mismatches <= 5)
            ADD_FAILURE() << printf17g(d) << " formatted as "
                          << cli::fmtDouble(d);
    EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

} // namespace
} // namespace ulpeak

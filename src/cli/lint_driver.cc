#include "cli/lint_driver.hh"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "cli/json_util.hh"
#include "lint/lint.hh"
#include "msp/cpu.hh"
#include "scenario/scenario.hh"
#include "util/worker_pool.hh"

namespace ulpeak {
namespace cli {

namespace {

/** One scenario's constant-analysis results, display-ready. */
struct ScenarioLint {
    std::string name;
    lint::ConstAnalysis analysis;
    std::vector<lint::QuiescentCone> cones;
};

ScenarioLint
analyzeScenario(const msp::System &sys, const scenario::Scenario &scn,
                const std::string &name)
{
    ScenarioLint out;
    out.name = name;
    out.analysis = lint::analyzeConstants(sys, scn);
    out.cones = lint::quiescentCones(sys.netlist(), out.analysis);
    return out;
}

std::string
toLintJson(const Netlist &nl, const lint::StructuralReport &sr,
           const std::vector<ScenarioLint> &scens, double freq_hz,
           double wall_seconds, bool include_timings)
{
    JsonWriter w;
    w.beginObject().key("netlist").beginObject(Layout::Inline)
        .field("gates", nl.numGates()).field("modules", nl.numModules()).end();
    w.key("structural").beginObject().field("errors", sr.errors())
        .field("dead_gates", sr.deadGates)
        .field("fanout_hotspot_threshold", sr.fanoutHotspotThreshold)
        .key("issues").beginArray();
    for (const lint::Issue &is : sr.issues)
        w.beginObject(Layout::Inline)
            .field("kind", lint::issueKindName(is.kind))
            .field("severity", lint::severityName(is.severity))
            .field("gates", is.gates).field("message", is.message).end();
    w.end().end().key("scenarios").beginArray();
    for (const ScenarioLint &sl : scens) {
        const lint::ConstAnalysis &a = sl.analysis;
        w.beginObject(Layout::Inline).field("name", sl.name)
            .wrap().field("proven_const", a.provenConst)
            .wrap().field("proven_seq", a.provenSeq)
            .wrap().field("prunable", a.prunable)
            .wrap().field("max_prune_depth", a.maxPruneDepth)
            .wrap().field("quiescent_energy_j", a.quiescentEnergyJ)
            .wrap().field("switching_bound_j", a.switchingBoundJ)
            .wrap().field("static_peak_power_w",
                          a.staticPeakPowerW(freq_hz, nl.totalLeakageW()))
            .wrap().key("cones").beginArray();
        for (const lint::QuiescentCone &qc : sl.cones)
            w.beginObject(Layout::Inline).field("module", qc.module)
                .field("gates", qc.gates).field("const", qc.constGates)
                .field("pruned", qc.pruned)
                .field("quiescent_energy_j", qc.quiescentEnergyJ).end();
        w.end().end();
    }
    w.end();
    if (include_timings)
        w.key("run").beginObject(Layout::Inline)
            .field("wall_seconds", wall_seconds).end();
    return w.end().take();
}

} // namespace

std::vector<Option>
lintOptions(LintCliOptions &o)
{
    return {
        listOpt("--scenario", "S[,S...]",
                "scenarios to analyze (names or scenario .json\n"
                "files; default: the unconstrained scenario)",
                o.scenarioSpecs),
        intOpt("--jobs", "N",
               "scenario workers (default: all CPUs; a cap; output\n"
               "byte-identical)",
               o.jobs, 1),
        positiveOpt("--freq", "HZ",
                    "clock of the static peak power bound (default 100e6)",
                    o.freqHz),
        intOpt("--fanout-threshold", "N",
               "hotspot fanout (default 0 = max(64, gates/16))",
               o.fanoutThreshold),
        intOpt("--dead-limit", "N", "dead gates listed per issue (default 16)",
               o.maxDeadListed),
        stringOpt("--json", "FILE", "write JSON (\"-\" = stdout, no table)",
                  o.jsonPath),
        switchOpt("--no-timings",
                  "omit wall-time fields from --json (byte-identical)",
                  o.noTimings),
        switchOpt("--quiet", "suppress the stdout report", o.quiet),
    };
}

std::string
lintUsage()
{
    LintCliOptions o;
    return "usage: ullint [options]\n"
           "\n"
           "Static analysis of the gate-level core netlist: structural\n"
           "lint (combinational loops, floating inputs, multi-driven\n"
           "nets, dead gates, fanout hotspots) and scenario-aware\n"
           "constant-cone analysis (gates provably constant under a\n"
           "deployment scenario, the prune mask `ulpeak --static-prune`\n"
           "uses, and the static quiescent/switching energy split).\n"
           "\n"
           "options:\n" +
           usageText(lintOptions(o), 23) +
           "\n"
           "exit status: 0 = no structural errors, 1 = structural\n"
           "errors found, 2 = usage error.\n";
}

bool
parseLintArgs(int argc, const char *const *argv, LintCliOptions &out,
              std::string &err)
{
    return parseOptions(argc, argv, lintOptions(out), nullptr, out.help,
                        err);
}

int
runLintCli(int argc, const char *const *argv)
{
    LintCliOptions cli;
    std::string err;
    if (!parseLintArgs(argc, argv, cli, err))
        return usageError("ullint", err, lintUsage());
    if (cli.help) {
        std::fputs(lintUsage().c_str(), stdout);
        return 0;
    }

    try {
        auto t0 = std::chrono::steady_clock::now();
        msp::System sys(CellLibrary::tsmc65Like());
        const Netlist &nl = sys.netlist();

        lint::StructuralOptions sopts;
        sopts.fanoutHotspotThreshold = cli.fanoutThreshold;
        sopts.maxListedDeadGates = cli.maxDeadListed;
        lint::StructuralReport sr = lint::structuralLint(nl, sopts);

        // Resolve scenarios up front so a bad spec is a clean error
        // before any analysis output.
        std::vector<scenario::Scenario> scens;
        std::vector<std::string> names;
        if (cli.scenarioSpecs.empty()) {
            scens.emplace_back();
            names.emplace_back("unconstrained");
        } else {
            for (const std::string &spec : cli.scenarioSpecs) {
                scens.push_back(scenario::Scenario::resolve(spec));
                names.push_back(scens.back().name.empty()
                                    ? spec
                                    : scens.back().name);
            }
        }

        // Scenario analyses are independent; shard them over the
        // worker pool. Results land by index, so the report is
        // identical for every job count. The analyses only read the
        // netlist and handles, so every worker shares sys.
        std::vector<ScenarioLint> results(scens.size());
        unsigned jobs =
            util::cpuBudget(scens.size(), cli.jobs, 1, util::hostCpus())
                .jobs;
        util::parallelFor(scens.size(), jobs, [&](unsigned, size_t i) {
            results[i] = analyzeScenario(sys, scens[i], names[i]);
            return true;
        });

        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

        if (!cli.quiet && cli.jsonPath != "-") {
            std::printf("netlist: %zu gates, %zu modules\n",
                        nl.numGates(), nl.numModules());
            std::printf("structural: %zu issues (%zu errors), %zu "
                        "dead gates, hotspot threshold %u\n",
                        sr.issues.size(), sr.errors(), sr.deadGates,
                        sr.fanoutHotspotThreshold);
            for (const lint::Issue &is : sr.issues)
                std::printf("  [%s] %s: %s\n",
                            lint::severityName(is.severity),
                            lint::issueKindName(is.kind),
                            is.message.c_str());
            for (const ScenarioLint &sl : results) {
                const lint::ConstAnalysis &a = sl.analysis;
                std::printf(
                    "scenario %s: %zu proven const (%zu seq), %zu "
                    "prunable (depth %u), quiescent %s J/cycle, "
                    "switching bound %s J/cycle, static peak %s W\n",
                    sl.name.c_str(), a.provenConst, a.provenSeq,
                    a.prunable, a.maxPruneDepth,
                    fmtDouble(a.quiescentEnergyJ).c_str(),
                    fmtDouble(a.switchingBoundJ).c_str(),
                    fmtDouble(a.staticPeakPowerW(cli.freqHz,
                                                 nl.totalLeakageW()))
                        .c_str());
                for (const lint::QuiescentCone &qc : sl.cones)
                    if (qc.pruned)
                        std::printf("  %-12s %5zu gates, %5zu "
                                    "const, %5zu pruned\n",
                                    qc.module.c_str(), qc.gates,
                                    qc.constGates, qc.pruned);
            }
        }

        if (!cli.jsonPath.empty()) {
            std::string json = toLintJson(nl, sr, results, cli.freqHz,
                                          wall, !cli.noTimings);
            if (cli.jsonPath == "-")
                std::fputs(json.c_str(), stdout);
            else if (!writeReport("ullint", cli.jsonPath, json))
                return 1;
        }
        return sr.errors() ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ullint: %s\n", e.what());
        return 1;
    }
}

} // namespace cli
} // namespace ulpeak

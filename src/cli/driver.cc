#include "cli/driver.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench430/benchmarks.hh"
#include "cli/json_util.hh"
#include "util/disk_cache.hh"

namespace ulpeak {
namespace cli {
namespace {

std::string
csvQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

bool
looksLikePath(const std::string &spec)
{
    if (spec.find('/') != std::string::npos)
        return true;
    auto ends = [&](const char *suf) {
        size_t n = std::strlen(suf);
        return spec.size() > n &&
               spec.compare(spec.size() - n, n, suf) == 0;
    };
    return ends(".s") || ends(".asm");
}

std::string
pathStem(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

/** The envelope as an Inline object, written as @p w's next value. */
void
writeEnvelope(JsonWriter &w, const ulpeak::peak::Envelope &env)
{
    w.beginObject(Layout::Inline).field("cycles", env.powerW.size())
        .field("peak_power_w", env.peakPowerW())
        .field("windows", env.windows)
        .field("peak_window_energy_j", env.peakWindowEnergyJ)
        .field("power_w", env.powerW)
        .field("window_energy_j", env.windowEnergyJ).end();
}

} // namespace

std::vector<Option>
peakOptions(CliOptions &o)
{
    return {
        customOpt("--programs", "SPEC[,SPEC...]",
                  "programs to analyze (same as positional specs)",
                  [&o](const std::string &v, std::string &) {
                      appendCommaList(v, o.programSpecs);
                      return true;
                  }),
        intOpt("--jobs", "N",
               "program-level workers (default: all CPUs; a cap)",
               o.jobs, 1),
        intOpt("--threads", "N",
               "symbolic workers per analysis (default: all CPUs;\n"
               "a cap); jobs x threads share the host's CPUs, and\n"
               "extra workers join once one worker holds more than\n"
               "one 64-path lane batch",
               o.threads, 1),
        positiveOpt("--freq", "HZ",
                    "operating frequency [Hz]  (default 1e8)", o.freqHz),
        choiceOpt("--eval-mode", "M",
                  "simulation kernel: event|full (default event)",
                  {"event", "full"},
                  [&o](const std::string &v) {
                      o.evalMode = v == "full" ? EvalMode::FullSweep
                                               : EvalMode::EventDriven;
                  }),
        intOpt("--loop-bound", "N",
               "input-dependent loop bound    (default 0)", o.loopBound),
        intOpt("--max-cycles", "N",
               "total symbolic cycle budget (default 3000000)",
               o.maxTotalCycles),
        switchOpt("--static-prune",
                  "skip gates the static lint analysis proves constant\n"
                  "under each scenario (see ullint; never changes a\n"
                  "reported number)",
                  o.staticPrune),
        switchOpt("--packed-explore",
                  "reference frontier: every exploration path through\n"
                  "the 64-lane kernel (the default picks scalar or\n"
                  "lanes per worker; never changes a reported number)",
                  o.packedExplore),
        stringOpt("--json", "FILE", "write the suite report as JSON",
                  o.jsonPath),
        stringOpt("--csv", "FILE", "write per-program rows as CSV",
                  o.csvPath),
        attachedChoiceOpt("--envelope",
                          "per-cycle peak power envelope + windowed peak-\n"
                          "energy curves: json embeds them in the --json\n"
                          "report, csv streams per-cycle rows to stdout\n"
                          "(default json)",
                          {"json", "csv"}, o.envelope, o.envelopeFormat),
        customOpt("--windows", "LIST",
                  "envelope window lengths in cycles (default 1,10,100)",
                  [&o](const std::string &v, std::string &why) {
                      o.windows.clear();
                      std::stringstream ss(v);
                      std::string item;
                      while (std::getline(ss, item, ',')) {
                          unsigned n = 0;
                          if (!parseInteger(item, n, 1, why))
                              return false;
                          o.windows.push_back(n);
                      }
                      if (o.windows.empty())
                          why = "empty list";
                      return !o.windows.empty();
                  }),
        attachedChoiceOpt("--modes",
                          "per-operating-mode report of mode-scheduled\n"
                          "scenarios (implies envelope recording): per-mode\n"
                          "envelope slices, schedule transitions with\n"
                          "settling-window peaks, assertion verdicts and\n"
                          "sizing findings; table appends sections to the\n"
                          "stdout table, json/csv print a standalone\n"
                          "deterministic report (default table)",
                          {"table", "json", "csv"}, o.modes,
                          o.modesFormat),
        switchOpt("--no-timings",
                  "omit wall-time / cache fields from the --json\n"
                  "report (byte-identical across --jobs/--threads/cache)",
                  o.noTimings),
        listOpt("--scenario", "S[,S...]",
                "deployment scenarios to sweep the suite across:\n"
                "preset names (unconstrained, ports-grounded,\n"
                "sensor-4bit, periodic-sensor, duty-cycled-dvfs) or\n"
                "scenario .json files; the report carries the\n"
                "scenario x program matrix and per-scenario maxima",
                o.scenarioSpecs),
        stringOpt("--cache-dir", "DIR",
                  "result cache (default .ulpeak-cache)", o.cacheDir),
        switchOpt("--no-cache", "disable the result cache", o.noCache),
        switchOpt("--fail-fast",
                  "stop claiming programs after a failure;\n"
                  "programs are claimed costliest first (by\n"
                  "peak::estimateCost), so at --jobs 1 the\n"
                  "skipped rows are those estimated cheaper\n"
                  "than the failing one",
                  o.failFast),
        switchOpt("--quiet", "suppress the stdout table", o.quiet),
    };
}

std::string
usage()
{
    CliOptions o;
    return "ulpeak -- guaranteed peak power/energy requirements of "
           "application suites\n"
           "\n"
           "usage: ulpeak [--programs SPEC[,SPEC...]] [SPEC...] "
           "[options]\n"
           "\n"
           "program specs (mixable):\n"
           "  all               every bench430 program (14 benchmarks)\n"
           "  NAME              a bench430 program by name (mult, FFT, "
           "...)\n"
           "  PATH.s|PATH.asm   an MSP430 assembly file from disk\n"
           "\n"
           "options:\n" +
           usageText(peakOptions(o), 20) +
           "\n"
           "exit status: 0 = every program analyzed, 1 = an analysis\n"
           "failed, 2 = usage error (including an unusable --cache-dir).\n";
}

bool
parseArgs(int argc, const char *const *argv, CliOptions &out,
          std::string &err)
{
    std::vector<Option> table = peakOptions(out);
    // Positional specs parse like the first row, --programs.
    if (!parseOptions(argc, argv, table, table.front().apply, out.help,
                      err))
        return false;
    if (!out.help && out.programSpecs.empty()) {
        err = "no programs given (try --programs all)";
        return false;
    }
    return true;
}

std::vector<peak::BatchProgram>
resolvePrograms(const std::vector<std::string> &specs)
{
    std::vector<peak::BatchProgram> out;
    for (const std::string &spec : specs) {
        if (spec == "all") {
            for (const auto &b : bench430::allBenchmarks())
                out.push_back({b.name, b.assembleImage()});
        } else if (looksLikePath(spec)) {
            std::ifstream in(spec);
            if (!in)
                throw std::runtime_error("cannot read assembly file: " +
                                         spec);
            std::stringstream ss;
            ss << in.rdbuf();
            try {
                out.push_back({pathStem(spec),
                               isa::assemble(ss.str())});
            } catch (const std::exception &e) {
                throw std::runtime_error(spec + ": " + e.what());
            }
        } else {
            try {
                const bench430::Benchmark &b =
                    bench430::benchmarkByName(spec);
                out.push_back({b.name, b.assembleImage()});
            } catch (const std::out_of_range &) {
                std::string names;
                for (const std::string &n :
                     bench430::allBenchmarkNames())
                    names += (names.empty() ? "" : ", ") + n;
                throw std::runtime_error(
                    "unknown program '" + spec +
                    "' (known: all, " + names +
                    ", or a .s/.asm path)");
            }
        }
    }
    return out;
}

peak::BatchOptions
toBatchOptions(const CliOptions &cli)
{
    peak::BatchOptions b;
    b.analysis.freqHz = cli.freqHz;
    b.analysis.evalMode = cli.evalMode;
    b.analysis.numThreads = cli.threads;
    b.analysis.inputDependentLoopBound = cli.loopBound;
    b.analysis.maxTotalCycles = cli.maxTotalCycles;
    b.analysis.staticPrune = cli.staticPrune;
    b.analysis.packedExplore = cli.packedExplore;
    // The mode report is sliced from the envelope, so --modes
    // records one even without an explicit --envelope.
    b.analysis.recordEnvelope = cli.envelope || cli.modes;
    if (!cli.windows.empty())
        b.analysis.envelopeWindows = cli.windows;
    for (const std::string &spec : cli.scenarioSpecs)
        b.scenarios.push_back(scenario::Scenario::resolve(spec));
    b.jobs = cli.jobs;
    b.cacheDir = cli.noCache ? "" : cli.cacheDir;
    b.failFast = cli.failFast;
    return b;
}

std::string
toJson(const peak::BatchReport &rep, const peak::BatchOptions &opts,
       bool include_timings)
{
    const peak::Options &a = opts.analysis;
    JsonWriter w;
    w.beginObject().field("tool", "ulpeak").field("format_version", 3);
    w.key("options").beginObject().field("freq_hz", a.freqHz);
    w.field("eval_mode",
            a.evalMode == EvalMode::EventDriven ? "event" : "full")
        .field("loop_bound", a.inputDependentLoopBound)
        .field("max_total_cycles", a.maxTotalCycles).end();
    if (include_timings)
        w.key("run").beginObject().field("jobs", rep.jobs)
            .field("threads", rep.threads)
            .field("host_cpus", rep.hostCpus)
            .field("cache", !opts.cacheDir.empty())
            .field("cache_hits", rep.cacheHits)
            .field("cache_misses", rep.cacheMisses)
            .field("wall_seconds", rep.wallSeconds).end();
    w.key("programs").beginArray();
    for (const peak::ProgramResult &r : rep.programs) {
        w.beginObject(Layout::Inline).field("name", r.name)
            .field("scenario", r.scenario).field("ok", r.ok);
        if (!r.ok)
            w.field("error", r.error);
        w.field("peak_power_w", r.peakPowerW)
            .field("peak_energy_j", r.peakEnergyJ)
            .field("npe_j_per_cycle", r.npeJPerCycle)
            .field("max_path_cycles", r.maxPathCycles)
            .field("total_cycles", r.totalCycles)
            .field("paths_explored", r.pathsExplored)
            .field("dedup_merges", r.dedupMerges);
        if (r.envelope.present)
            writeEnvelope(w.key("envelope"), r.envelope);
        if (include_timings) {
            // Run-provenance statistics live with the timing fields:
            // steals and the per-worker split are
            // scheduling-dependent, and all of them are zero on
            // cache hits, so they would break the byte-identity
            // contract anywhere else.
            w.field("cached", r.cached).field("wall_seconds", r.wallSeconds)
                .key("stats").beginObject(Layout::Inline)
                .field("steals", r.steals)
                .field("snapshot_bytes_copied", r.snapshotBytesCopied)
                .field("snapshot_bytes_full", r.snapshotBytesFull)
                .field("packed_batches", r.packedBatches)
                .field("packed_sweeps", r.packedSweeps)
                .field("packed_lane_cycles", r.packedLaneCycles)
                .field("lane_loads", r.laneLoads)
                .field("lane_continues", r.laneContinues)
                .field("lane_copies", r.laneCopies)
                .field("lane_extracts", r.laneExtracts)
                .field("fork_captures", r.forkCaptures)
                .field("per_worker_cycles", r.perWorkerCycles).end();
        }
        w.end();
    }
    // The suite maxima of a ScenarioSummary or of the whole report.
    auto maxima = [&w](const auto &m) {
        w.field("max_peak_power_w", m.maxPeakPowerW)
            .field("max_peak_power_program", m.maxPeakPowerProgram)
            .field("max_peak_energy_j", m.maxPeakEnergyJ)
            .field("max_peak_energy_program", m.maxPeakEnergyProgram)
            .field("max_npe_j_per_cycle", m.maxNpeJPerCycle)
            .field("max_npe_program", m.maxNpeProgram);
    };
    w.end().key("scenarios").beginArray();
    for (const peak::ScenarioSummary &sum : rep.scenarios) {
        const peak::ScenarioSummary &first = rep.scenarios.front();
        w.beginObject(Layout::Inline).field("name", sum.scenario)
            .field("summary", sum.summary).field("ok", sum.ok);
        maxima(sum);
        // How much this scenario's constraints tighten the suite
        // bounds relative to the first listed scenario (1.0 = no
        // change; < 1 = tighter).
        if (&sum != &first && first.maxPeakPowerW > 0 &&
            first.maxPeakEnergyJ > 0)
            w.key("vs_first").beginObject(Layout::Inline)
                .field("peak_power", sum.maxPeakPowerW / first.maxPeakPowerW)
                .field("peak_energy",
                       sum.maxPeakEnergyJ / first.maxPeakEnergyJ).end();
        const sizing::EnvelopeSupply &es = sum.envelopeSupply;
        if (sum.suiteEnvelope.present)
            w.key("envelope_sizing").beginObject(Layout::Inline)
                .field("peak_power_w", es.peakPowerW)
                .field("sustained_power_w", es.sustainedPowerW).end();
        w.end();
    }
    w.end().key("suite").beginObject()
        .field("programs", rep.programs.size()).field("ok", rep.ok);
    maxima(rep);
    w.end();
    auto harvesters = [&w](const auto &hs) {
        w.key("harvesters").beginArray();
        for (const auto &h : hs)
            w.beginObject(Layout::Inline).field("name", h.name)
                .field("area_cm2", h.areaCm2).end();
        w.end();
    };
    w.key("sizing").beginObject()
        .field("peak_power_w", rep.supply.peakPowerW)
        .field("peak_energy_j", rep.supply.peakEnergyJ);
    harvesters(rep.supply.harvesters);
    w.key("batteries").beginArray();
    for (const auto &b : rep.supply.batteries)
        w.beginObject(Layout::Inline).field("name", b.name)
            .field("volume_l", b.volumeL).field("mass_g", b.massG).end();
    w.end().end();
    if (rep.suiteEnvelope.present) {
        writeEnvelope(w.key("suite_envelope"), rep.suiteEnvelope);
        const sizing::EnvelopeSupply &es = rep.envelopeSupply;
        w.key("envelope_sizing").beginObject()
            .field("peak_power_w", es.peakPowerW)
            .field("sustained_power_w", es.sustainedPowerW)
            .field("windows", es.windows)
            .field("peak_window_energy_j", es.peakWindowEnergyJ)
            .field("decap_f", es.decapF);
        harvesters(es.harvesters);
        w.end();
    }
    return w.end().take();
}

std::string
toCsv(const peak::BatchReport &rep)
{
    std::ostringstream o;
    o << "name,scenario,ok,cached,peak_power_w,peak_energy_j,"
         "npe_j_per_cycle,max_path_cycles,total_cycles,"
         "paths_explored,dedup_merges,wall_seconds,error\n";
    for (const peak::ProgramResult &r : rep.programs) {
        o << csvQuote(r.name) << ',' << csvQuote(r.scenario) << ','
          << (r.ok ? 1 : 0) << ','
          << (r.cached ? 1 : 0) << ',' << fmtDouble(r.peakPowerW)
          << ',' << fmtDouble(r.peakEnergyJ) << ','
          << fmtDouble(r.npeJPerCycle) << ',' << r.maxPathCycles << ','
          << r.totalCycles << ',' << r.pathsExplored << ','
          << r.dedupMerges << ',' << fmtDouble(r.wallSeconds) << ','
          << csvQuote(r.error) << "\n";
    }
    return o.str();
}

std::string
toEnvelopeCsv(const peak::BatchReport &rep)
{
    std::ostringstream o;
    const peak::Envelope *any = nullptr;
    for (const peak::ProgramResult &r : rep.programs)
        if (r.envelope.present) {
            any = &r.envelope;
            break;
        }
    if (!any && rep.suiteEnvelope.present)
        any = &rep.suiteEnvelope;
    o << "program,scenario,cycle,envelope_w";
    if (any)
        for (unsigned w : any->windows)
            o << ",window_energy_j_w" << w;
    o << "\n";
    auto emit = [&o](const std::string &name,
                     const std::string &scenario,
                     const peak::Envelope &env) {
        for (size_t c = 0; c < env.powerW.size(); ++c) {
            o << csvQuote(name) << ',' << csvQuote(scenario) << ','
              << c << ',' << fmtDouble(double(env.powerW[c]));
            for (const auto &curve : env.windowEnergyJ)
                o << ','
                  << fmtDouble(c < curve.size() ? double(curve[c])
                                                : 0.0);
            o << "\n";
        }
    };
    for (const peak::ProgramResult &r : rep.programs)
        if (r.envelope.present)
            emit(r.name, r.scenario, r.envelope);
    for (const peak::ScenarioSummary &s : rep.scenarios)
        if (s.suiteEnvelope.present)
            emit("__suite__", s.scenario, s.suiteEnvelope);
    return o.str();
}

std::vector<peak::ModeReport>
buildModeReports(const peak::BatchReport &rep,
                 const std::vector<scenario::Scenario> &scens,
                 double lib_vdd)
{
    std::vector<peak::ModeReport> out(rep.programs.size());
    if (scens.empty() || rep.programs.empty())
        return out;
    // Rows are scenario-major: row i ran scenario i / (P programs).
    size_t nProg = rep.programs.size() / scens.size();
    if (nProg == 0)
        return out;
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        size_t s = i / nProg;
        if (s >= scens.size() || !scens[s].hasModes())
            continue;
        const peak::ProgramResult &r = rep.programs[i];
        if (r.ok && r.envelope.present)
            out[i] =
                peak::buildModeReport(r.envelope, scens[s], lib_vdd);
    }
    return out;
}

std::string
toModesJson(const peak::BatchReport &rep,
            const std::vector<peak::ModeReport> &reports)
{
    JsonWriter w;
    w.beginObject().field("tool", "ulpeak").field("report", "modes");
    w.key("rows").beginArray();
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        if (i >= reports.size() || !reports[i].present)
            continue;
        const peak::ProgramResult &r = rep.programs[i];
        const peak::ModeReport &m = reports[i];
        w.beginObject(Layout::Inline).field("program", r.name)
            .field("scenario", r.scenario)
            .field("composite_peak_w", m.compositePeakW)
            .field("envelope_cycles", m.envelopeCycles)
            .field("all_assertions_pass", m.allAssertionsPass())
            .wrap().key("modes").beginArray(Layout::Inline);
        for (const peak::ModeSlice &s : m.modes)
            w.beginObject(Layout::Inline).field("name", s.name)
                .field("vdd", s.vdd).field("freq_hz", s.freqHz)
                .field("cycles", s.cycles).field("peak_w", s.peakW)
                .field("peak_cycle", s.peakCycle).field("avg_w", s.avgW)
                .field("energy_j", s.energyJ).end();
        w.end().wrap().key("transitions").beginArray(Layout::Inline);
        for (const peak::ModeTransition &t : m.transitions)
            w.beginObject(Layout::Inline).field("from", t.from)
                .field("to", t.to).field("phase", t.phase)
                .field("occurrences", t.occurrences)
                .field("peak_entry_w", t.peakEntryW)
                .field("settle_cycles", t.settleCycles)
                .field("peak_settle_w", t.peakSettleW).end();
        w.end().wrap().key("assertions").beginArray(Layout::Inline);
        for (const peak::ModeAssertionResult &a : m.assertions)
            w.beginObject(Layout::Inline).field("mode", a.assertion.mode)
                .field("max_power_w", a.assertion.maxPowerW)
                .field("settle_cycles", a.assertion.settleCycles)
                .field("pass", a.pass)
                .field("checked_cycles", a.checkedCycles)
                .field("violations", a.violations)
                .field("first_violation_cycle", a.firstViolationCycle)
                .field("max_excess_w", a.maxExcessW).end();
        w.end().wrap().field("findings", m.findings).end();
    }
    return w.end().end().take();
}

std::string
toModesCsv(const peak::BatchReport &rep,
           const std::vector<peak::ModeReport> &reports)
{
    std::ostringstream o;
    o << "program,scenario,kind,name,vdd,freq_hz,cycles,peak_w,"
         "avg_w,energy_j,pass,detail\n";
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        if (i >= reports.size() || !reports[i].present)
            continue;
        const peak::ProgramResult &r = rep.programs[i];
        const peak::ModeReport &m = reports[i];
        auto row = [&](const char *kind, const std::string &name) {
            o << csvQuote(r.name) << ',' << csvQuote(r.scenario)
              << ',' << kind << ',' << csvQuote(name) << ',';
        };
        for (const peak::ModeSlice &s : m.modes) {
            row("mode", s.name);
            o << fmtDouble(s.vdd) << ',' << fmtDouble(s.freqHz)
              << ',' << s.cycles << ',' << fmtDouble(s.peakW) << ','
              << fmtDouble(s.avgW) << ',' << fmtDouble(s.energyJ)
              << ",,\n";
        }
        for (const peak::ModeTransition &t : m.transitions) {
            row("transition", t.from + "->" + t.to);
            o << ",," << t.occurrences << ','
              << fmtDouble(t.peakSettleW) << ",,,,"
              << csvQuote("phase " + std::to_string(t.phase) +
                          " settle " + std::to_string(t.settleCycles))
              << "\n";
        }
        for (const peak::ModeAssertionResult &a : m.assertions) {
            row("assertion", a.assertion.mode);
            o << ",," << a.checkedCycles << ','
              << fmtDouble(a.assertion.maxPowerW) << ",,,"
              << (a.pass ? 1 : 0) << ','
              << csvQuote("violations " +
                          std::to_string(a.violations) +
                          " max_excess_w " +
                          fmtDouble(a.maxExcessW))
              << "\n";
        }
        for (const std::string &f : m.findings) {
            row("finding", "");
            o << ",,,,,,," << csvQuote(f) << "\n";
        }
    }
    return o.str();
}

int
runCli(int argc, const char *const *argv)
{
    CliOptions cli;
    std::string err;
    if (!parseArgs(argc, argv, cli, err))
        return usageError("ulpeak", err, usage());
    if (cli.help) {
        std::fputs(usage().c_str(), stdout);
        return 0;
    }

    std::vector<peak::BatchProgram> suite;
    peak::BatchOptions opts;
    try {
        suite = resolvePrograms(cli.programSpecs);
        // Resolves --scenario specs too; bad presets / unreadable
        // or malformed scenario files are usage errors like bad
        // program specs, not crashes.
        opts = toBatchOptions(cli);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulpeak: %s\n", e.what());
        return 2;
    }
    const CellLibrary &lib = CellLibrary::tsmc65Like();
    peak::BatchReport rep;
    try {
        rep = peak::analyzeBatch(lib, suite, opts);
    } catch (const util::DiskCacheError &e) {
        std::fprintf(stderr, "ulpeak: --cache-dir %s\n", e.what());
        return 2;
    }

    std::vector<peak::ModeReport> modeReps;
    if (cli.modes) {
        std::vector<scenario::Scenario> scens = opts.scenarios;
        if (scens.empty())
            scens.push_back(opts.analysis.scenario);
        modeReps = buildModeReports(rep, scens, lib.vdd());
    }

    if (!cli.quiet) {
        const bool multi = rep.scenarios.size() > 1;
        std::printf("%-12s %-15s %3s %6s %12s %14s %13s %7s %9s %8s\n",
                    "program", "scenario", "ok", "cached", "peak [mW]",
                    "NPE [pJ/cyc]", "energy [nJ]", "paths", "cycles",
                    "wall [s]");
        for (const peak::ProgramResult &r : rep.programs) {
            if (r.ok)
                std::printf(
                    "%-12s %-15s %3s %6s %12.3f %14.2f %13.3f %7u "
                    "%9" PRIu64 " %8.2f\n",
                    r.name.c_str(), r.scenario.c_str(), "yes",
                    r.cached ? "yes" : "no",
                    r.peakPowerW * 1e3, r.npeJPerCycle * 1e12,
                    r.peakEnergyJ * 1e9, r.pathsExplored,
                    r.totalCycles, r.wallSeconds);
            else
                std::printf("%-12s %-15s %3s  FAILED: %s\n",
                            r.name.c_str(), r.scenario.c_str(), "no",
                            r.error.c_str());
        }
        std::printf("\nsuite: %zu programs x %zu scenario%s, %s "
                    "(%.2f s, %u cache hits / %u misses)\n",
                    rep.programs.size() /
                        (rep.scenarios.empty()
                             ? 1
                             : rep.scenarios.size()),
                    rep.scenarios.size(), multi ? "s" : "",
                    rep.ok ? "all ok" : "FAILURES", rep.wallSeconds,
                    rep.cacheHits, rep.cacheMisses);
        for (const peak::ScenarioSummary &sum : rep.scenarios) {
            if (sum.maxPeakPowerProgram.empty())
                continue;
            if (multi)
                std::printf("\nscenario %s (%s):\n",
                            sum.scenario.c_str(),
                            sum.summary.c_str());
            std::printf("suite peak power : %.3f mW (%s) -- the "
                        "supply-sizing number\n",
                        sum.maxPeakPowerW * 1e3,
                        sum.maxPeakPowerProgram.c_str());
            std::printf("suite peak energy: %.3f nJ (%s)\n",
                        sum.maxPeakEnergyJ * 1e9,
                        sum.maxPeakEnergyProgram.c_str());
            std::printf("suite max NPE    : %.2f pJ/cycle (%s)\n",
                        sum.maxNpeJPerCycle * 1e12,
                        sum.maxNpeProgram.c_str());
            if (multi && &sum != &rep.scenarios.front() &&
                rep.scenarios.front().maxPeakPowerW > 0)
                std::printf("tightening       : peak power %.1f%% of "
                            "%s\n",
                            100.0 * sum.maxPeakPowerW /
                                rep.scenarios.front().maxPeakPowerW,
                            rep.scenarios.front().scenario.c_str());
            for (const auto &h : sum.supply.harvesters)
                std::printf("  harvester %-22s %12.4f cm^2\n",
                            h.name.c_str(), h.areaCm2);
            if (sum.suiteEnvelope.present) {
                const sizing::EnvelopeSupply &es = sum.envelopeSupply;
                std::printf("suite envelope   : %zu cycles, peak "
                            "%.3f mW, sustained %.3f mW\n",
                            sum.suiteEnvelope.cycles(),
                            es.peakPowerW * 1e3,
                            es.sustainedPowerW * 1e3);
                for (size_t w = 0; w < es.windows.size(); ++w)
                    std::printf("  window %6u cyc: peak energy "
                                "%10.3f nJ, decap %10.3f nF\n",
                                es.windows[w],
                                es.peakWindowEnergyJ[w] * 1e9,
                                es.decapF[w] * 1e9);
            }
        }
    }
    if (!cli.quiet && cli.modes && cli.modesFormat == "table") {
        for (size_t i = 0; i < modeReps.size(); ++i) {
            const peak::ModeReport &m = modeReps[i];
            if (!m.present)
                continue;
            const peak::ProgramResult &r = rep.programs[i];
            std::printf("\nmodes: %s under %s (composite peak "
                        "%.3f mW over %" PRIu64 " cycles)\n",
                        r.name.c_str(), r.scenario.c_str(),
                        m.compositePeakW * 1e3, m.envelopeCycles);
            for (const peak::ModeSlice &s : m.modes)
                std::printf("  mode %-10s %5.2f V %9.3g Hz: "
                            "%8" PRIu64 " cyc, peak %9.3f mW @%-8"
                            PRIu64 " avg %9.3f mW, %10.3f nJ\n",
                            s.name.c_str(), s.vdd, s.freqHz,
                            s.cycles, s.peakW * 1e3, s.peakCycle,
                            s.avgW * 1e3, s.energyJ * 1e9);
            for (const peak::ModeTransition &t : m.transitions)
                std::printf("  switch %s -> %-10s phase %-4" PRIu64
                            " x%-5" PRIu64 " entry %9.3f mW, settle "
                            "%" PRIu64 " cyc peak %9.3f mW\n",
                            t.from.c_str(), t.to.c_str(), t.phase,
                            t.occurrences, t.peakEntryW * 1e3,
                            t.settleCycles, t.peakSettleW * 1e3);
            for (const peak::ModeAssertionResult &a : m.assertions) {
                if (a.pass)
                    std::printf("  assert %-10s <= %9.3f mW "
                                "(settle %" PRIu64 "): PASS over "
                                "%" PRIu64 " cycles\n",
                                a.assertion.mode.c_str(),
                                a.assertion.maxPowerW * 1e3,
                                a.assertion.settleCycles,
                                a.checkedCycles);
                else
                    std::printf("  assert %-10s <= %9.3f mW "
                                "(settle %" PRIu64 "): FAIL -- %"
                                PRIu64 " violation(s), first at "
                                "cycle %" PRIu64 ", worst +%.3f mW\n",
                                a.assertion.mode.c_str(),
                                a.assertion.maxPowerW * 1e3,
                                a.assertion.settleCycles,
                                a.violations, a.firstViolationCycle,
                                a.maxExcessW * 1e3);
            }
            for (const std::string &f : m.findings)
                std::printf("  finding: %s\n", f.c_str());
        }
    }
    if (cli.envelope && cli.envelopeFormat == "csv")
        std::fputs(toEnvelopeCsv(rep).c_str(), stdout);
    if (cli.modes && cli.modesFormat == "json")
        std::fputs(toModesJson(rep, modeReps).c_str(), stdout);
    if (cli.modes && cli.modesFormat == "csv")
        std::fputs(toModesCsv(rep, modeReps).c_str(), stdout);

    if (!cli.jsonPath.empty() &&
        !writeReport("ulpeak", cli.jsonPath,
                     toJson(rep, opts, /*include_timings=*/!cli.noTimings)))
        return 1;
    if (!cli.csvPath.empty() &&
        !writeReport("ulpeak", cli.csvPath, toCsv(rep)))
        return 1;
    return rep.ok ? 0 : 1;
}

} // namespace cli
} // namespace ulpeak

/**
 * @file
 * The four workloads and the traced layer probes. Every workload goes
 * through the tools' public entry points: cli::parseArgs ->
 * cli::toBatchOptions -> peak::analyzeBatch -> cli::toJson for
 * `ulpeak`, cli::parseFaultArgs -> fault::runCampaign ->
 * cli::toFaultJson for `ulfault`. Nothing here reaches inside a layer;
 * the per-layer numbers come from spans around calls into each
 * layer's public functions.
 */

#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench430/benchmarks.hh"
#include "cell/cell_library.hh"
#include "cli/driver.hh"
#include "cli/fault_driver.hh"
#include "cosim/cosim.hh"
#include "fault/campaign.hh"
#include "msp/cpu.hh"
#include "peak/batch.hh"
#include "peak/envelope.hh"
#include "power/analysis.hh"
#include "power/packed_run.hh"
#include "sym/symbolic_engine.hh"
#include "ulbench.hh"

namespace fs = std::filesystem;

namespace ulbench {

using namespace ulpeak;

namespace {

const char *const kScenarioMatrix =
    "unconstrained,ports-grounded,sensor-4bit,periodic-sensor,"
    "duty-cycled-dvfs";

/** A workload: the tool command lines it runs, without argv[0]. */
struct WorkloadSpec {
    bool fault = false;
    /** Cold pass into a fresh private cache dir, then a warm pass. */
    bool coldWarm = false;
    std::vector<std::vector<std::string>> commands;
};

WorkloadSpec
workloadSpec(const std::string &name, uint64_t seed)
{
    WorkloadSpec w;
    if (name == "suite-cold") {
        w.commands = {{"all", "--no-cache"}};
    } else if (name == "fork-parallel") {
        w.commands = {{"rle,PI,binSearch,div,tHold,inSort", "--no-cache",
                       "--threads", "2", "--envelope"}};
    } else if (name == "scenario-matrix") {
        // --cache-dir is replaced by a fresh directory on every pass.
        w.coldWarm = true;
        w.commands = {{"all", "--scenario", kScenarioMatrix,
                       "--envelope", "--modes", "--jobs", "2",
                       "--cache-dir", "unused"}};
    } else if (name == "fault-campaign") {
        w.fault = true;
        for (const char *prog : {"mult", "tea8"})
            w.commands.push_back({prog, "--envelope", "--jobs", "2",
                                  "--no-cache", "--seed",
                                  std::to_string(seed)});
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return w;
}

/** The analysis the traced run probes for a fault workload: the
 *  envelope analysis its campaigns run, as a batch. */
const std::vector<std::string> kFaultAnalysisProbe = {
    "mult,tea8", "--envelope", "--jobs", "2", "--no-cache"};

/** The campaign the traced run probes for an analysis workload. */
std::vector<std::vector<std::string>>
faultReferenceProbe(uint64_t seed)
{
    return {{"mult", "--envelope", "--jobs", "2", "--no-cache", "--seed",
             std::to_string(seed)}};
}

std::vector<const char *>
argvOf(const std::string &tool, const std::vector<std::string> &args)
{
    std::vector<const char *> argv{tool.c_str()};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return argv;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** The process's resident-set high-water mark. Read from
 *  /proc/self/status (VmHWM) rather than getrusage, whose ru_maxrss
 *  survives execve and so can report the launching process's peak. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

uint64_t
dirBytes(const std::string &dir)
{
    uint64_t n = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            n += e.file_size();
    return n;
}

/** Fresh private cache directories under the run's scratch dir. */
class ScratchDirs {
  public:
    explicit ScratchDirs(const std::string &root) : root_(root)
    {
        fs::remove_all(root_);
        fs::create_directories(root_);
    }
    ~ScratchDirs()
    {
        std::error_code ec;
        fs::remove_all(root_, ec);
    }
    ScratchDirs(const ScratchDirs &) = delete;
    ScratchDirs &operator=(const ScratchDirs &) = delete;

    std::string fresh()
    {
        std::string d = root_ + "/cache-" + std::to_string(next_++);
        fs::remove_all(d);
        return d;
    }
    static void drop(const std::string &d) { fs::remove_all(d); }

  private:
    std::string root_;
    unsigned next_ = 0;
};

const CellLibrary &
lib()
{
    static const CellLibrary l = CellLibrary::tsmc65Like();
    return l;
}

// ---------------------------------------------------------------------
// Set-up

struct AnalysisSetup {
    cli::CliOptions cli;
    std::vector<peak::BatchProgram> suite;
    peak::BatchOptions opts;
    std::vector<scenario::Scenario> scens; ///< the batch's scenario list
};

struct FaultJob {
    cli::FaultCliOptions cli;
    std::string program;
    isa::Image image; ///< with the seeded inputs folded in
    fault::CampaignOptions copts;
};

AnalysisSetup
setUpAnalysis(const std::vector<std::string> &args, Tracer &t)
{
    AnalysisSetup s;
    std::string err;
    std::vector<const char *> argv = argvOf("ulpeak", args);
    {
        ScopedSpan sp(t, "cli.parse");
        if (!cli::parseArgs(int(argv.size()), argv.data(), s.cli, err))
            throw std::runtime_error("ulpeak arguments: " + err);
    }
    {
        ScopedSpan sp(t, "isa.assemble");
        s.suite = cli::resolvePrograms(s.cli.programSpecs);
    }
    {
        ScopedSpan sp(t, "scenario.resolve");
        s.opts = cli::toBatchOptions(s.cli);
    }
    s.scens = s.opts.scenarios;
    if (s.scens.empty())
        s.scens.push_back(s.opts.analysis.scenario);
    return s;
}

/** The registry inputs `ulfault` folds into a benchmark image, so the
 *  golden run does not diverge on uninitialized RAM (the same
 *  derivation as the tool: one input set from the campaign seed). */
void
foldInputs(FaultJob &j)
{
    for (const bench430::Benchmark &b : bench430::allBenchmarks()) {
        if (b.name != j.program)
            continue;
        fuzz::Rng rng(fuzz::Rng::deriveStream(j.cli.seed, 3ull << 40));
        baseline::InputSet in = b.makeInput(rng);
        for (auto &[addr, words] : in.ram)
            j.image.segments.push_back({addr, words});
        if (b.usesPort && !j.cli.portSet)
            j.copts.portIn = in.portIn;
        return;
    }
}

std::vector<FaultJob>
setUpFault(const std::vector<std::vector<std::string>> &commands,
           Tracer &t)
{
    std::vector<FaultJob> jobs;
    for (const std::vector<std::string> &args : commands) {
        FaultJob j;
        std::string err;
        std::vector<const char *> argv = argvOf("ulfault", args);
        {
            ScopedSpan sp(t, "cli.parse");
            if (!cli::parseFaultArgs(int(argv.size()), argv.data(), j.cli,
                                     err))
                throw std::runtime_error("ulfault arguments: " + err);
        }
        {
            ScopedSpan sp(t, "isa.assemble");
            peak::BatchProgram p =
                cli::resolvePrograms({j.cli.programSpec}).front();
            j.program = p.name;
            j.image = std::move(p.image);
        }
        j.copts = cli::toCampaignOptions(j.cli);
        foldInputs(j);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

std::unique_ptr<msp::System>
elaborate(Tracer &t)
{
    ScopedSpan sp(t, "netlist.elaborate");
    return std::make_unique<msp::System>(lib());
}

// ---------------------------------------------------------------------
// Timed passes

struct PassOutcome {
    double wallS = 0.0;
    double cpuS = 0.0;
    std::string digest;  ///< of the pass's deterministic output
    std::string failure; ///< "" = output correct
};

/** Deterministic analysis output: toJson without timings plus the
 *  modes report when the command asks for one. */
std::string
analysisOutput(const AnalysisSetup &s, const peak::BatchReport &rep,
               const std::vector<peak::ModeReport> &modes)
{
    std::string out = cli::toJson(rep, s.opts, false);
    if (s.cli.modes)
        out += cli::toModesJson(rep, modes);
    return out;
}

struct BatchRun {
    peak::BatchReport rep;
    std::vector<peak::ModeReport> modes;
};

/** The user path of one `ulpeak` invocation: analyze, build the
 *  modes report, serialize. */
BatchRun
runBatch(const AnalysisSetup &s, const peak::BatchOptions &opts,
         Tracer &t, const std::string &tag)
{
    BatchRun r;
    {
        ScopedSpan sp(t, tag + ".batch");
        r.rep = peak::analyzeBatch(lib(), s.suite, opts);
    }
    if (s.cli.modes) {
        ScopedSpan sp(t, tag + ".modes");
        r.modes = cli::buildModeReports(r.rep, s.scens, lib().vdd());
    }
    {
        ScopedSpan sp(t, tag + ".to_json");
        cli::toJson(r.rep, opts, true);
        if (s.cli.modes)
            cli::toModesJson(r.rep, r.modes);
    }
    return r;
}

std::string
rowFailure(const peak::BatchReport &rep)
{
    for (const peak::ProgramResult &r : rep.programs)
        if (!r.ok)
            return "row " + r.name + "/" + r.scenario + " failed: " +
                   r.error;
    return "";
}

PassOutcome
analysisPass(const AnalysisSetup &s, const WorkloadSpec &w,
             ScratchDirs &dirs, const std::string &pinned, Tracer &t)
{
    PassOutcome o;
    peak::BatchOptions opts = s.opts;
    if (w.coldWarm)
        opts.cacheDir = dirs.fresh();

    BatchRun cold, warm;
    double c0 = cpuSeconds();
    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan sp(t, "workload.pass");
        cold = runBatch(s, opts, t, "workload");
        if (w.coldWarm)
            warm = runBatch(s, opts, t, "workload.warm");
    }
    o.wallS = secondsSince(t0);
    o.cpuS = cpuSeconds() - c0;

    if (w.coldWarm)
        ScratchDirs::drop(opts.cacheDir);

    o.digest = digestHex(analysisOutput(s, cold.rep, cold.modes));
    o.failure = rowFailure(cold.rep);
    if (o.failure.empty() && o.digest != pinned)
        o.failure = "output digest differs from the pinned digest";
    if (o.failure.empty() && w.coldWarm) {
        if (warm.rep.cacheHits != warm.rep.programs.size())
            o.failure = "warm pass missed the cache (" +
                        std::to_string(warm.rep.cacheMisses) +
                        " misses)";
        else if (digestHex(analysisOutput(s, warm.rep, warm.modes)) !=
                 pinned)
            o.failure = "warm output digest differs from the pinned "
                        "digest";
    }
    return o;
}

using CampaignRun = std::vector<fault::CampaignResult>;

/** The user path of the `ulfault` invocations: campaign, serialize. */
CampaignRun
runCampaigns(const std::vector<FaultJob> &jobs, Tracer &t,
             const std::string &tag)
{
    CampaignRun r;
    for (const FaultJob &j : jobs) {
        {
            ScopedSpan sp(t, tag + ".campaign");
            r.push_back(fault::runCampaign(lib(), j.image, j.copts));
        }
        ScopedSpan sp(t, tag + ".to_fault_json");
        cli::toFaultJson(r.back(), j.copts, j.program, true);
    }
    return r;
}

std::string
faultOutput(const std::vector<FaultJob> &jobs, const CampaignRun &r)
{
    std::string out;
    for (size_t i = 0; i < jobs.size(); ++i)
        out += cli::toFaultJson(r[i], jobs[i].copts,
                                jobs[i].program, false);
    return out;
}

std::string
campaignFailure(const std::vector<FaultJob> &jobs, const CampaignRun &r)
{
    for (size_t i = 0; i < jobs.size(); ++i)
        if (!r[i].ok)
            return "campaign " + jobs[i].program + " failed: " + r[i].error;
    return "";
}

PassOutcome
faultPass(const std::vector<FaultJob> &jobs, const std::string &reference,
          Tracer &t)
{
    PassOutcome o;
    CampaignRun r;
    double c0 = cpuSeconds();
    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan sp(t, "workload.pass");
        r = runCampaigns(jobs, t, "workload");
    }
    o.wallS = secondsSince(t0);
    o.cpuS = cpuSeconds() - c0;
    o.digest = digestHex(faultOutput(jobs, r));
    o.failure = campaignFailure(jobs, r);
    if (o.failure.empty() && o.digest != reference)
        o.failure = "campaign output digest differs from the reference";
    return o;
}

// ---------------------------------------------------------------------
// Layer probes (traced run only). Every time they report is the total
// of the spans of one name, so the metrics and the trace file agree.

sym::SymbolicConfig
symConfig(const peak::Options &o)
{
    // The mapping peak::analyze applies (peak/peak_power.cc).
    sym::SymbolicConfig cfg;
    cfg.freqHz = o.freqHz;
    cfg.inputDependentLoopBound = o.inputDependentLoopBound;
    cfg.maxTotalCycles = o.maxTotalCycles;
    cfg.evalMode = o.evalMode;
    cfg.numThreads = o.numThreads;
    cfg.scenario = o.scenario;
    cfg.snapshotMode = o.snapshotMode;
    cfg.staticPrune = o.staticPrune;
    cfg.packedExplore = o.packedExplore;
    return cfg;
}

double
perSecond(uint64_t count, double seconds)
{
    return seconds > 0 ? double(count) / seconds : 0.0;
}

baseline::InputSet
seededInputs(const std::string &program, uint64_t seed)
{
    for (const bench430::Benchmark &b : bench430::allBenchmarks())
        if (b.name == program)
            return b.makeInputs(1, uint32_t(seed)).front();
    return {};
}

struct Probe {
    Tracer &t;
    msp::System &sys;
    uint64_t seed;
    Metrics &m;
    std::vector<std::string> &failures;

    void fail(const std::string &why) { failures.push_back(why); }
};

/** sim layer: concrete event-kernel runs, fork-state operations and
 *  64-lane packed runs over the workload's programs. */
void
probeSim(Probe &p, const AnalysisSetup &a, double &cycles_per_s)
{
    power::PowerContext ctx(p.sys.netlist(), a.opts.analysis.freqHz);
    uint64_t cycles = 0, laneCycles = 0;
    uint64_t midCycle = 0;
    for (const peak::BatchProgram &prog : a.suite) {
        baseline::InputSet in = seededInputs(prog.name, p.seed);
        power::ConcreteRunOptions ro;
        ro.recordTrace = false;
        ro.portIn = in.portIn;
        power::ConcreteRunResult r;
        {
            ScopedSpan sp(p.t, "sim.run_concrete");
            r = power::runConcrete(p.sys, prog.image, ctx, ro, in.ram);
        }
        cycles += r.stats.cycles;
        if (&prog == &a.suite.front())
            midCycle = r.stats.cycles / 2;

        power::PackedRunOptions po;
        po.recordTrace = false;
        po.portIn = in.portIn;
        power::PackedRunResult pr;
        {
            ScopedSpan sp(p.t, "sim.run_packed");
            pr = power::runConcretePacked(p.sys, prog.image, ctx, po,
                                          in.ram);
        }
        for (const power::PackedLaneResult &l : pr.lanes)
            laneCycles += l.stats.cycles;
    }
    cycles_per_s = perSecond(cycles, p.t.total("sim.run_concrete"));
    p.m["sim.cycles_per_s"] = {cycles_per_s, "1/s"};
    p.m["sim.packed_lane_cycles_per_s"] = {
        perSecond(laneCycles, p.t.total("sim.run_packed")), "1/s"};

    // Fork-state operations on the core in the middle of the first
    // program: the per-call cost the exploration pays at every fork.
    const peak::BatchProgram &prog = a.suite.front();
    baseline::InputSet in = seededInputs(prog.name, p.seed);
    p.sys.memory().reset();
    p.sys.loadImage(prog.image);
    for (auto &[addr, words] : in.ram)
        p.sys.memory().loadRam(addr, words);
    p.sys.clearHalted();
    Simulator sim(p.sys.netlist());
    p.sys.attach(sim);
    p.sys.reset(sim);
    auto drive = [&](Simulator &s) {
        p.sys.driveCycle(s, Word16::known(in.portIn));
    };
    for (uint64_t c = 0; c < midCycle / 2 && !p.sys.halted(); ++c)
        sim.step(drive);
    auto base =
        std::make_shared<const Simulator::Snapshot>(sim.snapshot());
    for (uint64_t c = midCycle / 2; c < midCycle && !p.sys.halted(); ++c)
        sim.step(drive);

    constexpr int kCalls = 200;
    auto perCallUs = [&](const char *name, auto &&op) {
        {
            ScopedSpan sp(p.t, name);
            for (int i = 0; i < kCalls; ++i)
                op();
        }
        return Metric{p.t.total(name) * 1e6 / kCalls, "us"};
    };
    p.m["sim.snapshot_us"] =
        perCallUs("sim.snapshot", [&] { sim.snapshot(); });
    p.m["sim.snapshot_delta_us"] =
        perCallUs("sim.snapshot_delta", [&] { sim.snapshotDelta(base); });
    p.m["sim.hash_us"] =
        perCallUs("sim.hash", [&] { sim.hashFullState(); });
    Simulator::DeltaSnapshot delta = sim.snapshotDelta(base);
    p.m["sim.restore_us"] =
        perCallUs("sim.restore", [&] { sim.restore(delta); });
}

/** sym + peak layers, row by row: exploration at 1 and 2 threads,
 *  the full analysis, and the envelope over the explored tree. */
void
probeRows(Probe &p, const AnalysisSetup &a, double sim_cycles_per_s)
{
    uint64_t cycles = 0, paths = 0, merges = 0, nodes = 0, steals = 0;
    uint64_t bytesCopied = 0, bytesFull = 0;
    uint64_t laneCycles = 0, sweeps = 0;
    std::vector<uint64_t> perWorker;

    for (const scenario::Scenario &scen : a.scens) {
        peak::Options o = a.opts.analysis;
        o.scenario = scen;
        for (const peak::BatchProgram &prog : a.suite) {
            sym::SymbolicConfig cfg = symConfig(o);
            cfg.numThreads = 1;
            sym::SymbolicResult r1;
            {
                ScopedSpan sp(p.t, "sym.run");
                r1 = sym::SymbolicEngine(p.sys, cfg).run(prog.image);
            }

            cfg.numThreads = 2;
            sym::SymbolicResult r2;
            {
                ScopedSpan sp(p.t, "sym.run_2t");
                r2 = sym::SymbolicEngine(p.sys, cfg).run(prog.image);
            }

            const std::string row = prog.name + "/" + scen.name;
            if (!r1.ok || !r2.ok) {
                p.fail("exploration of " + row + " failed: " + r1.error +
                       r2.error);
                continue;
            }
            if (r1.peakPowerW != r2.peakPowerW ||
                r1.totalCycles != r2.totalCycles)
                p.fail("1- and 2-thread exploration of " + row +
                       " disagree");

            cycles += r1.totalCycles;
            paths += r1.pathsExplored;
            merges += r1.dedupMerges;
            nodes += r1.tree.numNodes();
            bytesCopied += r1.snapshotBytesCopied;
            bytesFull += r1.snapshotBytesFull;
            steals += r2.steals;
            laneCycles += r1.packedLaneCycles;
            sweeps += r1.packedSweeps;
            if (perWorker.size() < r2.perWorkerCycles.size())
                perWorker.resize(r2.perWorkerCycles.size());
            for (size_t i = 0; i < r2.perWorkerCycles.size(); ++i)
                perWorker[i] += r2.perWorkerCycles[i];

            {
                ScopedSpan sp(p.t, "peak.envelope");
                peak::Envelope env;
                env.present = true;
                env.powerW = r1.tree.envelopePowerW(
                    cfg.inputDependentLoopBound);
                env.windows = o.envelopeWindows;
                if (scen.hasModes())
                    peak::buildWindowCurves(env, scen.phaseTclkS());
                else
                    peak::buildWindowCurves(env, 1.0 / o.freqHz);
            }

            peak::Options o1 = o;
            o1.numThreads = 1;
            peak::Report rep;
            {
                ScopedSpan sp(p.t, "peak.analyze");
                rep = peak::analyze(p.sys, prog.image, o1);
            }
            if (!rep.ok || rep.totalCycles != r1.totalCycles)
                p.fail("analysis of " + row + " disagrees with its "
                       "exploration");
        }
    }
    const double run1 = p.t.total("sym.run");
    const double analyzeS = p.t.total("peak.analyze");
    p.m["sym.run_s"] = {run1, "s"};
    p.m["sym.cycles_per_s"] = {perSecond(cycles, run1), "1/s"};
    p.m["sym.cycles"] = {double(cycles), "count"};
    p.m["sym.paths"] = {double(paths), "count"};
    p.m["sym.dedup_merges"] = {double(merges), "count"};
    p.m["sym.tree_nodes"] = {double(nodes), "count"};
    p.m["sym.self_s"] = {symSelfSeconds(run1, cycles, sim_cycles_per_s),
                         "s"};
    p.m["sym.thread_speedup"] = {
        threadSpeedup(run1, p.t.total("sym.run_2t")), "ratio"};
    p.m["sym.worker_imbalance"] = {workerImbalance(perWorker), "ratio"};
    p.m["sym.steals"] = {double(steals), "count"};
    p.m["sym.snapshot_bytes_copied"] = {double(bytesCopied), "B"};
    p.m["sym.snapshot_traffic_ratio"] = {
        bytesFull ? double(bytesCopied) / double(bytesFull) : 0.0,
        "ratio"};
    p.m["sym.packed_lane_occupancy"] = {
        sweeps ? double(laneCycles) / (64.0 * double(sweeps)) : 0.0,
        "ratio"};
    p.m["peak.analyze_s"] = {analyzeS, "s"};
    p.m["peak.report_s"] = {analyzeS - run1, "s"};
    p.m["peak.envelope_s"] = {p.t.total("peak.envelope"), "s"};
}

/** peak + cli layers at suite level: the batch without a cache, the
 *  modes report and JSON writer on its result, then a cold batch into
 *  a fresh cache directory and a warm batch from it. */
void
probeBatch(Probe &p, const AnalysisSetup &a, ScratchDirs &dirs)
{
    peak::BatchOptions opts = a.opts;
    opts.cacheDir.clear();
    peak::BatchReport rep;
    {
        ScopedSpan sp(p.t, "peak.batch");
        rep = peak::analyzeBatch(lib(), a.suite, opts);
    }
    const double batchS = p.t.total("peak.batch");
    if (!rowFailure(rep).empty())
        p.fail(rowFailure(rep));

    std::vector<double> rowWall;
    for (const peak::ProgramResult &r : rep.programs)
        rowWall.push_back(r.wallSeconds);
    unsigned jobs = std::max(1u, std::min<unsigned>(
                                     opts.jobs, unsigned(rowWall.size())));
    p.m["peak.batch_s"] = {batchS, "s"};
    p.m["peak.pool_efficiency"] = {poolEfficiency(rowWall, jobs, batchS),
                                   "ratio"};

    std::vector<peak::ModeReport> modes;
    {
        ScopedSpan sp(p.t, "peak.modes");
        modes = cli::buildModeReports(rep, a.scens, lib().vdd());
    }
    p.m["peak.modes_s"] = {p.t.total("peak.modes"), "s"};

    {
        ScopedSpan sp(p.t, "cli.to_json");
        cli::toJson(rep, opts, true);
        if (a.cli.modes)
            cli::toModesJson(rep, modes);
    }
    p.m["cli.to_json_s"] = {p.t.total("cli.to_json"), "s"};

    opts.cacheDir = dirs.fresh();
    {
        ScopedSpan sp(p.t, "peak.batch_cache_cold");
        peak::analyzeBatch(lib(), a.suite, opts);
    }
    p.m["peak.cache_write_s"] = {
        p.t.total("peak.batch_cache_cold") - batchS, "s"};
    p.m["peak.cache_bytes"] = {double(dirBytes(opts.cacheDir)), "B"};
    peak::BatchReport warm;
    {
        ScopedSpan sp(p.t, "peak.batch_cache_warm");
        warm = peak::analyzeBatch(lib(), a.suite, opts);
    }
    p.m["peak.cache_read_s"] = {p.t.total("peak.batch_cache_warm"), "s"};
    p.m["peak.cache_hit_ratio"] = {
        warm.programs.empty()
            ? 0.0
            : double(warm.cacheHits) / double(warm.programs.size()),
        "ratio"};
    ScratchDirs::drop(opts.cacheDir);
}

/** cosim + fault layers: the golden lockstep run, the envelope
 *  analysis and the campaign of every fault job. */
void
probeFault(Probe &p, const std::vector<FaultJob> &jobs)
{
    uint64_t inj = 0, masked = 0, sdc = 0, crash = 0, hang = 0, esc = 0;
    for (const FaultJob &j : jobs) {
        cosim::Options g;
        g.maxCycles = j.copts.goldenMaxCycles;
        g.portIn = j.copts.portIn;
        g.evalMode = j.copts.evalMode;
        cosim::Result golden;
        {
            ScopedSpan sp(p.t, "cosim.golden");
            golden = cosim::run(p.sys, j.image, g);
        }
        if (!golden.ok)
            p.fail("golden run of " + j.program + " diverges");

        peak::Options ao = j.copts.analysis;
        ao.freqHz = j.copts.freqHz;
        ao.recordEnvelope = true;
        {
            ScopedSpan sp(p.t, "fault.envelope");
            if (!peak::analyze(p.sys, j.image, ao).ok)
                p.fail("envelope analysis of " + j.program + " failed");
        }

        fault::CampaignResult r;
        {
            ScopedSpan sp(p.t, "fault.campaign");
            r = fault::runCampaign(lib(), j.image, j.copts);
        }
        if (!r.ok)
            p.fail("campaign " + j.program + " failed: " + r.error);
        inj += r.injections.size();
        masked += r.masked;
        sdc += r.sdc;
        crash += r.crash;
        hang += r.hang;
        esc += r.escapes;
    }
    const double campS = p.t.total("fault.campaign");
    p.m["cosim.golden_s"] = {p.t.total("cosim.golden"), "s"};
    p.m["fault.envelope_s"] = {p.t.total("fault.envelope"), "s"};
    p.m["fault.campaign_s"] = {campS, "s"};
    p.m["fault.injections"] = {double(inj), "count"};
    p.m["fault.masked"] = {double(masked), "count"};
    p.m["fault.sdc"] = {double(sdc), "count"};
    p.m["fault.crash"] = {double(crash), "count"};
    p.m["fault.hang"] = {double(hang), "count"};
    p.m["fault.escapes"] = {double(esc), "count"};
    p.m["fault.injections_per_s"] = {perSecond(inj, campS), "1/s"};
}

void
writeTrace(const RunConfig &cfg, const Tracer &t, const Metrics &m)
{
    std::ofstream out(cfg.traceOut);
    if (!out)
        throw std::runtime_error("cannot write " + cfg.traceOut);
    out << "{\n\"workload\": \"" << cfg.workload << "\",\n\"seed\": "
        << cfg.seed << ",\n\"host_cpus\": "
        << std::thread::hardware_concurrency() << ",\n\"compiler\": \""
        << compilerId() << "\",\n\"git_commit\": \"" << cfg.gitCommit
        << "\",\n\"metrics\": " << metricsJson(m)
        << ",\n\"spans\": " << t.toJson() << "\n}\n";
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-cold", "fork-parallel", "scenario-matrix",
        "fault-campaign"};
    return names;
}

std::map<std::string, std::string>
readDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::map<std::string, std::string> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, digest;
        if (ls >> name >> digest)
            out[name] = digest;
    }
    return out;
}

RunResult
runWorkload(const RunConfig &cfg)
{
    const WorkloadSpec w = workloadSpec(cfg.workload, cfg.seed);
    Tracer tracer(cfg.trace);
    Tracer off(false);
    ScratchDirs dirs(cfg.scratchDir);
    RunResult res;

    // Set-up, a few times before every untraced pass, so its samples
    // span the run like the passes do; each pass uses the latest copy.
    constexpr int kSetupsPerRound = 5;
    std::vector<double> setupS;
    AnalysisSetup a;
    std::vector<FaultJob> jobs;
    std::unique_ptr<msp::System> sys;
    auto setUp = [&] {
        for (int i = 0; i < kSetupsPerRound; ++i) {
            Clock::time_point t0 = Clock::now();
            ScopedSpan sp(tracer, "setup");
            if (w.fault)
                jobs = setUpFault(w.commands, tracer);
            else
                a = setUpAnalysis(w.commands.front(), tracer);
            sys = elaborate(tracer);
            setupS.push_back(secondsSince(t0));
        }
    };
    setUp();

    // The reference output: the pinned digest, or -- for a campaign
    // at a non-default seed, where no digest is pinned -- the output
    // of a traced pass, which every timed pass must reproduce.
    std::string reference;
    if (w.fault && cfg.seed != kDefaultSeed) {
        Tracer refTrace(true);
        CampaignRun r = runCampaigns(jobs, refTrace, "reference");
        reference = digestHex(faultOutput(jobs, r));
    } else {
        auto it = cfg.pinned.find(cfg.workload);
        if (it != cfg.pinned.end())
            reference = it->second;
    }

    auto pass = [&](Tracer &t) {
        PassOutcome o = w.fault ? faultPass(jobs, reference, t)
                                : analysisPass(a, w, dirs, reference, t);
        ++res.attempted;
        res.digest = o.digest;
        if (!o.failure.empty()) {
            ++res.failed;
            res.failures.push_back(o.failure);
        }
        return o;
    };

    // Timed passes: untraced ones for the end-to-end metrics; in a
    // traced run they alternate with traced ones over half the time,
    // and the difference of the two medians is the tracing overhead.
    std::vector<double> wall, cpu, tracedWall;
    const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    const size_t minPasses = cfg.trace ? 1 : 3;
    Clock::time_point start = Clock::now();
    while (wall.size() < minPasses || secondsSince(start) < budget) {
        if (!wall.empty())
            setUp();
        PassOutcome o = pass(off);
        wall.push_back(o.wallS);
        cpu.push_back(o.cpuS);
        if (cfg.trace)
            tracedWall.push_back(pass(tracer).wallS);
    }

    if (!cfg.trace) {
        res.metrics["wall_s"] = {lowerQuartile(wall), "s"};
        res.metrics["cpu_s"] = {lowerQuartile(cpu), "s"};
        res.metrics["setup_s"] = {lowerQuartile(setupS), "s"};
        res.metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        return res;
    }

    // Layer probes. A fault workload's analysis layers are probed on
    // the envelope analysis its campaigns run; an analysis workload's
    // cosim/fault layers on one reference campaign.
    Metrics &m = res.metrics;
    std::vector<std::string> probeFailures;
    Probe p{tracer, *sys, cfg.seed, m, probeFailures};
    const AnalysisSetup probeA =
        w.fault ? setUpAnalysis(kFaultAnalysisProbe, off) : a;
    const std::vector<FaultJob> probeJobs =
        w.fault ? jobs : setUpFault(faultReferenceProbe(cfg.seed), off);
    double simCyclesPerS = 0.0;
    {
        ScopedSpan sp(tracer, "probe");
        probeSim(p, probeA, simCyclesPerS);
        probeRows(p, probeA, simCyclesPerS);
        probeBatch(p, probeA, dirs);
        probeFault(p, probeJobs);
    }
    ++res.attempted;
    if (!probeFailures.empty()) {
        ++res.failed;
        res.failures.insert(res.failures.end(), probeFailures.begin(),
                            probeFailures.end());
    }

    m["netlist.elaborate_s"] = {tracer.median("netlist.elaborate"), "s"};
    m["isa.assemble_s"] = {
        tracer.total("isa.assemble") / double(setupS.size()), "s"};
    m["trace.overhead_s"] = {median(tracedWall) - median(wall), "s"};
    m["fail_ratio"] = {double(res.failed) / double(res.attempted),
                       "ratio"};
    if (!cfg.traceOut.empty())
        writeTrace(cfg, tracer, m);
    return res;
}

} // namespace ulbench

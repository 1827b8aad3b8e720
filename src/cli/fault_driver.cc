#include "cli/fault_driver.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "bench430/benchmarks.hh"
#include "cli/driver.hh"
#include "cli/json_util.hh"
#include "util/disk_cache.hh"

namespace ulpeak {
namespace cli {

void
foldBenchmarkInputs(const std::string &name, uint64_t seed,
                    isa::Image &image, uint16_t &port, bool port_set)
{
    for (const bench430::Benchmark &b : bench430::allBenchmarks()) {
        if (b.name != name)
            continue;
        fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 3ull << 40));
        baseline::InputSet in = b.makeInput(rng);
        for (auto &[addr, words] : in.ram)
            image.segments.push_back({addr, words});
        if (b.usesPort && !port_set)
            port = in.portIn;
        return;
    }
}

namespace {

const char *
siteKindName(fault::SiteKind k)
{
    return k == fault::SiteKind::Flop ? "flop" : "ram";
}

/** Vulnerability rank of a site: everything that is not masked. */
uint64_t
badness(const fault::SiteSummary &s)
{
    return s.sdc + s.crash + s.hang + s.escapes;
}

int
runReplay(const FaultCliOptions &cli, const isa::Image &image,
          const fault::CampaignOptions &copts)
{
    msp::System sys(CellLibrary::tsmc65Like());
    std::vector<fault::Site> sites =
        fault::campaignSites(sys.netlist(), sys, copts);
    if (cli.replaySite >= sites.size()) {
        std::fprintf(stderr,
                     "ulfault: --replay site %u out of range "
                     "(%zu sites)\n",
                     cli.replaySite, sites.size());
        return 1;
    }
    const fault::Site &site = sites[cli.replaySite];

    fault::CampaignSetup setup(sys, image, copts);
    if (!setup.golden.ok) {
        std::fprintf(stderr, "ulfault: golden run diverges:\n%s",
                     setup.golden.report().c_str());
        return 1;
    }
    setup.analyzeEnvelope();
    if (!setup.envelopeError.empty())
        std::fprintf(stderr,
                     "ulfault: envelope analysis failed (%s); "
                     "replaying without escape check\n",
                     setup.envelopeError.c_str());
    fault::FaultResult r = setup.runRow(site, cli.replayCycle);

    std::printf("replay: site %u (%s, %s) flipped at cycle %" PRIu64
                "\n",
                cli.replaySite,
                fault::siteName(sys.netlist(), site).c_str(),
                siteKindName(site.kind), cli.replayCycle);
    std::printf("outcome: %s%s\n", fault::outcomeName(r.outcome),
                r.applied ? "" : " (flip hit X state; not applied)");
    std::printf("gate cycles %" PRIu64 ", retired %" PRIu64
                ", peak %s W at cycle %" PRIu64 "\n",
                r.gateCycles, r.instructionsRetired,
                fmtDouble(r.peakPowerW).c_str(), r.peakCycle);
    if (r.envelopeEscape)
        std::printf("ENVELOPE ESCAPE at cycle %" PRIu64 "\n",
                    r.escapeCycle);
    if (!r.report.empty())
        std::printf("%s", r.report.c_str());
    return 0;
}

} // namespace

std::vector<Option>
faultOptions(FaultCliOptions &o)
{
    return {
        intOpt("--seed", "N", "campaign seed (default 1)", o.seed),
        intOpt("--jobs", "N", "worker threads (default: all CPUs; a cap)",
               o.jobs, 1),
        intOpt("--cycles-per-site", "N", "injections per site (default 1)",
               o.cyclesPerSite, 1),
        intOpt("--max-sites", "N", "cap flop sites, 0 = all (default)",
               o.maxSites),
        intOpt("--ram-sites", "N", "extra random RAM-bit sites",
               o.ramSites),
        intOpt("--hang-cycles", "N", "hang budget, 0 = 4*golden+64",
               o.hangCycles),
        customOpt("--port", "VALUE", "input port word (default 0)",
                  [&o](const std::string &v, std::string &why) {
                      o.portSet = true;
                      return parseInteger(v, o.port, 0, why);
                  }),
        positiveOpt("--freq", "HZ", "clock frequency (default 100e6)",
                    o.freqHz),
        switchOpt("--envelope",
                  "analyze the X-based envelope, report escapes",
                  o.envelope),
        intOpt("--top", "N", "vulnerability table rows (default 20)",
               o.top),
        stringOpt("--json", "FILE", "write the JSON report", o.jsonPath),
        stringOpt("--csv", "FILE", "write per-injection CSV rows",
                  o.csvPath),
        stringOpt("--cache-dir", "DIR",
                  "campaign cache (default .ulpeak-cache)", o.cacheDir),
        switchOpt("--no-cache", "disable the disk cache", o.noCache),
        switchOpt("--no-timings",
                  "omit wall-time/cache fields from --json\n"
                  "(byte-identical across --jobs/cache)",
                  o.noTimings),
        customOpt("--replay", "S@C",
                  "re-run site S's flip at cycle C on the scalar\n"
                  "runner and print the full divergence report",
                  [&o](const std::string &v, std::string &why) {
                      size_t at = v.find('@');
                      if (at == std::string::npos) {
                          why = "expected SITE@CYCLE, got \"" + v + "\"";
                          return false;
                      }
                      o.replay = true;
                      return parseInteger(v.substr(0, at), o.replaySite, 0,
                                          why) &&
                             parseInteger(v.substr(at + 1), o.replayCycle,
                                          0, why);
                  }),
        switchOpt("--quiet", "suppress the stdout table", o.quiet),
    };
}

std::string
faultUsage()
{
    FaultCliOptions o;
    return "usage: ulfault [options] PROGRAM\n"
           "\n"
           "SEU fault-injection campaign on one program (a bench430\n"
           "name or an MSP430 assembly file). Flips flop / RAM bits\n"
           "at random cycles of the golden execution and classifies\n"
           "each faulted run against the golden ISS.\n"
           "\n"
           "options:\n" +
           usageText(faultOptions(o), 22) +
           "\n"
           "exit status: 0 = campaign ran (escapes are findings),\n"
           "1 = campaign error, 2 = usage error (including an\n"
           "unusable --cache-dir).\n";
}

bool
parseFaultArgs(int argc, const char *const *argv, FaultCliOptions &out,
               std::string &err)
{
    ApplyFn program = [&out](const std::string &a, std::string &why) {
        if (!out.programSpec.empty()) {
            why = "exactly one PROGRAM expected, got another: " + a;
            return false;
        }
        out.programSpec = a;
        return true;
    };
    if (!parseOptions(argc, argv, faultOptions(out), program, out.help,
                      err))
        return false;
    if (!out.help && out.programSpec.empty()) {
        err = "PROGRAM argument required";
        return false;
    }
    return true;
}

fault::CampaignOptions
toCampaignOptions(const FaultCliOptions &cli)
{
    fault::CampaignOptions o;
    o.seed = cli.seed;
    o.jobs = cli.jobs;
    o.cyclesPerSite = cli.cyclesPerSite;
    o.maxFlopSites = cli.maxSites;
    o.ramSites = cli.ramSites;
    o.portIn = cli.port;
    o.hangCycles = cli.hangCycles;
    o.freqHz = cli.freqHz;
    o.withEnvelope = cli.envelope;
    o.cacheDir = cli.noCache ? "" : cli.cacheDir;
    return o;
}

std::string
toFaultJson(const fault::CampaignResult &res,
            const fault::CampaignOptions &opts,
            const std::string &program, bool include_timings)
{
    JsonWriter w;
    w.beginObject().field("program", program).field("ok", res.ok);
    if (!res.error.empty())
        w.field("error", res.error);
    w.field("seed", opts.seed).field("cycles_per_site", opts.cyclesPerSite)
        .field("golden_cycles", res.goldenCycles)
        .field("golden_instructions", res.goldenInstructions)
        .field("hang_cycles", res.hangCycles);
    w.key("envelope").beginObject().field("present", res.envelopePresent);
    if (!res.envelopeError.empty())
        w.field("error", res.envelopeError);
    w.field("cycles", res.envelopeCycles)
        .field("peak_w", res.envelopePeakW).end();
    w.key("totals").beginObject()
        .field("injections", res.injections.size())
        .field("masked", res.masked).field("sdc", res.sdc)
        .field("crash", res.crash).field("hang", res.hang)
        .field("not_applied", res.notApplied)
        .field("escapes", res.escapes).end();
    w.key("sites").beginArray();
    for (size_t s = 0; s < res.sites.size(); ++s) {
        const fault::SiteSummary &sum = res.summaries[s];
        w.beginObject(Layout::Inline).field("index", s)
            .field("name", res.siteNames[s])
            .field("kind", siteKindName(res.sites[s].kind))
            .field("masked", sum.masked).field("sdc", sum.sdc)
            .field("crash", sum.crash).field("hang", sum.hang)
            .field("escapes", sum.escapes)
            .field("max_peak_w", sum.maxPeakPowerW).end();
    }
    w.end().key("injections").beginArray();
    for (const fault::InjectionResult &ir : res.injections) {
        const fault::FaultResult &r = ir.r;
        w.beginObject(Layout::Inline).field("site", ir.siteIndex)
            .field("cycle", ir.cycle)
            .field("outcome", fault::outcomeName(r.outcome))
            .field("applied", r.applied)
            .field("kind", cosim::divergenceKindName(r.kind))
            .field("div_cycle", r.divergenceCycle)
            .field("instr_index", r.instrIndex).field("pc", r.pc)
            .field("gate_cycles", r.gateCycles)
            .field("retired", r.instructionsRetired)
            .field("peak_w", r.peakPowerW).field("peak_cycle", r.peakCycle)
            .field("trace_cycles", r.traceCycles)
            .field("escape", r.envelopeEscape)
            .field("escape_cycle", r.escapeCycle).end();
    }
    w.end();
    if (include_timings)
        w.key("run").beginObject().field("cache_hit", res.cacheHit)
            .field("wall_seconds", res.wallSeconds)
            .field("packed_sweeps", res.packedSweeps)
            .field("lane_cycles", res.laneCycles).end();
    return w.end().take();
}

std::string
toFaultCsv(const fault::CampaignResult &res)
{
    std::ostringstream os;
    os << "site,site_name,kind,cycle,outcome,applied,divergence,"
          "div_cycle,instr_index,pc,gate_cycles,retired,peak_w,"
          "peak_cycle,escape,escape_cycle\n";
    for (const fault::InjectionResult &ir : res.injections) {
        const fault::FaultResult &r = ir.r;
        os << ir.siteIndex << "," << res.siteNames[ir.siteIndex] << ","
           << siteKindName(res.sites[ir.siteIndex].kind) << ","
           << ir.cycle << "," << fault::outcomeName(r.outcome) << ","
           << (r.applied ? 1 : 0) << ","
           << cosim::divergenceKindName(r.kind) << ","
           << r.divergenceCycle << "," << r.instrIndex << "," << r.pc
           << "," << r.gateCycles << "," << r.instructionsRetired
           << "," << fmtDouble(r.peakPowerW) << "," << r.peakCycle
           << "," << (r.envelopeEscape ? 1 : 0) << ","
           << r.escapeCycle << "\n";
    }
    return os.str();
}

int
runFaultCli(int argc, const char *const *argv)
{
    FaultCliOptions cli;
    std::string err;
    if (!parseFaultArgs(argc, argv, cli, err))
        return usageError("ulfault", err, faultUsage());
    if (cli.help) {
        std::printf("%s", faultUsage().c_str());
        return 0;
    }

    try {
        std::vector<peak::BatchProgram> progs =
            resolvePrograms({cli.programSpec});
        const peak::BatchProgram &prog = progs.front();
        fault::CampaignOptions copts = toCampaignOptions(cli);
        isa::Image image = prog.image;
        foldBenchmarkInputs(prog.name, cli.seed, image, copts.portIn,
                            cli.portSet);
        if (cli.replay)
            return runReplay(cli, image, copts);
        fault::CampaignResult res = fault::runCampaign(
            CellLibrary::tsmc65Like(), image, copts);

        if (!res.ok) {
            std::fprintf(stderr, "ulfault: %s\n", res.error.c_str());
            return 1;
        }

        if (!cli.quiet) {
            std::printf("campaign: %s, %zu sites x %u cycles = %zu "
                        "injections%s\n",
                        prog.name.c_str(), res.sites.size(),
                        copts.cyclesPerSite, res.injections.size(),
                        res.cacheHit ? " (cached)" : "");
            std::printf("golden: %" PRIu64 " cycles, %" PRIu64
                        " instructions; hang budget %" PRIu64 "\n",
                        res.goldenCycles, res.goldenInstructions,
                        res.hangCycles);
            if (res.envelopePresent)
                std::printf("envelope: %" PRIu64
                            " cycles, peak %s W\n",
                            res.envelopeCycles,
                            fmtDouble(res.envelopePeakW).c_str());
            else if (!res.envelopeError.empty())
                std::printf("envelope: unavailable (%s)\n",
                            res.envelopeError.c_str());
            std::printf("totals: %" PRIu64 " masked, %" PRIu64
                        " sdc, %" PRIu64 " crash, %" PRIu64
                        " hang (%" PRIu64 " not applied, %" PRIu64
                        " escapes)\n",
                        res.masked, res.sdc, res.crash, res.hang,
                        res.notApplied, res.escapes);

            // Vulnerability table: most-unmasked sites first.
            std::vector<size_t> order(res.summaries.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](size_t a, size_t b) {
                          uint64_t ba = badness(res.summaries[a]);
                          uint64_t bb = badness(res.summaries[b]);
                          if (ba != bb)
                              return ba > bb;
                          return a < b;
                      });
            size_t rows = std::min<size_t>(cli.top, order.size());
            if (rows) {
                std::printf("%-28s %6s %6s %6s %6s %7s %12s\n",
                            "site", "masked", "sdc", "crash", "hang",
                            "escapes", "max peak W");
                for (size_t i = 0; i < rows; ++i) {
                    const fault::SiteSummary &s =
                        res.summaries[order[i]];
                    std::printf(
                        "%-28s %6" PRIu64 " %6" PRIu64 " %6" PRIu64
                        " %6" PRIu64 " %7" PRIu64 " %12g\n",
                        res.siteNames[order[i]].c_str(), s.masked,
                        s.sdc, s.crash, s.hang, s.escapes,
                        double(s.maxPeakPowerW));
                }
            }
        }

        bool written =
            (cli.jsonPath.empty() ||
             writeReport("ulfault", cli.jsonPath,
                         toFaultJson(res, copts, prog.name,
                                     !cli.noTimings))) &&
            (cli.csvPath.empty() ||
             writeReport("ulfault", cli.csvPath, toFaultCsv(res)));
        return written ? 0 : 1;
    } catch (const util::DiskCacheError &e) {
        std::fprintf(stderr, "ulfault: --cache-dir %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulfault: %s\n", e.what());
        return 1;
    }
}

} // namespace cli
} // namespace ulpeak

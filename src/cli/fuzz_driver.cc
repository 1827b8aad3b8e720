#include "cli/fuzz_driver.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cosim/cosim.hh"
#include "fuzz/program_gen.hh"
#include "fuzz/properties.hh"
#include "fuzz/rng.hh"
#include "peak/batch.hh"
#include "util/worker_pool.hh"

namespace ulpeak {
namespace cli {

namespace {

using NetlistCheck = fuzz::PropertyResult (*)(
    uint64_t seed, const fuzz::NetlistGenOptions &gen, unsigned cycles);
using ProgramCheck = fuzz::PropertyResult (*)(msp::System &sys,
                                              const isa::Image &image,
                                              fuzz::Rng &rng,
                                              unsigned threads);

/** The program shape of a work list's items. */
enum class Shape : uint8_t {
    Full,  ///< generateProgram with --instr body items
    Short, ///< --instr / 2 + 1 body items: symbolic exploration forks
           ///< at every X-dependent branch, so analyzed programs stay
           ///< short
    Forking, ///< Short, opened by generateForkingProgram's port-fed
             ///< branches: every item forks
};

/**
 * One work list of a mode: its netlist items (a derived seed each) or
 * its program items (a random program each, checked with the rest of
 * the item's PRNG stream). Lists of one mode share its stream and one
 * index space, netlist items first.
 */
struct WorkList {
    const char *mode;      ///< --mode name
    const char *flag;      ///< count flag
    unsigned defaultCount; ///< items when the flag is absent
    uint64_t stream;       ///< the mode's PRNG stream namespace; disjoint
                           ///< per mode, so adding items to one mode
                           ///< never reshuffles another's inputs
    NetlistCheck netlist;  ///< set for netlist items
    ProgramCheck program;  ///< set for program items
    Shape shape;           ///< program shape of program items
    unsigned runs;         ///< analyses or simulations one check makes
                           ///< of its program or netlist (cost weight)
    const char *failure;   ///< failure label
    const char *help;      ///< usage text of the count flag
};

fuzz::PropertyResult
cosimCheck(msp::System &sys, const isa::Image &image, fuzz::Rng &rng,
           unsigned)
{
    cosim::Options opts;
    opts.portIn = rng.word();
    cosim::Result r = cosim::run(sys, image, opts);
    return {r.ok, r.ok ? std::string() : r.report()};
}

/** cosim's count flag, which doubles as the bare program-item count of
 *  a single-mode run. */
constexpr const char kProgramsFlag[] = "--programs";

const WorkList kWorkLists[] = {
    {"cosim", kProgramsFlag, 50, 0, nullptr, cosimCheck, Shape::Full, 1,
     "DIVERGED", "cosim programs"},
    {"kernel", "--netlists", 50, 1ull << 32,
     fuzz::kernelEquivalenceCheck, nullptr, Shape::Full, 3, "MISMATCH",
     "kernel-equivalence netlists"},
    {"invariance", "--invariance-programs", 16, 2ull << 32, nullptr,
     fuzz::configInvarianceCheck, Shape::Forking, 2, "INVARIANCE VIOLATION",
     "config-invariance programs"},
    {"envelope", "--env-programs", 8, 3ull << 32, nullptr,
     [](msp::System &sys, const isa::Image &image, fuzz::Rng &rng,
        unsigned) { return fuzz::envelopeBoundCheck(sys, image, rng); },
     Shape::Short, 2, "UNBOUNDED", "envelope-bound programs"},
    {"scenario", "--scn-programs", 8, 4ull << 32, nullptr,
     [](msp::System &sys, const isa::Image &image, fuzz::Rng &rng,
        unsigned) {
         return fuzz::scenarioDominanceCheck(sys, image, rng);
     },
     Shape::Short, 2, "DOMINANCE VIOLATION", "scenario-dominance programs"},
    {"packed", "--packed-netlists", 6, 5ull << 32,
     fuzz::packedKernelEquivalenceCheck, nullptr, Shape::Full, 2,
     "LANE MISMATCH", "packed lane-identity netlists"},
    {"packed", "--packed-programs", 4, 5ull << 32, nullptr,
     [](msp::System &sys, const isa::Image &image, fuzz::Rng &rng,
        unsigned) {
         return fuzz::packedEnvelopeBatchCheck(sys, image, rng);
     },
     Shape::Short, 2, "BATCH MISMATCH", "packed envelope-batch programs"},
    {"fault", "--fault-netlists", 4, 6ull << 32,
     fuzz::faultedPackedEquivalenceCheck, nullptr, Shape::Full, 2,
     "FAULTED LANE MISMATCH", "faulted lane-identity netlists"},
    {"fault", "--fault-programs", 3, 6ull << 32, nullptr,
     [](msp::System &, const isa::Image &image, fuzz::Rng &rng,
        unsigned threads) {
         return fuzz::faultCampaignDeterminismCheck(image, rng.next(),
                                                    threads);
     },
     // Two campaigns and the scalar reference, 146 rows each.
     Shape::Full, 438, "CAMPAIGN NONDETERMINISM",
     "fault-campaign determinism programs"},
    {"dvfs", "--dvfs-programs", 8, 7ull << 32, nullptr,
     [](msp::System &sys, const isa::Image &image, fuzz::Rng &rng,
        unsigned) { return fuzz::modeDominanceCheck(sys, image, rng); },
     Shape::Short, 2, "MODE DOMINANCE VIOLATION",
     "operating-mode dominance programs"},
    {"lint", "--lint-programs", 6, 8ull << 32, nullptr,
     [](msp::System &sys, const isa::Image &image, fuzz::Rng &rng,
        unsigned) { return fuzz::staticPruneCheck(sys, image, rng); },
     Shape::Short, 2, "PRUNE UNSOUNDNESS", "static-prune soundness programs"},
};

/** The mode names in table order, each once. */
std::vector<std::string>
modeNames()
{
    std::vector<std::string> names;
    for (const WorkList &w : kWorkLists)
        if (names.empty() || names.back() != w.mode)
            names.push_back(w.mode);
    return names;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::vector<Option>
fuzzOptions(FuzzCliOptions &o)
{
    std::vector<Option> table{
        intOpt("--seed", "N", "master seed (default 1)", o.seed)};
    for (const WorkList &w : kWorkLists)
        table.push_back(intOpt(
            w.flag, "N",
            std::string(w.help) + " (default " +
                std::to_string(w.defaultCount) + ")" +
                (std::string(w.flag) == kProgramsFlag
                     ? "\n(in a single-mode run a bare\n"
                       "--programs N sets that mode's\n"
                       "program-item count)"
                     : ""),
            o.counts[w.flag]));
    std::vector<std::string> modes = modeNames();
    std::string modeHelp = "all (default) or one of";
    for (size_t m = 0; m < modes.size(); ++m)
        modeHelp += (m % 5 ? "|" : "\n  ") + modes[m];
    modes.insert(modes.begin(), "all");
    table.push_back(intOpt("--instr", "N",
                           "body items per program (default 24)",
                           o.instructions));
    table.push_back(intOpt("--threads", "K",
                           "the K of threads{1, K}, and a cap\n"
                           "on the items run at once (default 4)",
                           o.threads, 2));
    table.push_back(intOpt("--kernel-cycles", "N",
                           "cycles per netlist run (default 64)",
                           o.kernelCycles));
    table.push_back(choiceOpt("--mode", "M", modeHelp, modes,
                              [&o](const std::string &v) { o.mode = v; }));
    table.push_back(intOpt("--only", "I",
                           "run only item index I of the\n"
                           "selected mode (replay a failure)",
                           o.only));
    table.push_back(switchOpt("--dump-programs",
                              "print every generated program",
                              o.dumpPrograms));
    table.push_back(switchOpt("--quiet", "only the final summary",
                              o.quiet));
    return table;
}

std::string
fuzzUsage()
{
    FuzzCliOptions o;
    return "usage: ulfuzz [options]\n"
           "\n"
           "Differential fuzzing of the ulpeak stack: nine properties\n"
           "(docs/testing.md), each over seeded random programs and/or\n"
           "netlists.\n"
           "\n"
           "options:\n" +
           usageText(fuzzOptions(o), 27) +
           "\n"
           "Reproducing a failure: every report names the mode, item\n"
           "index and seed; rerun with the same --seed plus\n"
           "--mode M --only I (see docs/testing.md).\n";
}

bool
parseFuzzArgs(int argc, const char *const *argv, FuzzCliOptions &out,
              std::string &err)
{
    for (const WorkList &w : kWorkLists)
        out.counts[w.flag] = w.defaultCount;
    if (!parseOptions(argc, argv, fuzzOptions(out), nullptr, out.help, err))
        return false;
    // The command line parsed and no ulfuzz option takes a free-form
    // value, so a "--programs" token is the flag itself.
    if (out.mode != "all" &&
        std::find(argv + 1, argv + argc, std::string(kProgramsFlag)) !=
            argv + argc) {
        const WorkList *list = nullptr;
        for (const WorkList &w : kWorkLists)
            if (w.mode == out.mode && w.program)
                list = &w;
        if (!list) {
            err = std::string(kProgramsFlag) + ": --mode " + out.mode +
                  " has no program items";
            return false;
        }
        out.counts[list->flag] = out.counts[kProgramsFlag];
    }
    return true;
}

namespace {

/** One item of a run: item @p index of list @p w. A program item's
 *  program is drawn before the run, so its cost is estimated from
 *  it. */
struct Item {
    const WorkList *w = nullptr;
    unsigned index = 0;
    uint64_t seed = 0;  ///< the item's stream
    fuzz::Rng rng{0};   ///< a program item's stream, past its program
    std::string source; ///< a program item's program
    isa::Image image;   ///< ... assembled
    std::string error;  ///< why drawing the program threw
    uint64_t cost = 0;  ///< the check's runs times one run's cycles
    bool ok = true;
    bool done = false;
    std::string out; ///< what the item prints, in item order
};

/** Draw @p item's program and estimate its cost: its check's runs
 *  times the cycles of one, its netlist's or its program's estimate
 *  (peak::estimateCost). */
void
prepareItem(const FuzzCliOptions &cli, Item &item)
{
    const WorkList &w = *item.w;
    item.seed = fuzz::Rng::deriveStream(cli.seed, w.stream + item.index);
    if (w.netlist) {
        item.cost = uint64_t(w.runs) * cli.kernelCycles;
        return;
    }
    item.rng = fuzz::Rng(item.seed);
    try {
        fuzz::ProgramGenOptions gen;
        gen.instructions = w.shape == Shape::Full
                               ? cli.instructions
                               : cli.instructions / 2 + 1;
        item.source =
            w.shape == Shape::Forking
                ? fuzz::generateForkingProgram(item.rng, gen).source
                : fuzz::generateProgram(item.rng, gen).source;
        item.image = isa::assemble(item.source);
        item.cost = uint64_t(w.runs) *
                    peak::estimateCost(item.image, scenario::Scenario());
    } catch (const std::exception &e) {
        item.error = e.what();
    }
}

/** Run @p item with @p sys; appends what it prints to @p out and
 *  returns false on a failure. */
bool
runItem(const FuzzCliOptions &cli, msp::System &sys, Item &item,
        std::string &out)
{
    const WorkList &w = *item.w;
    fuzz::PropertyResult r;
    if (cli.dumpPrograms && !item.source.empty())
        out += std::string("--- ") + w.mode + " item " +
               std::to_string(item.index) + " ---\n" + item.source + "\n";
    try {
        if (!item.error.empty())
            r = {false, "exception: " + item.error + "\n"};
        else if (w.netlist)
            r = w.netlist(item.seed, fuzz::NetlistGenOptions(),
                          cli.kernelCycles);
        else
            r = w.program(sys, item.image, item.rng, cli.threads);
    } catch (const std::exception &e) {
        r = {false, std::string("exception: ") + e.what() + "\n"};
    }
    if (r.ok)
        return true;
    out += std::string(w.mode) + " item " + std::to_string(item.index) +
           " (seed " + std::to_string(cli.seed) + ") " + w.failure +
           ":\n" + r.detail;
    if (!item.source.empty())
        out += "program:\n" + item.source + "\n";
    return false;
}

} // namespace

int
runFuzzCli(int argc, const char *const *argv)
{
    FuzzCliOptions cli;
    std::string err;
    if (!parseFuzzArgs(argc, argv, cli, err))
        return usageError("ulfuzz", err, fuzzUsage());
    if (cli.help) {
        std::fputs(fuzzUsage().c_str(), stdout);
        return 0;
    }

    auto t0 = std::chrono::steady_clock::now();

    // The run's items in table order: each mode's netlist items, then
    // its program items.
    std::vector<Item> items;
    for (const WorkList &w : kWorkLists) {
        if (cli.mode != "all" && cli.mode != w.mode)
            continue;
        unsigned first = 0;
        for (const WorkList *p = kWorkLists; p != &w; ++p)
            if (std::strcmp(p->mode, w.mode) == 0)
                first += cli.counts[p->flag];
        for (unsigned i = first; i < first + cli.counts[w.flag]; ++i)
            if (cli.only < 0 || unsigned(cli.only) == i) {
                items.emplace_back();
                items.back().w = &w;
                items.back().index = i;
            }
    }

    // Items run on the CPU budget, at most --threads at once, each
    // worker on a System of its own (they share one netlist), claimed
    // costliest first (util::claimOrder): the fault campaigns outweigh
    // every other item, and claimed last they would end the sweep on a
    // tail. Every item's output waits for its predecessors', so stdout
    // is the serial run's whatever the scheduling.
    const unsigned jobs =
        util::cpuBudget(items.size(), cli.threads, 1, util::hostCpus())
            .jobs;
    util::parallelFor(items.size(), jobs, [&](unsigned, size_t i) {
        prepareItem(cli, items[i]);
        return true;
    });
    std::vector<uint64_t> costs;
    for (const Item &item : items)
        costs.push_back(item.cost);
    const std::vector<size_t> order = util::claimOrder(costs);
    std::vector<std::unique_ptr<msp::System>> systems(jobs);
    std::mutex outMu;
    size_t printed = 0;
    util::parallelFor(items.size(), jobs, [&](unsigned worker, size_t k) {
        if (!systems[worker])
            systems[worker] =
                std::make_unique<msp::System>(CellLibrary::tsmc65Like());
        Item &item = items[order[k]];
        std::string out;
        bool ok = runItem(cli, *systems[worker], item, out);
        std::lock_guard<std::mutex> lock(outMu);
        item.ok = ok;
        item.out = std::move(out);
        item.done = true;
        for (; printed < items.size() && items[printed].done; ++printed)
            std::fputs(items[printed].out.c_str(), stdout);
        return true;
    });

    struct Tally {
        unsigned run = 0;
        unsigned failed = 0;
    };
    std::map<std::string, Tally> tallies;
    for (const Item &item : items) {
        Tally &t = tallies[item.w->mode];
        ++t.run;
        t.failed += !item.ok;
    }

    unsigned failed = 0;
    std::string summary;
    for (const std::string &m : modeNames()) {
        const Tally &t = tallies[m];
        failed += t.failed;
        summary += (summary.empty() ? "" : ", ") + m + " " +
                   std::to_string(t.run - t.failed) + "/" +
                   std::to_string(t.run) + " ok";
    }
    if (!cli.quiet || failed)
        std::printf("ulfuzz seed %llu: %s (%.1fs)\n",
                    (unsigned long long)cli.seed, summary.c_str(),
                    secondsSince(t0));
    return failed ? 1 : 0;
}

} // namespace cli
} // namespace ulpeak

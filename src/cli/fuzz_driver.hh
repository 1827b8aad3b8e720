/**
 * @file
 * The `ulfuzz` command-line driver: seeded differential fuzzing of
 * the whole stack, built on src/fuzz and src/cosim.
 *
 * One run checks nine properties end-to-end (docs/testing.md). Each
 * mode runs netlist items, program items or both, and each item kind
 * has one count flag:
 *
 *  1. cosim      -- ISS <-> gate-level lockstep equivalence
 *                   (--programs);
 *  2. kernel     -- FullSweep <-> EventDriven bit-identity
 *                   (--netlists);
 *  3. invariance -- the peak-analysis report of a forking program
 *                   under a random analysis context (scenario,
 *                   DVFS, staticPrune) is bit-identical at a random point of threads x
 *                   kernel x snapshot form x packed frontier to the
 *                   reference point (--invariance-programs);
 *  4. envelope   -- the per-cycle envelope bounds random concrete
 *                   runs (--env-programs);
 *  5. scenario   -- random port scenarios only tighten the bounds and
 *                   bound every scenario-obeying run (--scn-programs);
 *  6. packed     -- 64-lane kernel lane identity (--packed-netlists)
 *                   and batched envelope validation
 *                   (--packed-programs);
 *  7. fault      -- faulted lane identity (--fault-netlists) and
 *                   campaign determinism (--fault-programs);
 *  8. dvfs       -- lowered operating modes only tighten the bounds
 *                   (--dvfs-programs);
 *  9. lint       -- static pruning keeps the bounds and every proven
 *                   constant holds concretely (--lint-programs).
 *
 * In a single-mode run a bare `--programs N` sets that mode's
 * program-item count; for a mode without program items (kernel) it
 * is a usage error.
 *
 * Every work item derives its own PRNG stream from (--seed, mode,
 * index); a mode's netlist items come first in its index space, then
 * its program items. Items run in parallel on the CPU budget, and each
 * item's output is printed in item order, so stdout does not depend
 * on the scheduling. Each failure prints the mode and item index, so
 * `ulfuzz --seed S --mode M --only I` replays one failing item
 * exactly. Exit code 0 = all properties hold, 1 = any divergence or
 * mismatch (the report is printed), 2 = usage error.
 */

#ifndef ULPEAK_CLI_FUZZ_DRIVER_HH
#define ULPEAK_CLI_FUZZ_DRIVER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cli/options.hh"

namespace ulpeak {
namespace cli {

/** Parsed command line of the `ulfuzz` tool. */
struct FuzzCliOptions {
    uint64_t seed = 1; ///< --seed
    /** Item count per count flag ("--programs", "--netlists",
     *  "--scn-programs", ...); parseFuzzArgs fills in every default. */
    std::map<std::string, unsigned> counts;
    unsigned instructions = 24; ///< --instr: body items per program
    /** --threads: the K of threads{1, K}, and a cap on the items
     *  that run at once (the CPU budget, util::cpuBudget, decides). */
    unsigned threads = 4;
    unsigned kernelCycles = 64; ///< --kernel-cycles per netlist
    long only = -1;             ///< --only INDEX: replay one item
    std::string mode = "all";   ///< --mode: all or one mode name
    bool dumpPrograms = false;  ///< --dump-programs: print sources
    bool quiet = false;         ///< --quiet: only the summary line
    bool help = false;          ///< --help
};

/** The option table of `ulfuzz`, bound to @p out (cli/options.hh). */
std::vector<Option> fuzzOptions(FuzzCliOptions &out);

std::string fuzzUsage();

/** Parse @p argv; on bad usage returns false and sets @p err. */
bool parseFuzzArgs(int argc, const char *const *argv,
                   FuzzCliOptions &out, std::string &err);

/** The complete driver behind tools/ulfuzz_main.cc. */
int runFuzzCli(int argc, const char *const *argv);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_FUZZ_DRIVER_HH

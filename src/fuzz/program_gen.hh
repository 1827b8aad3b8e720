/**
 * @file
 * Seeded random MSP430 program generator.
 *
 * Produces well-formed assembly programs for differential testing
 * (src/cosim): weighted over every supported addressing mode and both
 * instruction formats, with forward conditional branches, bounded
 * counter loops, multiplier-peripheral sequences, and memory traffic
 * confined to two valid RAM windows. A fixed prologue makes every
 * architectural register and the touched RAM window concrete before
 * the random body runs, so lockstep comparison against the gate-level
 * core never sees uninitialized-X noise; a fixed epilogue stores to
 * the DONE address and parks in a forever loop, the same shape the
 * bench430 programs use.
 *
 * Generation is fully deterministic in the passed Rng: one seed, one
 * program, on every platform. This is the contract the divergence
 * reports rely on ("reproduce with --seed N").
 */

#ifndef ULPEAK_FUZZ_PROGRAM_GEN_HH
#define ULPEAK_FUZZ_PROGRAM_GEN_HH

#include <string>

#include "fuzz/rng.hh"

namespace ulpeak {
namespace fuzz {

struct ProgramGenOptions {
    /** Random body items; one item may expand to a few instructions
     *  (loops, push/pop pairs). */
    unsigned instructions = 24;
    /** Permit reads of the input port (&0x0020). Under the symbolic
     *  engine these become X and force execution-tree forks at
     *  flag-dependent branches -- enable for symbolic-determinism
     *  fuzzing, keep for concrete cosim too (the ISS models the
     *  port). */
    bool allowPortInput = true;
    /** Permit hardware-multiplier peripheral sequences. */
    bool allowMultiplier = true;
    /** Permit bounded counter loops (always terminating). */
    bool allowLoops = true;
    /** Iteration count of generated loops is 1..maxLoopIterations. */
    unsigned maxLoopIterations = 6;
};

struct GeneratedProgram {
    std::string source; ///< complete program (.org, vectors, halt)
    std::string body;   ///< the random body alone (for reports)
};

/** Generate one program; consumes randomness from @p rng only. */
GeneratedProgram generateProgram(Rng &rng,
                                 const ProgramGenOptions &opts);

/** generateProgram's shape with a fork-biased start: the body opens
 *  with an input-port read feeding one to three X-dependent
 *  branches, so under the symbolic engine every program forks and
 *  the frontier holds several paths at once (fork snapshots, dedup
 *  and multi-lane packed batches get exercised). */
GeneratedProgram generateForkingProgram(Rng &rng,
                                        const ProgramGenOptions &opts);

} // namespace fuzz
} // namespace ulpeak

#endif // ULPEAK_FUZZ_PROGRAM_GEN_HH

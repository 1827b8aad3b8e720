/**
 * @file
 * SEU fault injection on the cosim bedrock: flip chosen flop / RAM
 * bits at chosen cycles of the gate-level model, run the faulted
 * execution in lockstep against the *unfaulted* golden ISS, and
 * classify the outcome from the structured cosim divergence:
 *
 *   masked -- the run still locksteps and halts cleanly: the upset
 *             was logically masked (or overwritten before use);
 *   SDC    -- silent data corruption: the run completed or kept
 *             retiring, but architectural state diverged (Pc /
 *             Register / MemWrite / FinalMemory / Cycles / Halt);
 *   crash  -- the core reached a detectably-broken state: an X-valued
 *             store or program counter (a gate-x divergence);
 *   hang   -- the core never halted within the cycle budget (a
 *             gate-timeout divergence), e.g. a corrupted FSM one-hot
 *             that never reaches FETCH again.
 *
 * Injection semantics: "flip at cycle c" mutates the state in the
 * cycle driver of the step whose cycle() == c -- after the sequential
 * update, before the combinational sweep -- so the flip is what cycle
 * c's combinational logic observes, and what the next edge reloads if
 * the flop holds (Simulator::injectSeuFlip). Reset cycles
 * (0 .. msp::System::kResetCycles-1) are injectable like any other
 * cycle. Flips of X-valued bits are no-ops (`applied` stays false for
 * the run if no flip landed): the three-valued X already subsumes
 * both values.
 *
 * The packed runner evaluates 64 faulted runs per sweep on
 * PackedSimulator, one cosim::Checker per lane, and is bit-identical,
 * lane for lane, to 64 scalar runFaulted calls in every classification
 * field and every recorded power float (the packed lane-identity
 * invariant extended to faulted runs; enforced by tests/test_fault.cc
 * and `ulfuzz --mode fault`). Campaigns run on the packed runner; the
 * scalar one reproduces a row with its report (`ulfault --replay`)
 * and is the reference the tests compare against.
 */

#ifndef ULPEAK_FAULT_FAULT_HH
#define ULPEAK_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cosim/cosim.hh"
#include "peak/envelope.hh"
#include "sim/packed_simulator.hh"

namespace ulpeak {
namespace fault {

/** What kind of sequential state an injection site addresses. */
enum class SiteKind : uint8_t {
    Flop, ///< a sequential gate's stored output bit
    Ram,  ///< one bit of one word of the behavioral RAM macro
};

/** One injection site: a bit of the gate-level model's state. */
struct Site {
    SiteKind kind = SiteKind::Flop;
    GateId gate = 0;   ///< Flop: the sequential gate
    uint32_t addr = 0; ///< Ram: word address
    uint8_t bit = 0;   ///< Ram: bit index 0..15

    bool
    operator==(const Site &o) const
    {
        return kind == o.kind && gate == o.gate && addr == o.addr &&
               bit == o.bit;
    }
};

/** One fault: flip @ref site at gate cycle @ref cycle. */
struct Injection {
    Site site;
    uint64_t cycle = 0;
};

/** Outcome classes of one faulted run (see the file comment). */
enum class Outcome : uint8_t { Masked, Sdc, Crash, Hang };

const char *outcomeName(Outcome o);

/**
 * Map a cosim result onto an outcome class. ok -> Masked,
 * GateTimeout -> Hang, GateX -> Crash, every architectural divergence
 * -> Sdc. IssTrap also maps to Sdc for totality, but cannot occur in
 * a campaign: the golden (unfaulted) run is checked first, and the
 * ISS side of a faulted run executes the same unfaulted program.
 */
Outcome classify(const cosim::Result &r);

/** Options of one faulted run (scalar or packed). */
struct RunOptions {
    /** Cycle budget; runs not halting within it classify as Hang. */
    uint64_t maxCycles = 60000;
    uint16_t portIn = 0;
    /** Kernel of the scalar path (the packed kernel has one mode, the
     *  lane-unioned analogue of EventDriven). */
    EvalMode evalMode = EvalMode::EventDriven;
    /** Record the per-cycle bound power trace (may be null). */
    const power::PowerContext *powerCtx = nullptr;
    /** When set (with powerCtx), compare the faulted trace against
     *  this envelope; an escape is a reported finding. */
    const peak::Envelope *envelope = nullptr;
};

/** Classification of one faulted run. Every field except @ref report
 *  is bit-identical between the scalar and packed runners. */
struct FaultResult {
    Outcome outcome = Outcome::Masked;
    /** At least one flip changed a bit (X-bit and post-halt flips
     *  don't; a double flip of the same bit applies twice). */
    bool applied = false;
    cosim::Divergence::Kind kind{}; ///< none when masked
    uint64_t divergenceCycle = 0; ///< 0 when masked
    uint64_t instrIndex = 0;      ///< retired before the divergence
    uint32_t pc = 0;              ///< PC of the instruction at fault
    uint64_t gateCycles = 0;
    uint64_t instructionsRetired = 0;
    /// @name Power under fault (zero when RunOptions::powerCtx null)
    /// @{
    float peakPowerW = 0.0f;
    uint64_t peakCycle = 0;   ///< post-reset index of the peak
    uint64_t traceCycles = 0; ///< recorded trace length
    bool envelopeEscape = false;
    uint64_t escapeCycle = 0; ///< first violating cycle when escaped
    /// @}
    /** Full human-readable divergence report. Scalar runner only --
     *  the packed runner leaves it empty (use the scalar path /
     *  `ulfault --replay` to reproduce one lane with the report). */
    std::string report;

    /** Equality over every deterministic field (excludes report). */
    bool sameClassification(const FaultResult &o) const;
};

/**
 * Scalar reference runner: execute @p image with @p faults injected,
 * in lockstep against the golden ISS. The System's behavioral memory
 * is reloaded, so calls are independent.
 */
FaultResult runFaulted(msp::System &sys, const isa::Image &image,
                       const std::vector<Injection> &faults,
                       const RunOptions &opts);

/**
 * Packed runner: 64 faulted runs of @p image in one PackedSimulator
 * sweep, lane l injecting @p faults[l]. Bit-identical per lane to
 * runFaulted (reports excepted). Lanes with an empty fault list run
 * the golden execution (cheap tail filler for partial groups).
 */
std::array<FaultResult, PackedSimulator::kLanes>
runFaultedPacked(msp::System &sys, const isa::Image &image,
                 const std::array<std::vector<Injection>,
                                  PackedSimulator::kLanes> &faults,
                 const RunOptions &opts);

/** The classification fields of the finished lockstep run @p cr,
 *  outcome by classify(); the one result mapping of both runners
 *  (power fields and report left empty). */
FaultResult toFaultResult(const cosim::Result &cr, bool applied);

/** Fill the power/escape fields of @p r from a recorded trace (shared
 *  by the two runners; exposed for tests). */
void applyPowerTrace(FaultResult &r, const std::vector<float> &trace_w,
                     const peak::Envelope *envelope);

/** Every sequential gate of @p nl as a flop site, in
 *  Netlist::seqGates() order (the campaign's site index space). */
std::vector<Site> flopSites(const Netlist &nl);

/** Human-readable site label: the netlist gate name (or "g<id>") for
 *  flops, "ram[0x..].bit" for RAM bits. */
std::string siteName(const Netlist &nl, const Site &s);

} // namespace fault
} // namespace ulpeak

#endif // ULPEAK_FAULT_FAULT_HH

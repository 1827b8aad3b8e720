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
 * and is the reference the tests compare against. A packed batch may
 * start from a golden checkpoint instead of reset: up to its first
 * flip a faulted run is the golden run, so the golden prefix is
 * simulated once per campaign (goldenCheckpoints), not once per batch.
 */

#ifndef ULPEAK_FAULT_FAULT_HH
#define ULPEAK_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cosim/cosim.hh"
#include "msp/cpu.hh"
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
 * A run's power fields, folded one cycle at a time: what
 * applyPowerTrace derives from a whole trace (first argmax, and
 * validateTraceBound's first violating cycle), so a run resumed from
 * a golden checkpoint continues the fold of the golden prefix.
 */
struct TraceFold {
    uint64_t cycles = 0;
    float peakW = 0.0f;
    uint64_t peakCycle = 0;
    bool escape = false;
    uint64_t escapeCycle = 0;

    /** The next cycle's power @p w; @p envelope as
     *  RunOptions::envelope (may be null). */
    void add(float w, const peak::Envelope *envelope);
    void applyTo(FaultResult &r) const;
};

/**
 * The golden run between two steps, at cycle sim.cycle past reset:
 * a packed batch whose injections all land at or after that cycle
 * starts here instead of at reset, since before its flip a faulted
 * lane is the golden run (the lane-identity invariant).
 */
struct GoldenCheckpoint {
    Simulator::Snapshot sim;
    msp::System::Snapshot sys;
    cosim::Checker check;
    TraceFold power; ///< the golden trace before sim.cycle
};

/**
 * Replay the golden run of @p image once, through cosim::run, and
 * capture a checkpoint at each of @p cycles (ascending, distinct,
 * each in [System::kResetCycles, golden cycles)). @p opts as the
 * faulted runs' (its maxCycles is not used). The checkpoints' checkers
 * refer to @p image, which must outlive them. Throws std::logic_error
 * when the golden run ends before the last cycle.
 */
std::vector<GoldenCheckpoint>
goldenCheckpoints(msp::System &sys, const isa::Image &image,
                  const std::vector<uint64_t> &cycles,
                  const RunOptions &opts);

/** Where a batch whose first injection is at @p first_cycle starts:
 *  the latest of @p cps (ascending) at or before it, or null -- from
 *  reset -- when there is none (a first injection inside reset). */
const GoldenCheckpoint *
batchStart(const std::vector<GoldenCheckpoint> &cps, uint64_t first_cycle);

/** The rows of one packed batch and what it cost. */
struct PackedBatch {
    std::array<FaultResult, PackedSimulator::kLanes> rows;
    uint64_t sweeps = 0;     ///< packed steps past reset / checkpoint
    uint64_t laneCycles = 0; ///< live lanes summed over those steps
};

/**
 * Packed runner: 64 faulted runs of @p image in one PackedSimulator
 * sweep, lane l injecting @p faults[l]. Bit-identical per lane to
 * runFaulted (reports excepted). Lanes with an empty fault list run
 * the golden execution (cheap tail filler for partial groups). With
 * @p start, every lane starts from that golden checkpoint instead of
 * reset; every injection must then land at or after its cycle
 * (std::invalid_argument otherwise).
 */
PackedBatch
runFaultedPacked(msp::System &sys, const isa::Image &image,
                 const std::array<std::vector<Injection>,
                                  PackedSimulator::kLanes> &faults,
                 const RunOptions &opts,
                 const GoldenCheckpoint *start = nullptr);

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

/**
 * @file
 * Lockstep differential co-simulation of the gate-level core against
 * the golden ISS.
 *
 * The gate-level System (src/msp + src/sim) and the ISS (src/isa/iss)
 * execute the same image cycle for cycle; at every instruction
 * boundary (the FSM's FETCH state) the checker compares the retired
 * architectural state -- program counter, register file, status
 * flags (SR), and the exact stream of memory writes the previous
 * instruction performed -- and at halt it compares cycle counts and
 * the final RAM contents. The first disagreement stops the run and
 * produces a structured divergence report: the gate cycle and retired
 * instruction index, the state diff, and a disassembled instruction
 * window around the divergence (src/isa/disassembler).
 *
 * The rules live once, in cosim::Checker: run() drives one from the
 * scalar Simulator, the packed fault runner (src/fault) one per lane.
 *
 * The gate and ISS sides can be given *different* images: that is how
 * the checker checks itself (inject a bug into one side, assert the
 * divergence is caught and located -- tests/test_cosim.cc).
 */

#ifndef ULPEAK_COSIM_COSIM_HH
#define ULPEAK_COSIM_COSIM_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/iss.hh"
#include "msp/cpu.hh"
#include "power/power_model.hh"

namespace ulpeak {
namespace cosim {

struct Options {
    uint64_t maxCycles = 60000;
    uint16_t portIn = 0;
    /** Simulation kernel for the gate side. */
    EvalMode evalMode = EvalMode::EventDriven;
    /** Instructions of context disassembled after the divergence PC. */
    unsigned disasmAfter = 2;
    /**
     * Called inside every gate-side cycle driver -- reset cycles
     * included -- after the inputs are set, i.e. after the sequential
     * update and before the combinational sweep. This is the
     * injection point of the fault layer (src/fault): a
     * Simulator::injectSeuFlip here is what that cycle's
     * combinational logic observes. May be null.
     */
    std::function<void(Simulator &)> preCycle;
    /**
     * When non-null, record the gate side's per-cycle *bound* power
     * into Result::powerTraceW -- same accounting and same post-reset
     * cycle indexing as power::runConcrete, so the trace is directly
     * comparable against a peak::Envelope.
     */
    const power::PowerContext *powerCtx = nullptr;
};

/** One observed memory write (word address, value). */
struct MemWrite {
    uint32_t addr = 0;
    uint16_t value = 0;
    bool operator==(const MemWrite &o) const
    {
        return addr == o.addr && value == o.value;
    }
};

struct Divergence {
    enum class Kind {
        None,
        Pc,          ///< fetch address differs
        Register,    ///< register-file mismatch (includes SR flags)
        MemWrite,    ///< store streams differ
        FinalMemory, ///< RAM contents differ after halt
        Cycles,      ///< cycle counts differ after halt
        GateX,       ///< gate state unexpectedly unknown
        GateTimeout, ///< gate core never halted
        IssTrap,     ///< ISS stopped on an error the gate didn't hit
        Halt,        ///< one side halted, the other kept running
    };

    Kind kind = Kind::None;
    uint64_t cycle = 0;      ///< gate cycle of first divergence
    uint64_t instrIndex = 0; ///< retired instructions before it
    uint32_t pc = 0;         ///< PC of the instruction at fault
    std::string detail;      ///< state diff, one item per line
    std::string disasm;      ///< instruction window around @ref pc
};

const char *divergenceKindName(Divergence::Kind k);

struct Result {
    bool ok = false;
    uint64_t instructionsRetired = 0;
    uint64_t gateCycles = 0;
    uint64_t issCycles = 0;
    Divergence divergence;
    /**
     * Per-cycle gate-side bound power [W], recorded only when
     * Options::powerCtx is set. Index 0 is the first post-reset cycle
     * (runConcrete's indexing); the trace ends with the last cycle the
     * run simulated -- the halting step, the divergent cycle, or the
     * budget limit.
     */
    std::vector<float> powerTraceW;

    /** Multi-line human-readable divergence report ("" when ok). */
    std::string report() const;
};

/** The gate-side register file at an instruction boundary (r0 is the
 *  PC). */
using Registers = std::array<Word16, 16>;

/**
 * The lockstep rules of one run. A Checker owns the ISS side and the
 * boundary bookkeeping; its caller steps the gate side and feeds each
 * rule what it reads off its simulator. The first divergence, halt()
 * or timeout() ends the run: the caller stops stepping and reads
 * result(). Report text is built only by explain().
 */
class Checker {
  public:
    Checker(const isa::Image &iss_image, uint16_t port_in);
    Checker(const Checker &) = delete;
    Checker &operator=(const Checker &) = delete;

    /** At every clock edge: the reset and write-enable nets; @p bus
     *  returns the {address, data} buses and is read only on a store. */
    template <typename Bus>
    void
    edge(V4 rstn, V4 wr, const Bus &bus)
    {
        if (rstn == V4::One && wr != V4::Zero) {
            std::pair<Word16, Word16> ad = bus();
            store(wr, ad.first, ad.second);
        }
    }

    /** At a post-reset cycle whose FSM is at FETCH: the previous
     *  instruction's stores, PC, r1..r15; then the ISS executes the
     *  instruction fetched. False once the run has diverged. */
    bool fetch(uint64_t cycle, const Registers &regs);

    /** A store with unknown address or enable (System::xStoreFault). */
    void xStore(uint64_t cycle);

    /** The cycle budget ran out before the core halted. */
    void timeout(uint64_t cycle);

    /** After the cycle whose edge halted the core: the last stores,
     *  ISS halted too, cycle counts, the known words of @p gate_ram.
     *  True when the run passes. */
    bool halt(uint64_t cycle, const Memory &gate_ram);

    Result result() const;

    /** Fill @p d's detail and window (@p disasm_after instructions
     *  past its PC); @p gate_ram as passed to halt(). */
    void explain(Divergence &d, const Memory &gate_ram,
                 unsigned disasm_after) const;

  private:
    void store(V4 wr, Word16 addr, Word16 data);
    bool writesMatch() const;
    /** Record the divergence; returns false, the rules' verdict. */
    bool diverge(Divergence::Kind kind, uint64_t cycle, uint32_t pc);

    const isa::Image &image_; ///< for the disassembler
    isa::Iss iss_;
    std::vector<MemWrite> gateWrites_, issWrites_;
    bool gateXWrite_ = false;
    uint32_t curPc_ = 0;
    bool first_ = true;
    bool issDone_ = false;
    uint64_t retired_ = 0;
    std::array<uint32_t, 4> recent_{}; ///< PC of instruction i at i % 4
    /** The last fetch() reading: an X PC marks a GateX at a fetch. */
    Registers gate_{};
    Divergence div_;
    uint64_t gateCycles_ = 0;
};

/**
 * Run @p gate_image on the gate-level core and @p iss_image on the
 * ISS in lockstep. The System's behavioral memory is reloaded, so
 * calls are independent (the netlist itself is immutable and shared).
 */
Result run(msp::System &sys, const isa::Image &gate_image,
           const isa::Image &iss_image, const Options &opts);

/** Common case: both sides execute the same image. */
inline Result
run(msp::System &sys, const isa::Image &image, const Options &opts)
{
    return run(sys, image, image, opts);
}

} // namespace cosim
} // namespace ulpeak

#endif // ULPEAK_COSIM_COSIM_HH

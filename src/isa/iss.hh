/**
 * @file
 * Golden instruction-set simulator (ISS).
 *
 * A concrete-valued architectural model of the ULP system in src/msp:
 * same ISA subset, same memory map, same peripheral semantics, and the
 * same cycle schedule (MicroPlan). The gate-level core is verified
 * against this model by randomized co-simulation
 * (tests/test_cpu_equivalence.cc), mirroring how the paper trusts a
 * silicon-proven openMSP430 RTL. It is also used for fast functional
 * checks of benchmarks and for the optimizer's performance accounting.
 */

#ifndef ULPEAK_ISA_ISS_HH
#define ULPEAK_ISA_ISS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "isa/assembler.hh"
#include "isa/encoding.hh"

namespace ulpeak {
namespace isa {

/** Memory map constants shared with the gate-level system (msp/). */
struct SystemMap {
    static constexpr uint32_t kSfrIe = 0x0000;    ///< interrupt enable
    static constexpr uint32_t kSfrIfg = 0x0002;   ///< interrupt flags
    static constexpr uint32_t kPortIn = 0x0020;   ///< 16-bit input port
    static constexpr uint32_t kPortOut = 0x0022;  ///< 16-bit output port
    static constexpr uint32_t kWdtCtl = 0x0120;   ///< watchdog control
    static constexpr uint32_t kMpy = 0x0130;      ///< op1, unsigned
    static constexpr uint32_t kMpys = 0x0132;     ///< op1, signed
    static constexpr uint32_t kOp2 = 0x0138;      ///< op2 (triggers)
    static constexpr uint32_t kResLo = 0x013a;    ///< product low
    static constexpr uint32_t kResHi = 0x013c;    ///< product high
    static constexpr uint32_t kDbgCtl = 0x01e0;   ///< debug-unit reg 0
    static constexpr uint32_t kDbgData = 0x01e2;  ///< debug-unit reg 1
    static constexpr uint32_t kDone = 0x01f0;     ///< write-to-halt
    static constexpr uint32_t kRamBase = 0x0200;
    static constexpr uint32_t kRamSize = 0x0800;  ///< 2 KiB
    static constexpr uint32_t kRomBase = 0xf000;  ///< 4 KiB
    static constexpr uint32_t kResetVector = 0xfffe;
    static constexpr uint16_t kWdtPassword = 0x5a00;
    static constexpr uint16_t kWdtHold = 0x0080;
};

class Iss {
  public:
    Iss();

    /** Load an assembled image (ROM and/or RAM segments). */
    void loadImage(const Image &image);
    /** Clear registers, fetch the reset vector, un-halt. */
    void reset();

    /// @name Architectural state
    /// @{
    uint16_t reg(unsigned r) const { return regs_[r]; }
    /** Set a register to a known (untainted) value. */
    void
    setReg(unsigned r, uint16_t v)
    {
        regs_[r] = v;
        regTaint_ &= uint16_t(~(1u << r));
    }
    uint16_t pc() const { return regs_[kPc]; }
    bool halted() const { return halted_; }
    uint64_t cycles() const { return cycles_; }
    uint64_t instructions() const { return instrs_; }
    /// @}

    /** Value returned by reads of the input port. */
    void setPortIn(uint16_t v) { portIn_ = v; }
    uint16_t portOut() const { return portOut_; }

    /**
     * Architectural memory access (RAM, ROM, peripherals). Unmapped
     * addresses read 0xffff; writes to ROM/unmapped are dropped --
     * matching the gate-level mem_backbone. A writeMem value is known,
     * so it clears the word's taint.
     */
    uint16_t readMem(uint32_t addr) const;
    void writeMem(uint32_t addr, uint16_t v) { store(addr, v, false); }

    /// @name Taint shadow
    /// A value is tainted when it derives from something Algorithm 1
    /// leaves X: the input port (setPortTainted), a RAM word that no
    /// image or writeMem defined, or a register before its first
    /// write after reset (all but PC, SR and the constant generator).
    /// Taint flows through ALU results and flags, loads and stores,
    /// and any access through a tainted address; it never changes a
    /// value. A conditional jump on tainted flags is a branch the
    /// symbolic engine would fork on (a tainted value written to PC
    /// is one too, but its targets are unknown: the run follows the
    /// concrete one).
    /// @{
    void setPortTainted(bool t) { portTaint_ = t; }
    /** A hash of the registers and RAM in which every tainted word
     *  stands in as X: two runs with equal keys differ only in values
     *  the engine would not know. */
    uint64_t maskedStateKey() const;
    /** When the last step() was a conditional jump on tainted flags,
     *  the successor it did not take (the other side of the fork);
     *  else -1. */
    int32_t forkTarget() const { return forkTarget_; }
    /// @}

    /**
     * Observer invoked on every architectural memory write (word
     * address, raw value), before the write is applied or filtered.
     * The co-simulation checker (src/cosim) uses this to compare the
     * ISS's store stream against the gate-level core's memory bus,
     * write for write.
     */
    using WriteObserver = std::function<void(uint32_t, uint16_t)>;
    void setWriteObserver(WriteObserver fn) { writeObs_ = std::move(fn); }

    /** Execute one instruction; returns false once halted or on an
     *  unsupported opcode (haltReason() tells which). */
    bool step();
    /** Run until halt or @p max_instrs; returns true if halted. */
    bool run(uint64_t max_instrs);

    const std::string &haltReason() const { return haltReason_; }

  private:
    uint16_t fetchWord();
    /** Read an operand; @p taint_out gets its taint, @p addr_out its
     *  address (0 for Reg and constant modes). */
    uint16_t readOperand(const Operand &o, uint32_t &addr_out,
                         bool &taint_out);
    bool regTainted(unsigned r) const { return regTaint_ >> r & 1; }
    bool ramTainted(uint32_t addr) const;
    /** Taint of the word a read of @p addr returns. */
    bool memTaint(uint32_t addr) const;
    /** The one write path: writeMem and every instruction store. */
    void store(uint32_t addr, uint16_t v, bool taint);
    /** Set RAM word @p w's taint. */
    void
    setRamTaint(size_t w, bool taint)
    {
        uint64_t bit = uint64_t(1) << (w % 64);
        ramTaint_[w / 64] = taint ? ramTaint_[w / 64] | bit
                                  : ramTaint_[w / 64] & ~bit;
    }
    /** Write register @p r with taint @p taint. */
    void setRegTaint(unsigned r, uint16_t v, bool taint);
    void writeFlags(bool c, bool z, bool n, bool v);
    bool flagC() const { return regs_[kSr] & (1u << kFlagC); }
    bool flagZ() const { return regs_[kSr] & (1u << kFlagZ); }
    bool flagN() const { return regs_[kSr] & (1u << kFlagN); }
    bool flagV() const { return regs_[kSr] & (1u << kFlagV); }

    std::array<uint16_t, 16> regs_{};
    std::array<uint16_t, SystemMap::kRamSize / 2> ram_{};
    using Rom = std::array<uint16_t, (0x10000 - SystemMap::kRomBase) / 2>;
    /** Shared by copies (a fork costs its RAM, not 8 KB of ROM): ROM
     *  changes only in loadImage, which gives this Iss its own. */
    std::shared_ptr<const Rom> rom_;

    uint16_t regTaint_ = 0;                        ///< bit r: R<r>
    /** Bit w % 64 of word w / 64: RAM word w is tainted. */
    std::array<uint64_t, SystemMap::kRamSize / 128> ramTaint_{};
    bool portTaint_ = false;
    bool mpyOpTaint_ = false; ///< the multiplier's first operand
    bool mpyTaint_ = false;   ///< its product
    int32_t forkTarget_ = -1;

    uint16_t portIn_ = 0;
    uint16_t portOut_ = 0;
    uint16_t wdtCtl_ = 0;
    uint16_t sfrIe_ = 0;
    uint16_t sfrIfg_ = 0;
    uint16_t mpy_ = 0;
    bool mpySigned_ = false;
    uint16_t op2_ = 0;
    uint16_t resLo_ = 0;
    uint16_t resHi_ = 0;
    uint16_t dbg0_ = 0;
    uint16_t dbg1_ = 0;

    WriteObserver writeObs_;
    bool halted_ = false;
    std::string haltReason_;
    uint64_t cycles_ = 0;
    uint64_t instrs_ = 0;
};

} // namespace isa
} // namespace ulpeak

#endif // ULPEAK_ISA_ISS_HH

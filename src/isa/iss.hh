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
    void setReg(unsigned r, uint16_t v) { regs_[r] = v; }
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
     * matching the gate-level mem_backbone.
     */
    uint16_t readMem(uint32_t addr) const;
    void writeMem(uint32_t addr, uint16_t v);

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
    uint16_t readOperand(const Operand &o, uint32_t &addr_out);
    void writeFlags(bool c, bool z, bool n, bool v);
    bool flagC() const { return regs_[kSr] & (1u << kFlagC); }
    bool flagZ() const { return regs_[kSr] & (1u << kFlagZ); }
    bool flagN() const { return regs_[kSr] & (1u << kFlagN); }
    bool flagV() const { return regs_[kSr] & (1u << kFlagV); }

    std::array<uint16_t, 16> regs_{};
    std::array<uint16_t, SystemMap::kRamSize / 2> ram_{};
    std::array<uint16_t, (0x10000 - SystemMap::kRomBase) / 2> rom_{};

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

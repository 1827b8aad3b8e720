#include "isa/iss.hh"

#include <stdexcept>

namespace ulpeak {
namespace isa {

using SM = SystemMap;

Iss::Iss()
{
    rom_.fill(0xffff);
}

void
Iss::loadImage(const Image &image)
{
    for (auto &[addr, word] : image.flatten()) {
        if (addr >= SM::kRomBase) {
            rom_[(addr - SM::kRomBase) / 2] = word;
        } else if (addr >= SM::kRamBase &&
                   addr < SM::kRamBase + SM::kRamSize) {
            ram_[(addr - SM::kRamBase) / 2] = word;
        } else {
            throw std::out_of_range("image word outside RAM/ROM");
        }
    }
}

void
Iss::reset()
{
    regs_.fill(0);
    halted_ = false;
    haltReason_.clear();
    cycles_ = 0;
    instrs_ = 0;
    wdtCtl_ = 0;
    regs_[kPc] = readMem(SM::kResetVector);
    // Cycle parity with the gate-level core, counted to the point the
    // halt is observable there: msp::System::kResetCycles externally-
    // driven reset cycles, one RESETV vector-fetch cycle, and the
    // edge that commits the final DONE store.
    cycles_ = 8;
}

uint16_t
Iss::readMem(uint32_t addr) const
{
    addr &= 0xfffe;
    if (addr >= SM::kRomBase)
        return rom_[(addr - SM::kRomBase) / 2];
    if (addr >= SM::kRamBase && addr < SM::kRamBase + SM::kRamSize)
        return ram_[(addr - SM::kRamBase) / 2];
    switch (addr) {
      case SM::kSfrIe: return sfrIe_;
      case SM::kSfrIfg: return sfrIfg_;
      case SM::kPortIn: return portIn_;
      case SM::kPortOut: return portOut_;
      case SM::kWdtCtl: return uint16_t(0x6900 | (wdtCtl_ & 0x00ff));
      case SM::kMpy: return mpy_;
      case SM::kMpys: return mpy_;
      case SM::kOp2: return op2_;
      case SM::kResLo: return resLo_;
      case SM::kResHi: return resHi_;
      case SM::kDbgCtl: return dbg0_;
      case SM::kDbgData: return dbg1_;
      default: return 0xffff;
    }
}

void
Iss::writeMem(uint32_t addr, uint16_t v)
{
    addr &= 0xfffe;
    if (writeObs_)
        writeObs_(addr, v);
    if (addr >= SM::kRomBase)
        return; // ROM writes dropped, as in the gate-level backbone
    if (addr >= SM::kRamBase && addr < SM::kRamBase + SM::kRamSize) {
        ram_[(addr - SM::kRamBase) / 2] = v;
        return;
    }
    switch (addr) {
      case SM::kSfrIe:
        sfrIe_ = v;
        break;
      case SM::kSfrIfg:
        sfrIfg_ = v;
        break;
      case SM::kPortOut:
        portOut_ = v;
        break;
      case SM::kWdtCtl:
        // Password-protected: accepted only with 0x5a in the top byte.
        if ((v & 0xff00) == SM::kWdtPassword)
            wdtCtl_ = uint16_t(v & 0x00ff);
        break;
      case SM::kMpy:
        mpy_ = v;
        mpySigned_ = false;
        break;
      case SM::kMpys:
        mpy_ = v;
        mpySigned_ = true;
        break;
      case SM::kOp2: {
        op2_ = v;
        uint32_t product;
        if (mpySigned_) {
            product = uint32_t(int32_t(int16_t(mpy_)) *
                               int32_t(int16_t(v)));
        } else {
            product = uint32_t(mpy_) * uint32_t(v);
        }
        resLo_ = uint16_t(product);
        resHi_ = uint16_t(product >> 16);
        break;
      }
      case SM::kResLo:
        resLo_ = v;
        break;
      case SM::kResHi:
        resHi_ = v;
        break;
      case SM::kDbgCtl:
        dbg0_ = v;
        break;
      case SM::kDbgData:
        dbg1_ = v;
        break;
      case SM::kDone:
        halted_ = true;
        haltReason_ = "done";
        break;
      default:
        break; // unmapped writes dropped
    }
}

uint16_t
Iss::fetchWord()
{
    uint16_t w = readMem(regs_[kPc]);
    regs_[kPc] = uint16_t(regs_[kPc] + 2);
    return w;
}

uint16_t
Iss::readOperand(const Operand &o, uint32_t &addr_out)
{
    addr_out = 0;
    switch (o.mode) {
      case Mode::Reg:
        return regs_[o.reg];
      case Mode::Const:
      case Mode::Immediate:
        return uint16_t(o.imm);
      case Mode::Absolute:
        addr_out = uint32_t(o.imm) & 0xffff;
        return readMem(addr_out);
      case Mode::Indexed:
      case Mode::Symbolic:
        addr_out = uint32_t(regs_[o.reg] + uint16_t(o.imm)) & 0xffff;
        return readMem(addr_out);
      case Mode::Indirect:
        addr_out = regs_[o.reg];
        return readMem(addr_out);
      case Mode::IndirectInc: {
        addr_out = regs_[o.reg];
        uint16_t v = readMem(addr_out);
        regs_[o.reg] = uint16_t(regs_[o.reg] + 2);
        return v;
      }
    }
    return 0;
}

void
Iss::writeFlags(bool c, bool z, bool n, bool v)
{
    uint16_t sr = regs_[kSr];
    sr = uint16_t(sr & ~((1u << kFlagC) | (1u << kFlagZ) |
                         (1u << kFlagN) | (1u << kFlagV)));
    if (c)
        sr |= 1u << kFlagC;
    if (z)
        sr |= 1u << kFlagZ;
    if (n)
        sr |= 1u << kFlagN;
    if (v)
        sr |= 1u << kFlagV;
    regs_[kSr] = sr;
}

bool
Iss::step()
{
    // A clean DONE halt sets halted_; decode/execution errors leave
    // halted_ false but record a reason, so callers can tell a normal
    // termination from a trap.
    if (halted_ || !haltReason_.empty())
        return false;

    uint32_t instrAddr = regs_[kPc];
    uint16_t w0 = fetchWord();
    uint16_t w1 = readMem(regs_[kPc]);
    uint16_t w2 = readMem(uint32_t(regs_[kPc]) + 2);
    Decoded d = decode(w0, w1, w2);
    if (!d.valid) {
        haltReason_ = "invalid instruction at 0x" +
                      std::to_string(instrAddr);
        return false;
    }
    const Instr &in = d.instr;
    MicroPlan plan = planOf(in);
    cycles_ += plan.cycles();
    ++instrs_;

    // Consume extension words in program order (src first).
    if (plan.srcExt)
        fetchWord();
    if (plan.dstExt)
        fetchWord();

    if (isJump(in.op)) {
        if (jumpTaken(in.op, flagC(), flagZ(), flagN(), flagV())) {
            regs_[kPc] = uint16_t(instrAddr + 2 +
                                  uint16_t(in.jumpOffsetWords) * 2);
        }
        return !halted_;
    }

    uint32_t srcAddr = 0;
    uint16_t s = readOperand(in.src, srcAddr);

    if (isFormatII(in.op)) {
        switch (in.op) {
          case Op::Rrc: {
            uint16_t r = uint16_t((s >> 1) | (flagC() ? 0x8000 : 0));
            writeFlags(s & 1, r == 0, r & 0x8000, false);
            if (in.src.mode == Mode::Reg)
                regs_[in.src.reg] = r;
            else
                writeMem(srcAddr, r);
            break;
          }
          case Op::Rra: {
            uint16_t r = uint16_t((s >> 1) | (s & 0x8000));
            writeFlags(s & 1, r == 0, r & 0x8000, false);
            if (in.src.mode == Mode::Reg)
                regs_[in.src.reg] = r;
            else
                writeMem(srcAddr, r);
            break;
          }
          case Op::Swpb: {
            uint16_t r = uint16_t((s << 8) | (s >> 8));
            if (in.src.mode == Mode::Reg)
                regs_[in.src.reg] = r;
            else
                writeMem(srcAddr, r);
            break;
          }
          case Op::Sxt: {
            uint16_t r = uint16_t(int16_t(int8_t(s & 0xff)));
            writeFlags(r != 0, r == 0, r & 0x8000, false);
            if (in.src.mode == Mode::Reg)
                regs_[in.src.reg] = r;
            else
                writeMem(srcAddr, r);
            break;
          }
          case Op::Push: {
            regs_[kSp] = uint16_t(regs_[kSp] - 2);
            writeMem(regs_[kSp], s);
            break;
          }
          case Op::Call: {
            regs_[kSp] = uint16_t(regs_[kSp] - 2);
            writeMem(regs_[kSp], regs_[kPc]);
            regs_[kPc] = s;
            break;
          }
          default:
            haltReason_ = "unsupported format-II op";
            return false;
        }
        return !halted_;
    }

    // Format I.
    uint32_t dstAddr = 0;
    uint16_t dv = 0;
    if (readsDst(in.op)) {
        dv = readOperand(in.dst, dstAddr);
    } else if (in.dst.mode != Mode::Reg) {
        // MOV still needs the destination address (no read).
        if (in.dst.mode == Mode::Absolute)
            dstAddr = uint32_t(in.dst.imm) & 0xffff;
        else
            dstAddr =
                uint32_t(regs_[in.dst.reg] + uint16_t(in.dst.imm)) &
                0xffff;
    }

    uint32_t wide = 0;
    uint16_t r = 0;
    bool c = flagC(), z = flagZ(), n = flagN(), v = flagV();
    auto addFlags = [&](uint16_t a, uint16_t b, bool cin) {
        wide = uint32_t(a) + uint32_t(b) + (cin ? 1 : 0);
        r = uint16_t(wide);
        c = wide > 0xffff;
        z = r == 0;
        n = r & 0x8000;
        v = ((~(a ^ b) & (a ^ r)) & 0x8000) != 0;
    };

    bool write = writesDst(in.op);
    bool flags = setsFlags(in.op);
    switch (in.op) {
      case Op::Mov:
        r = s;
        break;
      case Op::Add:
        addFlags(s, dv, false);
        break;
      case Op::Addc:
        addFlags(s, dv, flagC());
        break;
      case Op::Sub:
        addFlags(uint16_t(~s), dv, true);
        break;
      case Op::Subc:
        addFlags(uint16_t(~s), dv, flagC());
        break;
      case Op::Cmp:
        addFlags(uint16_t(~s), dv, true);
        break;
      case Op::Bit:
      case Op::And:
        r = s & dv;
        c = r != 0;
        z = r == 0;
        n = r & 0x8000;
        v = false;
        break;
      case Op::Bic:
        r = uint16_t(~s & dv);
        break;
      case Op::Bis:
        r = uint16_t(s | dv);
        break;
      case Op::Xor:
        r = s ^ dv;
        c = r != 0;
        z = r == 0;
        n = r & 0x8000;
        v = (s & 0x8000) && (dv & 0x8000);
        break;
      default:
        haltReason_ = "unsupported format-I op";
        return false;
    }

    if (write) {
        if (in.dst.mode == Mode::Reg) {
            regs_[in.dst.reg] = r;
            // Explicit writes to SR win over ALU flag updates.
            if (in.dst.reg == kSr)
                flags = false;
        } else {
            writeMem(dstAddr, r);
        }
    }
    if (flags)
        writeFlags(c, z, n, v);

    return !halted_;
}

bool
Iss::run(uint64_t max_instrs)
{
    for (uint64_t i = 0; i < max_instrs; ++i)
        if (!step())
            return halted_;
    return halted_;
}

} // namespace isa
} // namespace ulpeak

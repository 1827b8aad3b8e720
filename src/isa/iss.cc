#include "isa/iss.hh"

#include <cstring>
#include <stdexcept>

#include "util/content_hash.hh"

namespace ulpeak {
namespace isa {

using SM = SystemMap;

Iss::Iss()
{
    auto rom = std::make_shared<Rom>();
    rom->fill(0xffff);
    rom_ = std::move(rom);
    // RAM holds nothing known until loaded or written.
    ramTaint_.fill(~uint64_t(0));
}

void
Iss::loadImage(const Image &image)
{
    // A ROM of this Iss's own: copies made before keep theirs.
    auto rom = std::make_shared<Rom>(*rom_);
    rom_ = rom;
    for (auto &[addr, word] : image.flatten()) {
        if (addr >= SM::kRomBase) {
            (*rom)[(addr - SM::kRomBase) / 2] = word;
        } else if (addr >= SM::kRamBase &&
                   addr < SM::kRamBase + SM::kRamSize) {
            ram_[(addr - SM::kRamBase) / 2] = word;
            setRamTaint((addr - SM::kRamBase) / 2, false);
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
    regTaint_ = uint16_t(~((1u << kPc) | (1u << kSr) | (1u << kCg)));
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
        return (*rom_)[(addr - SM::kRomBase) / 2];
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

bool
Iss::ramTainted(uint32_t addr) const
{
    addr &= 0xfffe;
    return addr >= SM::kRamBase && addr < SM::kRamBase + SM::kRamSize &&
           (ramTaint_[(addr - SM::kRamBase) / 128] >>
                (((addr - SM::kRamBase) / 2) % 64) & 1);
}

uint64_t
Iss::maskedStateKey() const
{
    // FNV-1a over 64-bit chunks of four words, each tainted word
    // zeroed, then over the taint masks themselves.
    static constexpr auto kKeep = [] {
        std::array<uint64_t, 16> keep{};
        for (unsigned t = 0; t < 16; ++t)
            for (unsigned k = 0; k < 4; ++k)
                if (!(t >> k & 1))
                    keep[t] |= uint64_t(0xffff) << (16 * k);
        return keep;
    }();
    uint64_t h = util::kFnvOffset;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * util::kFnvPrime; };
    auto chunks = [&](const uint16_t *words, size_t n, auto taintOf) {
        for (size_t w = 0; w < n; w += 4) {
            uint64_t v;
            std::memcpy(&v, words + w, sizeof v);
            mix(v & kKeep[taintOf(w)]);
        }
    };
    chunks(regs_.data(), regs_.size(),
           [this](size_t w) { return (regTaint_ >> w) & 0xf; });
    chunks(ram_.data(), ram_.size(), [this](size_t w) {
        return size_t(ramTaint_[w / 64] >> (w % 64)) & 0xf;
    });
    mix(regTaint_);
    for (uint64_t t : ramTaint_)
        mix(t);
    return h;
}

bool
Iss::memTaint(uint32_t addr) const
{
    addr &= 0xfffe;
    if (addr == SM::kPortIn)
        return portTaint_;
    if (addr == SM::kResLo || addr == SM::kResHi)
        return mpyTaint_;
    return ramTainted(addr);
}

void
Iss::store(uint32_t addr, uint16_t v, bool taint)
{
    addr &= 0xfffe;
    if (writeObs_)
        writeObs_(addr, v);
    if (addr >= SM::kRomBase)
        return; // ROM writes dropped, as in the gate-level backbone
    if (addr >= SM::kRamBase && addr < SM::kRamBase + SM::kRamSize) {
        ram_[(addr - SM::kRamBase) / 2] = v;
        setRamTaint((addr - SM::kRamBase) / 2, taint);
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
        mpyOpTaint_ = taint;
        break;
      case SM::kMpys:
        mpy_ = v;
        mpySigned_ = true;
        mpyOpTaint_ = taint;
        break;
      case SM::kOp2: {
        op2_ = v;
        mpyTaint_ = mpyOpTaint_ || taint;
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
        mpyTaint_ = taint;
        break;
      case SM::kResHi:
        resHi_ = v;
        mpyTaint_ = taint;
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
Iss::readOperand(const Operand &o, uint32_t &addr_out, bool &taint_out)
{
    addr_out = 0;
    taint_out = false;
    switch (o.mode) {
      case Mode::Reg:
        taint_out = regTainted(o.reg);
        return regs_[o.reg];
      case Mode::Const:
      case Mode::Immediate:
        return uint16_t(o.imm);
      case Mode::Absolute:
        addr_out = uint32_t(o.imm) & 0xffff;
        taint_out = memTaint(addr_out);
        return readMem(addr_out);
      case Mode::Indexed:
      case Mode::Symbolic:
        addr_out = uint32_t(regs_[o.reg] + uint16_t(o.imm)) & 0xffff;
        break;
      case Mode::Indirect:
      case Mode::IndirectInc:
        addr_out = regs_[o.reg];
        break;
    }
    // A register-addressed read: a tainted address taints the word.
    taint_out = regTainted(o.reg) || memTaint(addr_out);
    uint16_t v = readMem(addr_out);
    if (o.mode == Mode::IndirectInc)
        regs_[o.reg] = uint16_t(regs_[o.reg] + 2);
    return v;
}

void
Iss::setRegTaint(unsigned r, uint16_t v, bool taint)
{
    regs_[r] = v;
    // A tainted PC is a fork; the run follows the concrete target.
    if (taint && r != kPc)
        regTaint_ |= uint16_t(1u << r);
    else
        regTaint_ &= uint16_t(~(1u << r));
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
    forkTarget_ = -1;
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
        uint16_t next = regs_[kPc];
        uint16_t target =
            uint16_t(instrAddr + 2 + uint16_t(in.jumpOffsetWords) * 2);
        bool taken = jumpTaken(in.op, flagC(), flagZ(), flagN(), flagV());
        if (in.op != Op::Jmp && regTainted(kSr))
            forkTarget_ = taken ? next : target;
        if (taken)
            regs_[kPc] = target;
        return !halted_;
    }

    uint32_t srcAddr = 0;
    bool st = false;
    uint16_t s = readOperand(in.src, srcAddr, st);
    // Taint of a store through a register-addressed operand.
    auto addrTaint = [&](const Operand &o) {
        return o.mode != Mode::Reg && o.mode != Mode::Absolute &&
               regTainted(o.reg);
    };

    if (isFormatII(in.op)) {
        // Flags and the result follow the operand (RRC's also the
        // carry it shifts in).
        bool rt = st || (in.op == Op::Rrc && regTainted(kSr));
        auto writeBack = [&](uint16_t r) {
            if (in.src.mode == Mode::Reg)
                setRegTaint(in.src.reg, r, rt);
            else
                store(srcAddr, r, rt || addrTaint(in.src));
        };
        switch (in.op) {
          case Op::Rrc: {
            uint16_t r = uint16_t((s >> 1) | (flagC() ? 0x8000 : 0));
            writeFlags(s & 1, r == 0, r & 0x8000, false);
            setRegTaint(kSr, regs_[kSr], rt);
            writeBack(r);
            break;
          }
          case Op::Rra: {
            uint16_t r = uint16_t((s >> 1) | (s & 0x8000));
            writeFlags(s & 1, r == 0, r & 0x8000, false);
            setRegTaint(kSr, regs_[kSr], rt);
            writeBack(r);
            break;
          }
          case Op::Swpb:
            writeBack(uint16_t((s << 8) | (s >> 8)));
            break;
          case Op::Sxt: {
            uint16_t r = uint16_t(int16_t(int8_t(s & 0xff)));
            writeFlags(r != 0, r == 0, r & 0x8000, false);
            setRegTaint(kSr, regs_[kSr], rt);
            writeBack(r);
            break;
          }
          case Op::Push: {
            regs_[kSp] = uint16_t(regs_[kSp] - 2);
            store(regs_[kSp], s, st || regTainted(kSp));
            break;
          }
          case Op::Call: {
            regs_[kSp] = uint16_t(regs_[kSp] - 2);
            store(regs_[kSp], regs_[kPc], regTainted(kSp));
            setRegTaint(kPc, s, st);
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
    bool dt = false;
    if (readsDst(in.op)) {
        dv = readOperand(in.dst, dstAddr, dt);
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

    // The result's taint: MOV copies its source's, the ALU ops join
    // both operands' and, with carry in, the flags'.
    bool rt = st || (readsDst(in.op) && dt) ||
              ((in.op == Op::Addc || in.op == Op::Subc) && regTainted(kSr));
    if (write) {
        if (in.dst.mode == Mode::Reg) {
            setRegTaint(in.dst.reg, r, rt);
            // Explicit writes to SR win over ALU flag updates.
            if (in.dst.reg == kSr)
                flags = false;
        } else {
            store(dstAddr, r, rt || addrTaint(in.dst));
        }
    }
    if (flags) {
        writeFlags(c, z, n, v);
        setRegTaint(kSr, regs_[kSr], rt);
    }

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

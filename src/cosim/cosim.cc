#include "cosim/cosim.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "isa/disassembler.hh"

namespace ulpeak {
namespace cosim {

namespace {

using Kind = Divergence::Kind;

std::string
hex4(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%04x", v);
    return buf;
}

const char *
regName(unsigned r)
{
    static const char *names[16] = {"pc", "sp",  "sr",  "r3", "r4",
                                    "r5", "r6",  "r7",  "r8", "r9",
                                    "r10", "r11", "r12", "r13", "r14",
                                    "r15"};
    return names[r];
}

/** Disassembled window over @p image: @p recent instructions, the
 *  divergent one at @p pc (marked), and @p after more. */
std::string
disasmWindow(const isa::Image &image, const std::vector<uint32_t> &recent,
             uint32_t pc, unsigned after)
{
    std::map<uint32_t, uint16_t> words;
    for (auto &[addr, word] : image.flatten())
        words[addr] = word;
    auto fn = [&words](uint32_t a) -> uint16_t {
        auto it = words.find(a & 0xfffeu);
        return it == words.end() ? 0xffff : it->second;
    };
    std::ostringstream os;
    for (uint32_t a : recent) {
        if (a == pc)
            continue; // printed below with the marker
        os << "  " << hex4(a) << ": " << isa::disassemble(a, fn)
           << "\n";
    }
    os << "> " << hex4(pc) << ": " << isa::disassemble(pc, fn) << "\n";
    uint32_t a = pc;
    for (unsigned i = 0; i < after; ++i) {
        isa::Decoded d = isa::decodeAt(a, fn);
        if (!d.valid)
            break;
        a += 2 * d.words;
        if (a >= 0x10000)
            break;
        os << "  " << hex4(a) << ": " << isa::disassemble(a, fn)
           << "\n";
    }
    return os.str();
}

std::string
writeText(const std::vector<MemWrite> &w, size_t i)
{
    return i < w.size() ? "[" + hex4(w[i].addr) + "]=" + hex4(w[i].value)
                        : "(none)";
}

} // namespace

const char *
divergenceKindName(Divergence::Kind k)
{
    switch (k) {
      case Kind::None: return "none";
      case Kind::Pc: return "pc";
      case Kind::Register: return "register";
      case Kind::MemWrite: return "mem-write";
      case Kind::FinalMemory: return "final-memory";
      case Kind::Cycles: return "cycles";
      case Kind::GateX: return "gate-x";
      case Kind::GateTimeout: return "gate-timeout";
      case Kind::IssTrap: return "iss-trap";
      case Kind::Halt: return "halt";
    }
    return "?";
}

std::string
Result::report() const
{
    if (ok)
        return "";
    std::ostringstream os;
    os << "=== cosim divergence ===\n"
       << "kind:        " << divergenceKindName(divergence.kind) << "\n"
       << "first at:    gate cycle " << divergence.cycle
       << ", instruction #" << divergence.instrIndex << ", pc "
       << hex4(divergence.pc) << "\n";
    if (!divergence.detail.empty())
        os << "state diff:\n" << divergence.detail;
    if (!divergence.disasm.empty())
        os << "window:\n" << divergence.disasm;
    os << "retired " << instructionsRetired << " instructions; gate "
       << gateCycles << " cycles, iss " << issCycles << " cycles\n";
    return os.str();
}

Checker::Checker(const isa::Image &iss_image, uint16_t port_in)
    : image_(iss_image)
{
    iss_.loadImage(iss_image);
    iss_.setPortIn(port_in);
    iss_.setWriteObserver([this](uint32_t a, uint16_t v) {
        if (a < isa::SystemMap::kRomBase)
            issWrites_.push_back({a, v});
    });
    iss_.reset();
    curPc_ = iss_.pc();
}

void
Checker::store(V4 wr, Word16 addr, Word16 data)
{
    if (wr == V4::X || !addr.isFullyKnown() || !data.isFullyKnown())
        gateXWrite_ = true;
    else if (addr.value < isa::SystemMap::kRomBase)
        gateWrites_.push_back({addr.value, data.value});
}

bool
Checker::writesMatch() const
{
    return gateWrites_ == issWrites_ && !gateXWrite_;
}

bool
Checker::diverge(Kind kind, uint64_t cycle, uint32_t pc)
{
    div_.kind = kind;
    div_.cycle = cycle;
    div_.instrIndex = retired_;
    div_.pc = pc;
    gateCycles_ = cycle;
    return false;
}

bool
Checker::fetch(uint64_t cycle, const Registers &regs)
{
    // The previous instruction has fully retired: its register writes
    // are in the flops, its stores were committed at the preceding
    // edges.
    gate_ = regs;
    const uint32_t prevPc = curPc_;
    if (!first_) {
        if (!writesMatch())
            return diverge(Kind::MemWrite, cycle, prevPc);
        gateWrites_.clear();
        issWrites_.clear();
    }
    const Word16 pc = regs[0];
    if (!pc.isFullyKnown())
        return diverge(Kind::GateX, cycle, prevPc);
    if (issDone_)
        return diverge(Kind::Halt, cycle, pc.value);
    if (pc.value != iss_.pc())
        return diverge(Kind::Pc, cycle, prevPc);
    for (unsigned r = 1; r < 16; ++r) {
        // An X register is not yet initialized by the prologue.
        if (regs[r].isFullyKnown() && regs[r].value != iss_.reg(r))
            return diverge(Kind::Register, cycle, prevPc);
    }

    // Advance the ISS through the instruction now fetched.
    curPc_ = pc.value;
    recent_[retired_ % recent_.size()] = curPc_;
    ++retired_;
    first_ = false;
    if (!iss_.step()) {
        if (!iss_.halted())
            return diverge(Kind::IssTrap, cycle, curPc_);
        issDone_ = true;
    }
    return true;
}

void
Checker::xStore(uint64_t cycle)
{
    diverge(Kind::GateX, cycle, curPc_);
}

void
Checker::timeout(uint64_t cycle)
{
    diverge(Kind::GateTimeout, cycle, curPc_);
}

bool
Checker::halt(uint64_t cycle, const Memory &gate_ram)
{
    gateCycles_ = cycle;
    if (!writesMatch())
        return diverge(Kind::MemWrite, cycle, curPc_);
    if (!iss_.halted())
        return diverge(Kind::Halt, cycle, curPc_);
    if (cycle != iss_.cycles())
        return diverge(Kind::Cycles, cycle, curPc_);
    // Every word the gate core knows must match the ISS (words neither
    // side touched stay X on the gate side and are skipped).
    for (uint32_t a = gate_ram.ramBase();
         a < gate_ram.ramBase() + gate_ram.ramSize(); a += 2) {
        Word16 w = gate_ram.read(a);
        if (w.isFullyKnown() && w.value != iss_.readMem(a))
            return diverge(Kind::FinalMemory, cycle, curPc_);
    }
    return true;
}

Result
Checker::result() const
{
    Result res;
    res.ok = div_.kind == Kind::None;
    res.instructionsRetired = retired_;
    res.gateCycles = gateCycles_;
    res.issCycles = iss_.cycles();
    res.divergence = div_;
    return res;
}

void
Checker::explain(Divergence &d, const Memory &gate_ram,
                 unsigned disasm_after) const
{
    std::ostringstream os;
    switch (div_.kind) {
      case Kind::None:
        return;
      case Kind::Pc:
        os << "  next pc: gate=" << hex4(gate_[0].value)
           << " iss=" << hex4(iss_.pc()) << "\n";
        break;
      case Kind::Register:
        for (unsigned r = 1; r < 16; ++r)
            if (gate_[r].isFullyKnown() && gate_[r].value != iss_.reg(r))
                os << "  " << regName(r)
                   << ": gate=" << hex4(gate_[r].value)
                   << " iss=" << hex4(iss_.reg(r)) << "\n";
        break;
      case Kind::MemWrite:
        if (gateXWrite_)
            os << "  gate store with unknown address/data/enable\n";
        for (size_t i = 0;
             i < std::max(gateWrites_.size(), issWrites_.size()); ++i) {
            std::string g = writeText(gateWrites_, i);
            std::string s = writeText(issWrites_, i);
            if (g != s)
                os << "  write " << i << ": gate " << g << " iss " << s
                   << "\n";
        }
        break;
      case Kind::FinalMemory:
        for (uint32_t a = gate_ram.ramBase();
             a < gate_ram.ramBase() + gate_ram.ramSize(); a += 2) {
            Word16 w = gate_ram.read(a);
            if (w.isFullyKnown() && w.value != iss_.readMem(a))
                os << "  [" << hex4(a) << "]: gate=" << hex4(w.value)
                   << " iss=" << hex4(iss_.readMem(a)) << "\n";
        }
        break;
      case Kind::Cycles:
        os << "  cycles: gate=" << div_.cycle
           << " iss=" << iss_.cycles() << "\n";
        break;
      case Kind::GateX:
        if (gate_[0].isFullyKnown())
            os << "  store with unknown address or enable\n";
        else
            os << "  pc: gate=" << gate_[0].toString()
               << " (has X bits)\n";
        break;
      case Kind::GateTimeout:
        os << "  gate core still running after " << div_.cycle
           << " cycles\n";
        break;
      case Kind::IssTrap:
        os << "  iss: " << iss_.haltReason() << "\n";
        break;
      case Kind::Halt:
        if (issDone_)
            os << "  iss halted (" << iss_.haltReason()
               << ") but gate core fetched another instruction\n";
        else
            os << "  gate core halted; iss still running (pc "
               << hex4(iss_.pc()) << ")\n";
        break;
    }
    d.detail = os.str();
    std::vector<uint32_t> recent;
    for (uint64_t i = retired_ - std::min<uint64_t>(retired_, 4);
         i < retired_; ++i)
        recent.push_back(recent_[i % recent_.size()]);
    d.disasm = disasmWindow(image_, recent, div_.pc, disasm_after);
}

Result
run(msp::System &sys, const isa::Image &gate_image,
    const isa::Image &iss_image, const Options &opts)
{
    const msp::CpuHandles &h = sys.handles();

    sys.memory().reset();
    sys.loadImage(gate_image);
    sys.clearHalted();

    // Gate-side store stream: observe the memory bus at every clock
    // edge (the same stable values System::memEdge commits).
    Checker check(iss_image, opts.portIn);
    auto onEdge = [&](Simulator &s) {
        check.edge(s.value(h.rstn), s.value(h.mbWr), [&] {
            return std::pair(s.readBus(h.mab), s.readBus(h.mdbOut));
        });
    };

    // Declared after onEdge, which it references, so it never outlives
    // it.
    Simulator sim(sys.netlist(), opts.evalMode);
    sys.attach(sim);
    sim.addEdgeFn(onEdge);

    sys.reset(sim, opts.preCycle);

    std::vector<float> trace;
    for (;;) {
        if (sim.cycle() >= opts.maxCycles) {
            check.timeout(sim.cycle());
            break;
        }
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::known(opts.portIn));
            if (opts.preCycle)
                opts.preCycle(s);
        });
        if (opts.powerCtx)
            trace.push_back(float(opts.powerCtx->cycleBoundPowerW(sim)));
        if (sys.halted()) {
            check.halt(sim.cycle(), sys.memory());
            break;
        }
        if (sys.xStoreFault()) {
            check.xStore(sim.cycle());
            break;
        }
        if (sys.fsmState(sim) != msp::kStFetch)
            continue;
        Registers regs;
        for (unsigned r = 0; r < 16; ++r)
            regs[r] = sys.readReg(sim, r);
        if (!check.fetch(sim.cycle(), regs))
            break;
    }

    Result res = check.result();
    check.explain(res.divergence, sys.memory(), opts.disasmAfter);
    res.powerTraceW = std::move(trace);
    return res;
}

} // namespace cosim
} // namespace ulpeak

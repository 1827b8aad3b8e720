#include "cosim/cosim.hh"

#include <cstdio>
#include <deque>
#include <map>
#include <sstream>

#include "isa/disassembler.hh"

namespace ulpeak {
namespace cosim {

namespace {

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

/** Word-fetch over an assembled image (for the disassembler). */
class ImageFetch {
  public:
    explicit ImageFetch(const isa::Image &image)
    {
        for (auto &[addr, word] : image.flatten())
            words_[addr] = word;
    }

    uint16_t
    operator()(uint32_t addr) const
    {
        auto it = words_.find(addr & 0xfffeu);
        return it == words_.end() ? 0xffff : it->second;
    }

  private:
    std::map<uint32_t, uint16_t> words_;
};

/** Disassembled window: recent instructions, the divergent one
 *  (marked), and a few after it. */
std::string
disasmWindow(const std::deque<uint32_t> &recent, uint32_t pc,
             unsigned after, const ImageFetch &fetch)
{
    std::ostringstream os;
    auto fn = [&fetch](uint32_t a) { return fetch(a); };
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

} // namespace

const char *
divergenceKindName(Divergence::Kind k)
{
    switch (k) {
      case Divergence::Kind::None: return "none";
      case Divergence::Kind::Pc: return "pc";
      case Divergence::Kind::Register: return "register";
      case Divergence::Kind::MemWrite: return "mem-write";
      case Divergence::Kind::FinalMemory: return "final-memory";
      case Divergence::Kind::Cycles: return "cycles";
      case Divergence::Kind::GateX: return "gate-x";
      case Divergence::Kind::GateTimeout: return "gate-timeout";
      case Divergence::Kind::IssTrap: return "iss-trap";
      case Divergence::Kind::Halt: return "halt";
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

Result
run(msp::System &sys, const isa::Image &gate_image,
    const isa::Image &iss_image, const Options &opts)
{
    Result res;
    const msp::CpuHandles &h = sys.handles();
    ImageFetch fetch(iss_image);

    sys.memory().reset();
    sys.loadImage(gate_image);
    sys.clearHalted();

    // Gate-side store stream: observe the memory bus at every clock
    // edge (the same stable values System::memEdge commits).
    std::vector<MemWrite> gateWrites;
    bool gateXWrite = false;
    auto onEdge = [&](Simulator &s) {
        if (s.value(h.rstn) != V4::One)
            return;
        V4 wr = s.value(h.mbWr);
        if (wr == V4::Zero)
            return;
        Word16 addr = s.readBus(h.mab);
        Word16 data = s.readBus(h.mdbOut);
        if (wr == V4::X || !addr.isFullyKnown() ||
            !data.isFullyKnown()) {
            gateXWrite = true;
            return;
        }
        if (addr.value < isa::SystemMap::kRomBase)
            gateWrites.push_back({addr.value, data.value});
    };

    // Declared after onEdge, which it references, so it never outlives
    // it.
    Simulator sim(sys.netlist(), opts.evalMode);
    sys.attach(sim);
    sim.addEdgeFn(onEdge);

    sys.reset(sim, opts.preCycle);

    isa::Iss iss;
    iss.loadImage(iss_image);
    iss.setPortIn(opts.portIn);
    std::vector<MemWrite> issWrites;
    iss.setWriteObserver([&](uint32_t a, uint16_t v) {
        if (a < isa::SystemMap::kRomBase)
            issWrites.push_back({a, uint16_t(v)});
    });
    iss.reset();

    std::deque<uint32_t> recentPcs; // last few instruction addresses
    uint32_t curPc = iss.pc();
    bool first = true;
    bool issDone = false;

    auto diverge = [&](Divergence::Kind kind, uint64_t cycle,
                       uint32_t pc, const std::string &detail) {
        res.divergence.kind = kind;
        res.divergence.cycle = cycle;
        res.divergence.instrIndex = res.instructionsRetired;
        res.divergence.pc = pc;
        res.divergence.detail = detail;
        res.divergence.disasm =
            disasmWindow(recentPcs, pc, opts.disasmAfter, fetch);
        res.gateCycles = sim.cycle();
        res.issCycles = iss.cycles();
    };

    auto compareWrites = [&](uint32_t pc) {
        if (gateWrites == issWrites && !gateXWrite)
            return true;
        std::ostringstream os;
        if (gateXWrite)
            os << "  gate store with unknown address/data/enable\n";
        size_t n = std::max(gateWrites.size(), issWrites.size());
        for (size_t i = 0; i < n; ++i) {
            std::string g = i < gateWrites.size()
                                ? "[" + hex4(gateWrites[i].addr) +
                                      "]=" + hex4(gateWrites[i].value)
                                : "(none)";
            std::string s = i < issWrites.size()
                                ? "[" + hex4(issWrites[i].addr) +
                                      "]=" + hex4(issWrites[i].value)
                                : "(none)";
            if (g != s)
                os << "  write " << i << ": gate " << g << " iss " << s
                   << "\n";
        }
        diverge(Divergence::Kind::MemWrite, sim.cycle(), pc, os.str());
        return false;
    };

    while (sim.cycle() < opts.maxCycles) {
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::known(opts.portIn));
            if (opts.preCycle)
                opts.preCycle(s);
        });
        if (opts.powerCtx)
            res.powerTraceW.push_back(
                float(opts.powerCtx->cycleBoundPowerW(sim)));
        if (sys.halted())
            break;
        if (sys.xStoreFault()) {
            diverge(Divergence::Kind::GateX, sim.cycle(), curPc,
                    "  store with unknown address or enable\n");
            return res;
        }
        if (sys.fsmState(sim) != msp::kStFetch)
            continue;

        // ---- Instruction boundary ----
        // The previous instruction has fully retired: its register
        // writes are in the flops, its stores were committed at the
        // preceding edges.
        uint32_t prevPc = curPc;
        if (!first) {
            if (!compareWrites(prevPc))
                return res;
            gateWrites.clear();
            issWrites.clear();
        }

        Word16 pcw = sys.readPc(sim);
        if (!pcw.isFullyKnown()) {
            diverge(Divergence::Kind::GateX, sim.cycle(), prevPc,
                    "  pc: gate=" + pcw.toString() + " (has X bits)\n");
            return res;
        }
        if (issDone) {
            diverge(Divergence::Kind::Halt, sim.cycle(), pcw.value,
                    "  iss halted (" + iss.haltReason() +
                        ") but gate core fetched another "
                        "instruction\n");
            return res;
        }
        if (pcw.value != iss.pc()) {
            diverge(Divergence::Kind::Pc, sim.cycle(), prevPc,
                    "  next pc: gate=" + hex4(pcw.value) +
                        " iss=" + hex4(iss.pc()) + "\n");
            return res;
        }
        {
            std::ostringstream os;
            for (unsigned r = 1; r < 16; ++r) {
                Word16 w = sys.readReg(sim, r);
                if (!w.isFullyKnown())
                    continue; // not yet initialized by the prologue
                if (w.value != iss.reg(r))
                    os << "  " << regName(r)
                       << ": gate=" << hex4(w.value)
                       << " iss=" << hex4(iss.reg(r)) << "\n";
            }
            std::string diff = os.str();
            if (!diff.empty()) {
                diverge(Divergence::Kind::Register, sim.cycle(),
                        prevPc, diff);
                return res;
            }
        }

        // ---- Advance the ISS through the instruction now fetched ----
        curPc = pcw.value;
        recentPcs.push_back(curPc);
        if (recentPcs.size() > 4)
            recentPcs.pop_front();
        ++res.instructionsRetired;
        first = false;
        if (!iss.step()) {
            if (!iss.halted()) {
                diverge(Divergence::Kind::IssTrap, sim.cycle(), curPc,
                        "  iss: " + iss.haltReason() + "\n");
                return res;
            }
            issDone = true;
        }
    }

    res.gateCycles = sim.cycle();
    res.issCycles = iss.cycles();

    if (!sys.halted()) {
        diverge(Divergence::Kind::GateTimeout, sim.cycle(), curPc,
                "  gate core still running after " +
                    std::to_string(sim.cycle()) + " cycles\n");
        return res;
    }
    if (!compareWrites(curPc))
        return res;
    if (!iss.halted()) {
        diverge(Divergence::Kind::Halt, sim.cycle(), curPc,
                "  gate core halted; iss still running (pc " +
                    hex4(iss.pc()) + ")\n");
        return res;
    }
    if (sim.cycle() != iss.cycles()) {
        diverge(Divergence::Kind::Cycles, sim.cycle(), curPc,
                "  cycles: gate=" + std::to_string(sim.cycle()) +
                    " iss=" + std::to_string(iss.cycles()) + "\n");
        return res;
    }

    // Final RAM sweep: every word the gate core knows must match the
    // ISS (words neither side touched stay X on the gate side and are
    // skipped).
    {
        std::ostringstream os;
        const Memory &mem = sys.memory();
        for (uint32_t a = mem.ramBase();
             a < mem.ramBase() + mem.ramSize(); a += 2) {
            Word16 w = mem.read(a);
            if (!w.isFullyKnown())
                continue;
            uint16_t sv = iss.readMem(a);
            if (w.value != sv)
                os << "  [" << hex4(a) << "]: gate=" << hex4(w.value)
                   << " iss=" << hex4(sv) << "\n";
        }
        std::string diff = os.str();
        if (!diff.empty()) {
            diverge(Divergence::Kind::FinalMemory, sim.cycle(), curPc,
                    diff);
            return res;
        }
    }

    res.ok = true;
    return res;
}

} // namespace cosim
} // namespace ulpeak

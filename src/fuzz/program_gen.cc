#include "fuzz/program_gen.hh"

#include <cstdio>

namespace ulpeak {
namespace fuzz {

namespace {

/*
 * Register roles. The generator partitions the file so random data
 * flow can never corrupt an address or a loop bound:
 *   r4-r10, r14, r15  data (any value, including port-derived X under
 *                     the symbolic engine)
 *   r11               loop counter, written only by loop headers
 *   r12               base of the primary RAM window (0x0300, 16 words)
 *   r13               base of the secondary RAM window (0x0340, 8 words)
 */
constexpr uint32_t kWin1 = 0x0300;
constexpr unsigned kWin1Words = 16;
constexpr uint32_t kWin2 = 0x0340;
constexpr unsigned kWin2Words = 8;

std::string
hex(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%04x", v);
    return buf;
}

class Gen {
  public:
    Gen(Rng &rng, const ProgramGenOptions &opts)
        : rng_(rng), opts_(opts)
    {
    }

    std::string
    body(bool forking)
    {
        if (forking)
            forkPrologue();
        for (unsigned i = 0; i < opts_.instructions; ++i)
            item();
        return out_;
    }

  private:
    void
    emit(const std::string &line)
    {
        out_ += "        " + line + "\n";
    }

    std::string
    dataReg()
    {
        static const char *regs[] = {"r4",  "r5",  "r6",  "r7", "r8",
                                     "r9",  "r10", "r14", "r15"};
        return regs[rng_.below(9)];
    }

    std::string
    win1Off()
    {
        return std::to_string(2 * rng_.below(kWin1Words)) + "(r12)";
    }

    std::string
    win2Off()
    {
        return std::to_string(2 * rng_.below(kWin2Words)) + "(r13)";
    }

    std::string
    absAddr()
    {
        if (rng_.chance(50))
            return "&" + hex(kWin1 + 2 * rng_.below(kWin1Words));
        return "&" + hex(kWin2 + 2 * rng_.below(kWin2Words));
    }

    /** Source operand over all addressing modes (weighted). */
    std::string
    src()
    {
        switch (rng_.pickWeighted({30, 15, 10, 15, 10, 5, 10, 5})) {
          case 0: return dataReg();
          case 1: return "#" + std::to_string(rng_.word());
          case 2: {
            // Constant-generator encodings.
            static const char *cg[] = {"#0", "#1", "#2", "#4", "#8",
                                       "#-1"};
            return cg[rng_.below(6)];
          }
          case 3: return win1Off();
          case 4: return win2Off();
          case 5: return rng_.chance(50) ? "@r12" : "@r13";
          case 6: return absAddr();
          default: return "#" + std::to_string(int16_t(rng_.word()));
        }
    }

    std::string
    dst()
    {
        switch (rng_.pickWeighted({40, 25, 15, 20})) {
          case 0: return dataReg();
          case 1: return win1Off();
          case 2: return win2Off();
          default: return absAddr();
        }
    }

    /** One straight-line instruction (no control flow, no r11-r13). */
    std::string
    simpleInstr()
    {
        static const char *fmt1[] = {"mov", "add", "addc", "sub",
                                     "subc", "cmp", "bit",  "bic",
                                     "bis",  "xor", "and"};
        switch (rng_.pickWeighted({60, 12, 8, 8, 6, 6})) {
          case 0:
            return std::string(fmt1[rng_.below(11)]) + " " + src() +
                   ", " + dst();
          case 1: {
            static const char *fmt2[] = {"rra", "rrc", "swpb", "sxt"};
            std::string op = fmt2[rng_.below(4)];
            // Format II over register or memory operands (both are
            // implemented read-modify-write in the core).
            switch (rng_.pickWeighted({60, 25, 15})) {
              case 0: return op + " " + dataReg();
              case 1: return op + " " + win1Off();
              default: return op + " " + absAddr();
            }
          }
          case 2: {
            static const char *emul[] = {"inc",  "dec", "incd",
                                         "decd", "tst", "clr",
                                         "rla",  "rlc"};
            return std::string(emul[rng_.below(8)]) + " " + dataReg();
          }
          case 3: {
            static const char *sr[] = {"clrc", "setc", "clrz", "setz"};
            return sr[rng_.below(4)];
          }
          case 4:
            if (opts_.allowPortInput)
                return "mov &0x0020, " + dataReg();
            return "mov #" + std::to_string(rng_.word()) + ", " +
                   dataReg();
          default:
            return "mov " + src() + ", &0x0022"; // output port
        }
    }

    /** Multiplier peripheral sequence: load op1/op2, read product. */
    void
    multiplierSeq()
    {
        emit("mov " + src() + ", " +
             (rng_.chance(50) ? std::string("&0x0130")    // unsigned
                              : std::string("&0x0132"))); // signed
        emit("mov " + src() + ", &0x0138");
        emit("mov &0x013a, " + dataReg());
        if (rng_.chance(50))
            emit("mov &0x013c, " + dataReg());
    }

    /** Forward conditional branch over a short block. */
    void
    skipBlock()
    {
        static const char *jmps[] = {"jne", "jeq", "jc", "jnc",
                                     "jn",  "jge", "jl", "jmp"};
        std::string label = "fwd" + std::to_string(labelId_++);
        emit(std::string(jmps[rng_.below(8)]) + " " + label);
        unsigned n = 1 + rng_.below(2);
        for (unsigned i = 0; i < n; ++i)
            emit(simpleInstr());
        out_ += label + ":\n";
    }

    /** A port read feeding one to three branches on its bits, each
     *  over one instruction: X under the symbolic engine, so every
     *  branch whose tested bit is still port-derived forks. They
     *  follow a branch on the port word XORed with itself, zero for
     *  every concrete word but X while any port bit is: the engine
     *  forks into an arm that halts at once and one that runs on
     *  alone, the shape in which an exploration worker's lane batch
     *  narrows back to one path that forks again, while a run with a
     *  fully pinned port goes straight on. It draws nothing from the
     *  stream, and r11 is free until a loop sets it. */
    void
    forkPrologue()
    {
        std::string reg = dataReg();
        emit("mov &0x0020, " + reg);
        std::string cont = "fork" + std::to_string(labelId_++);
        emit("mov " + reg + ", r11");
        emit("xor " + reg + ", r11");
        emit("jz " + cont);
        emit("mov #1, &0x01f0"); // halt
        out_ += cont + ":\n";
        // Outlast the halting arm, so the survivor runs alone before
        // it forks again.
        for (unsigned i = 0; i < 4; ++i)
            emit("nop");
        unsigned n = 1 + rng_.below(3);
        for (unsigned i = 0; i < n; ++i) {
            std::string label = "fork" + std::to_string(labelId_++);
            emit("bit #" + std::to_string(1u << rng_.below(16)) + ", " +
                 reg);
            emit(std::string(rng_.chance(50) ? "jz " : "jnz ") + label);
            emit(simpleInstr());
            out_ += label + ":\n";
        }
    }

    /** Bounded counter loop on the reserved counter register. */
    void
    loopBlock()
    {
        unsigned iters = 1 + rng_.below(opts_.maxLoopIterations);
        std::string label = "loop" + std::to_string(labelId_++);
        emit("mov #" + std::to_string(iters) + ", r11");
        out_ += label + ":\n";
        unsigned n = 1 + rng_.below(3);
        for (unsigned i = 0; i < n; ++i)
            emit(simpleInstr());
        emit("dec r11");
        emit("jnz " + label);
    }

    void
    item()
    {
        unsigned wLoop = opts_.allowLoops ? 8 : 0;
        unsigned wMul = opts_.allowMultiplier ? 6 : 0;
        switch (rng_.pickWeighted({55, 12, wLoop, wMul, 6, 9})) {
          case 0:
            emit(simpleInstr());
            break;
          case 1:
            skipBlock();
            break;
          case 2:
            loopBlock();
            break;
          case 3:
            multiplierSeq();
            break;
          case 4:
            // Balanced stack traffic.
            emit("push " + src());
            emit("pop " + dataReg());
            break;
          default:
            // Post-increment walk, compensated to keep r12 a stable
            // window base for subsequent operands.
            emit("mov @r12+, " + dataReg());
            emit("sub #2, r12");
            break;
        }
    }

    Rng &rng_;
    const ProgramGenOptions &opts_;
    std::string out_;
    unsigned labelId_ = 0;
};

GeneratedProgram
generate(Rng &rng, const ProgramGenOptions &opts, bool forking)
{
    GeneratedProgram p;

    // Deterministic prologue: stack, watchdog hold, concrete SR/CG,
    // seeded data registers, window bases, concrete RAM windows.
    std::string pro;
    pro += "        .org 0xf800\n";
    pro += "start:\n";
    pro += "        mov #0x0a00, sp\n";
    pro += "        mov #0x5a80, &0x0120\n";
    pro += "        mov #0, sr\n";
    pro += "        mov #0, r3\n";
    for (const char *r : {"r4", "r5", "r6", "r7", "r8", "r9", "r10",
                          "r11", "r14", "r15"})
        pro += "        mov #" + std::to_string(rng.word()) + ", " +
               std::string(r) + "\n";
    pro += "        mov #0x0300, r12\n";
    pro += "        mov #0x0340, r13\n";
    for (unsigned i = 0; i < kWin1Words; ++i)
        pro += "        mov #" + std::to_string(rng.word()) + ", " +
               std::to_string(2 * i) + "(r12)\n";
    for (unsigned i = 0; i < kWin2Words; ++i)
        pro += "        mov #" + std::to_string(rng.word()) + ", " +
               std::to_string(2 * i) + "(r13)\n";

    Gen g(rng, opts);
    p.body = g.body(forking);

    std::string epi;
    epi += "        mov #1, &0x01f0\n";
    epi += "__forever:\n";
    epi += "        jmp __forever\n";
    epi += "        .org 0xfffe\n";
    epi += "        .word start\n";

    p.source = pro + p.body + epi;
    return p;
}

} // namespace

GeneratedProgram
generateProgram(Rng &rng, const ProgramGenOptions &opts)
{
    return generate(rng, opts, false);
}

GeneratedProgram
generateForkingProgram(Rng &rng, const ProgramGenOptions &opts)
{
    return generate(rng, opts, true);
}

} // namespace fuzz
} // namespace ulpeak

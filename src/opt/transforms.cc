#include "opt/optimizer.hh"

#include <cctype>
#include <sstream>

namespace ulpeak {
namespace opt {

namespace {

std::string
trim(const std::string &s)
{
    size_t a = s.find_first_not_of(" \t\r\n");
    if (a == std::string::npos)
        return "";
    size_t b = s.find_last_not_of(" \t\r\n");
    return s.substr(a, b - a + 1);
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Strip comment and leading labels; returns "mnemonic rest". */
std::string
codeOf(const std::string &line)
{
    std::string t = line;
    size_t semi = t.find(';');
    if (semi != std::string::npos)
        t = t.substr(0, semi);
    t = trim(t);
    while (true) {
        size_t colon = t.find(':');
        if (colon == std::string::npos)
            break;
        std::string lbl = t.substr(0, colon);
        bool ident = !lbl.empty();
        for (char c : lbl)
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
                ident = false;
        if (!ident)
            break;
        t = trim(t.substr(colon + 1));
    }
    return t;
}

/** Split "mov a, b" into mnemonic and operand strings. */
bool
splitInstr(const std::string &code, std::string &mn, std::string &op1,
           std::string &op2)
{
    size_t sp = code.find_first_of(" \t");
    mn = lower(sp == std::string::npos ? code : code.substr(0, sp));
    op1.clear();
    op2.clear();
    if (sp == std::string::npos)
        return !mn.empty();
    std::string rest = trim(code.substr(sp + 1));
    size_t comma = rest.find(',');
    if (comma == std::string::npos) {
        op1 = trim(rest);
    } else {
        op1 = trim(rest.substr(0, comma));
        op2 = trim(rest.substr(comma + 1));
    }
    return true;
}

bool
isPlainRegister(const std::string &s)
{
    std::string t = lower(s);
    if (t == "sp" || t == "sr" || t == "pc")
        return true;
    if (t.size() < 2 || t[0] != 'r')
        return false;
    for (size_t i = 1; i < t.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(t[i])))
            return false;
    return true;
}

/** Match "off(rN)" with nonzero textual offset; extract parts. */
bool
matchIndexed(const std::string &s, std::string &off, std::string &base)
{
    size_t lp = s.find('(');
    if (lp == std::string::npos || s.empty() || s.back() != ')')
        return false;
    off = trim(s.substr(0, lp));
    base = trim(s.substr(lp + 1, s.size() - lp - 2));
    if (off.empty() || off == "0")
        return false;
    return isPlainRegister(base);
}

bool
writesOp2(const std::string &code)
{
    std::string mn, op1, op2;
    if (!splitInstr(code, mn, op1, op2))
        return false;
    std::string dst = lower(op2);
    return dst == "&0x0138" || dst == "&op2";
}

} // namespace

std::string
applyTransforms(const std::string &source, const TransformConfig &cfg,
                TransformStats *stats)
{
    TransformStats local;
    std::vector<std::string> lines;
    {
        std::istringstream is(source);
        std::string l;
        while (std::getline(is, l))
            lines.push_back(l);
    }

    std::vector<std::string> out;
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        std::string code = codeOf(line);
        std::string mn, op1, op2;
        bool isInstr =
            !code.empty() && code[0] != '.' &&
            splitInstr(code, mn, op1, op2);

        // Keep any label prefix attached to the original line.
        std::string prefix;
        {
            size_t codePos = line.find(code);
            if (!code.empty() && codePos != std::string::npos)
                prefix = line.substr(0, codePos);
        }

        // OPT2: split the data move from the pointer increment. POP
        // (mov @sp+, dst) is the paper's example; the same
        // micro-operation pair exists in every autoincrement load.
        if (cfg.opt2 && isInstr && mn == "pop" &&
            isPlainRegister(op1) && lower(op1) != "sp") {
            out.push_back(prefix + "mov @sp, " + op1 + " ; OPT2");
            out.push_back("        add #2, sp ; OPT2");
            ++local.opt2Applied;
            continue;
        }
        if (cfg.opt2 && isInstr && mn == "mov" && op1.size() > 2 &&
            op1[0] == '@' && op1.back() == '+' &&
            isPlainRegister(op2)) {
            std::string base = op1.substr(1, op1.size() - 2);
            if (isPlainRegister(base) && lower(base) != lower(op2)) {
                out.push_back(prefix + "mov @" + base + ", " + op2 +
                              " ; OPT2");
                out.push_back("        add #2, " + base + " ; OPT2");
                ++local.opt2Applied;
                continue;
            }
        }

        // OPT1: mov off(rN), rM -> compute address into the scratch
        // register, then load register-indirect.
        std::string off, base;
        if (cfg.opt1 && !cfg.scratchReg.empty() && isInstr &&
            mn == "mov" && matchIndexed(op1, off, base) &&
            isPlainRegister(op2) && lower(op2) != lower(base) &&
            lower(op2) != lower(cfg.scratchReg) &&
            lower(base) != lower(cfg.scratchReg)) {
            const std::string &s = cfg.scratchReg;
            out.push_back(prefix + "mov " + base + ", " + s +
                          " ; OPT1");
            out.push_back("        add #" + off + ", " + s + " ; OPT1");
            out.push_back("        mov @" + s + ", " + op2 + " ; OPT1");
            ++local.opt1Applied;
            continue;
        }

        out.push_back(line);

        // OPT3: NOP right after the OP2 write -- the multiplier array
        // switches in the following cycles, so the NOP keeps the core
        // quiet while the peripheral draws its peak (Section 5.1:
        // "adding a NOP between writing to and reading from the
        // multiplier").
        if (cfg.opt3 && isInstr && writesOp2(code)) {
            bool nextIsNop = false;
            for (size_t j = i + 1; j < lines.size(); ++j) {
                std::string nextCode = codeOf(lines[j]);
                if (nextCode.empty())
                    continue;
                std::string nmn, n1, n2;
                splitInstr(nextCode, nmn, n1, n2);
                nextIsNop = nmn == "nop";
                break;
            }
            if (!nextIsNop) {
                out.push_back("        nop ; OPT3");
                ++local.opt3Applied;
            }
        }
    }

    if (stats)
        *stats = local;
    std::string result;
    for (const std::string &l : out)
        result += l + "\n";
    return result;
}

} // namespace opt
} // namespace ulpeak

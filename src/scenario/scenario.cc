#include "scenario/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cell/cell_library.hh"
#include "util/content_hash.hh"

namespace ulpeak {
namespace scenario {

namespace {

/// @name Minimal JSON reader
/// Just enough JSON for scenario files: objects, arrays, strings,
/// integers and bools. No external dependency; errors carry the
/// byte offset so a broken file is debuggable from the message.
/// @{
struct JsonValue {
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string text; ///< String payload
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser {
  public:
    explicit JsonParser(const std::string &s) : s_(s) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters after the JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw std::runtime_error("scenario JSON, offset " +
                                 std::to_string(pos_) + ": " + msg);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 s_[pos_] + "'");
        ++pos_;
    }

    JsonValue
    value()
    {
        char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return number();
        fail("unexpected character");
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            JsonValue key = string();
            // Reject duplicates instead of silently keeping the
            // first: a file saying {"vdd": 1.0, "vdd": 0.6} is a
            // mistake, not a preference.
            for (const auto &[k, existing] : v.members) {
                (void)existing;
                if (k == key.text)
                    fail("duplicate key \"" + key.text +
                         "\" in object");
            }
            expect(':');
            v.members.emplace_back(key.text, value());
            char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue
    string()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::String;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    fail("unterminated escape");
                char e = s_[pos_++];
                switch (e) {
                case '"': v.text += '"'; break;
                case '\\': v.text += '\\'; break;
                case '/': v.text += '/'; break;
                case 'n': v.text += '\n'; break;
                case 't': v.text += '\t'; break;
                case 'r': v.text += '\r'; break;
                default: fail("unsupported escape sequence");
                }
            } else {
                v.text += c;
            }
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("expected true/false");
        }
        return v;
    }

    JsonValue
    number()
    {
        size_t start = pos_;
        if (s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        JsonValue v;
        v.kind = JsonValue::Number;
        v.text = s_.substr(start, pos_ - start);
        try {
            v.number = std::stod(v.text);
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return v;
    }

    const std::string &s_;
    size_t pos_ = 0;
};
/// @}

/** A JSON integer or a "0x.."/decimal string, range-checked. */
uint32_t
asUint(const JsonValue &v, uint32_t max, const char *what)
{
    long long n = 0;
    if (v.kind == JsonValue::Number) {
        // Range-check in double space before the cast: converting an
        // out-of-range double to an integer is undefined behavior.
        if (v.number < -9.3e18 || v.number > 9.3e18)
            throw std::runtime_error(std::string(what) +
                                     ": out of range [0, " +
                                     std::to_string(max) + "]");
        n = (long long)(v.number);
        if (double(n) != v.number)
            throw std::runtime_error(std::string(what) +
                                     ": not an integer");
    } else if (v.kind == JsonValue::String) {
        try {
            n = std::stoll(v.text, nullptr, 0);
        } catch (const std::exception &) {
            throw std::runtime_error(std::string(what) +
                                     ": bad number '" + v.text + "'");
        }
    } else {
        throw std::runtime_error(std::string(what) +
                                 ": expected a number");
    }
    if (n < 0 || (unsigned long long)(n) > max)
        throw std::runtime_error(std::string(what) +
                                 ": out of range [0, " +
                                 std::to_string(max) + "]");
    return uint32_t(n);
}

/** A positive JSON number (integer or scientific) or a numeric
 *  string; rejects zero, negatives, NaN and infinities. */
double
asPositiveDouble(const JsonValue &v, const char *what)
{
    double d = 0.0;
    if (v.kind == JsonValue::Number) {
        d = v.number;
    } else if (v.kind == JsonValue::String) {
        try {
            size_t used = 0;
            d = std::stod(v.text, &used);
            if (used != v.text.size())
                throw std::runtime_error("trailing characters");
        } catch (const std::exception &) {
            throw std::runtime_error(std::string(what) +
                                     ": bad number '" + v.text + "'");
        }
    } else {
        throw std::runtime_error(std::string(what) +
                                 ": expected a number");
    }
    if (!(d > 0.0) || !std::isfinite(d))
        throw std::runtime_error(std::string(what) +
                                 ": must be a positive finite number");
    return d;
}

PortPattern
patternFromJson(const JsonValue &v, const char *what)
{
    if (v.kind == JsonValue::String)
        return PortPattern::parse(v.text);
    if (v.kind == JsonValue::Object) {
        PortPattern p;
        if (const JsonValue *pin = v.find("pinned"))
            p.pinned = uint16_t(asUint(*pin, 0xffff, "pinned"));
        if (const JsonValue *val = v.find("value"))
            p.value = uint16_t(asUint(*val, 0xffff, "value"));
        p.value &= p.pinned; // free bits stay 0 (canonical form)
        return p;
    }
    throw std::runtime_error(
        std::string(what) +
        ": expected a 16-char pattern string or {pinned, value}");
}

} // namespace

std::string
PortPattern::toString() const
{
    std::string s(16, 'x');
    for (unsigned i = 0; i < 16; ++i) {
        uint16_t m = uint16_t(1u << (15 - i));
        if (pinned & m)
            s[i] = (value & m) ? '1' : '0';
    }
    return s;
}

PortPattern
PortPattern::parse(const std::string &s)
{
    if (s.size() != 16)
        throw std::runtime_error(
            "port pattern must be exactly 16 characters (MSB "
            "first), got \"" + s + "\"");
    PortPattern p;
    for (unsigned i = 0; i < 16; ++i) {
        uint16_t m = uint16_t(1u << (15 - i));
        switch (s[i]) {
        case '0':
            p.pinned |= m;
            break;
        case '1':
            p.pinned |= m;
            p.value |= m;
            break;
        case 'x':
        case 'X':
            break;
        default:
            throw std::runtime_error(
                "port pattern characters must be 0, 1 or x, got '" +
                std::string(1, s[i]) + "' in \"" + s + "\"");
        }
    }
    return p;
}

bool
Scenario::isUnconstrained() const
{
    if (!ramInit.empty() || !regInit.empty())
        return false;
    // Operating modes change the numbers (voltage-scaled energies,
    // per-mode clocks) even though they do not shrink the execution
    // set, so a mode-carrying scenario never reports as the classic
    // all-X flow.
    if (hasModes())
        return false;
    if (portSchedule.empty())
        return port.pinned == 0;
    return std::all_of(portSchedule.begin(), portSchedule.end(),
                       [](const PortPattern &p) {
                           return p.pinned == 0;
                       });
}

const PortPattern &
Scenario::patternAt(uint64_t cycle) const
{
    if (portSchedule.empty())
        return port;
    return portSchedule[size_t(cycle % portSchedule.size())];
}

std::vector<double>
Scenario::phaseTclkS() const
{
    std::vector<double> tclk;
    uint64_t period = modePeriod();
    tclk.reserve(size_t(period));
    for (uint64_t ph = 0; ph < period; ++ph)
        tclk.push_back(1.0 / modeAt(ph).freqHz);
    return tclk;
}

std::vector<std::pair<double, double>>
Scenario::phasePricing(const CellLibrary &lib, double freq_hz) const
{
    if (!hasModes())
        return {{1.0, freq_hz}};
    std::vector<std::pair<double, double>> pricing;
    for (uint64_t ph = 0; ph < modePeriod(); ++ph) {
        const OperatingMode &m = modeAt(ph);
        pricing.emplace_back(lib.energyScale(m.vdd), m.freqHz);
    }
    return pricing;
}

void
Scenario::validate() const
{
    for (const auto &[reg, value] : regInit) {
        (void)value;
        if (reg < 4 || reg > 15)
            throw std::runtime_error(
                "scenario '" + name + "': reg_init register r" +
                std::to_string(reg) +
                " is not a general-purpose register (4..15; r0-r3 are "
                "pc/sp/sr/cg)");
    }
    for (const auto &[addr, words] : ramInit) {
        (void)words;
        if (addr & 1) {
            char hex[16];
            std::snprintf(hex, sizeof hex, "0x%04x", unsigned(addr));
            throw std::runtime_error("scenario '" + name +
                                     "': ram_init addr " + hex +
                                     " is not word-aligned");
        }
    }
    if (!modeSchedule.empty() && modes.empty())
        throw std::runtime_error(
            "scenario '" + name +
            "': mode_schedule without any modes");
    for (size_t i = 0; i < modes.size(); ++i) {
        const OperatingMode &m = modes[i];
        if (!(m.vdd > 0.0) || !std::isfinite(m.vdd))
            throw std::runtime_error(
                "scenario '" + name + "': mode '" + m.name +
                "': vdd must be a positive finite voltage");
        if (!(m.freqHz > 0.0) || !std::isfinite(m.freqHz))
            throw std::runtime_error(
                "scenario '" + name + "': mode '" + m.name +
                "': freq_hz must be a positive finite frequency");
        for (size_t j = i + 1; j < modes.size(); ++j)
            if (modes[j].name == m.name)
                throw std::runtime_error(
                    "scenario '" + name + "': duplicate mode name '" +
                    m.name + "'");
    }
    for (uint32_t idx : modeSchedule)
        if (idx >= modes.size())
            throw std::runtime_error(
                "scenario '" + name + "': mode_schedule index " +
                std::to_string(idx) + " out of range (have " +
                std::to_string(modes.size()) + " modes)");
    for (const ModeAssertion &a : assertions) {
        bool known = false;
        for (const OperatingMode &m : modes)
            known = known || m.name == a.mode;
        if (!known)
            throw std::runtime_error(
                "scenario '" + name + "': assertion names unknown "
                "mode '" + a.mode + "'");
        if (!(a.maxPowerW > 0.0) || !std::isfinite(a.maxPowerW))
            throw std::runtime_error(
                "scenario '" + name + "': assertion on mode '" +
                a.mode +
                "': max_power_w must be a positive finite power");
    }
}

void
Scenario::hashInto(uint64_t &h) const
{
    using util::hashDouble;
    using util::hashU64;
    // Content only, never the name: renaming a scenario must keep
    // cache entries valid, and two differently-named identical
    // scenarios must share them.
    hashU64(h, port.pinned);
    hashU64(h, port.value);
    hashU64(h, portSchedule.size());
    for (const PortPattern &p : portSchedule) {
        hashU64(h, p.pinned);
        hashU64(h, p.value);
    }
    hashU64(h, ramInit.size());
    for (const auto &[addr, words] : ramInit) {
        hashU64(h, addr);
        hashU64(h, words.size());
        for (uint16_t w : words)
            hashU64(h, w);
    }
    hashU64(h, regInit.size());
    for (const auto &[reg, value] : regInit) {
        hashU64(h, reg);
        hashU64(h, value);
    }
    // Modes hash by their numeric content (exact double bit
    // patterns) and the schedule by its indices; mode *names* and
    // the assertion list stay out -- assertions are post-processing
    // over the envelope, never inputs to the analysis, so two
    // scenarios differing only in assertions share cache entries.
    hashU64(h, modes.size());
    for (const OperatingMode &m : modes) {
        hashDouble(h, m.vdd);
        hashDouble(h, m.freqHz);
    }
    hashU64(h, modeSchedule.size());
    for (uint32_t idx : modeSchedule)
        hashU64(h, idx);
}

std::string
Scenario::summary() const
{
    if (isUnconstrained())
        return "unconstrained (all-X ports)";
    std::ostringstream os;
    if (portSchedule.empty()) {
        os << "port " << port.toString();
    } else {
        os << "port schedule period " << portSchedule.size() << " ["
           << portSchedule.front().toString() << ", ...]";
    }
    if (!ramInit.empty())
        os << ", " << ramInit.size() << " RAM range"
           << (ramInit.size() > 1 ? "s" : "");
    if (!regInit.empty())
        os << ", " << regInit.size() << " register"
           << (regInit.size() > 1 ? "s" : "");
    if (hasModes()) {
        os << ", " << modes.size() << " mode"
           << (modes.size() > 1 ? "s" : "");
        if (!modeSchedule.empty())
            os << " period " << modeSchedule.size();
    }
    return os.str();
}

const std::vector<std::string> &
Scenario::presetNames()
{
    static const std::vector<std::string> names = {
        "unconstrained",
        "ports-grounded",
        "sensor-4bit",
        "periodic-sensor",
        "duty-cycled-dvfs",
    };
    return names;
}

Scenario
Scenario::preset(const std::string &name)
{
    Scenario s;
    s.name = name;
    if (name == "unconstrained")
        return s;
    if (name == "ports-grounded") {
        // Every peripheral pin strapped low: the tightest
        // environment, bounds driven by the application alone.
        s.port.pinned = 0xffff;
        s.port.value = 0;
        return s;
    }
    if (name == "sensor-4bit") {
        // A 4-bit sensor on the low nibble, everything else
        // grounded -- the paper's "constrained peripheral" shape.
        s.port.pinned = 0xfff0;
        s.port.value = 0;
        return s;
    }
    if (name == "periodic-sensor") {
        // A sampled sensor: the port floats (all X) one cycle in
        // eight and is grounded in between.
        PortPattern sample;                    // all X
        PortPattern grounded{0xffff, 0};
        s.portSchedule.assign(8, grounded);
        s.portSchedule[0] = sample;
        return s;
    }
    if (name == "duty-cycled-dvfs") {
        // The duty-cycled deployment of ROADMAP item 3: two cycles
        // of full-speed burst, six cycles of low-voltage sleep, on
        // an eight-cycle period. Ports stay all-X so the operating
        // modes are the only constraint in play.
        s.modes.push_back({"burst", 1.0, 100e6});
        s.modes.push_back({"sleep", 0.6, 8e6});
        s.modeSchedule = {0, 0, 1, 1, 1, 1, 1, 1};
        return s;
    }
    std::string known;
    for (const std::string &n : presetNames())
        known += (known.empty() ? "" : ", ") + n;
    throw std::runtime_error("unknown scenario '" + name +
                             "' (known presets: " + known +
                             ", or a .json path)");
}

Scenario
Scenario::fromJson(const std::string &text)
{
    JsonValue root = JsonParser(text).parse();
    if (root.kind != JsonValue::Object)
        throw std::runtime_error(
            "scenario JSON: top level must be an object");
    Scenario s;
    s.name = "custom";
    // By-name mode_schedule entries, resolved after the full parse
    // ("" marks an already-numeric entry).
    std::vector<std::string> mode_names;
    for (const auto &[key, v] : root.members) {
        if (key == "name") {
            if (v.kind != JsonValue::String)
                throw std::runtime_error("name: expected a string");
            s.name = v.text;
        } else if (key == "port") {
            s.port = patternFromJson(v, "port");
        } else if (key == "port_schedule") {
            if (v.kind != JsonValue::Array)
                throw std::runtime_error(
                    "port_schedule: expected an array");
            for (const JsonValue &e : v.items)
                s.portSchedule.push_back(
                    patternFromJson(e, "port_schedule entry"));
        } else if (key == "ram_init") {
            if (v.kind != JsonValue::Array)
                throw std::runtime_error("ram_init: expected an array");
            for (const JsonValue &e : v.items) {
                if (e.kind != JsonValue::Object || !e.find("addr") ||
                    !e.find("words"))
                    throw std::runtime_error(
                        "ram_init entries must be {addr, words}");
                uint32_t addr =
                    asUint(*e.find("addr"), 0xffff, "ram_init addr");
                const JsonValue &wv = *e.find("words");
                if (wv.kind != JsonValue::Array || wv.items.empty())
                    throw std::runtime_error(
                        "ram_init words: expected a non-empty array");
                std::vector<uint16_t> words;
                for (const JsonValue &w : wv.items)
                    words.push_back(
                        uint16_t(asUint(w, 0xffff, "ram_init word")));
                s.ramInit.emplace_back(addr, std::move(words));
            }
        } else if (key == "reg_init") {
            if (v.kind != JsonValue::Array)
                throw std::runtime_error("reg_init: expected an array");
            for (const JsonValue &e : v.items) {
                if (e.kind != JsonValue::Object || !e.find("reg") ||
                    !e.find("value"))
                    throw std::runtime_error(
                        "reg_init entries must be {reg, value}");
                uint32_t reg =
                    asUint(*e.find("reg"), 15, "reg_init reg");
                uint32_t val = asUint(*e.find("value"), 0xffff,
                                      "reg_init value");
                s.regInit.emplace_back(reg, uint16_t(val));
            }
        } else if (key == "modes") {
            if (v.kind != JsonValue::Array)
                throw std::runtime_error("modes: expected an array");
            for (const JsonValue &e : v.items) {
                if (e.kind != JsonValue::Object || !e.find("name") ||
                    !e.find("vdd") || !e.find("freq_hz"))
                    throw std::runtime_error(
                        "modes entries must be {name, vdd, freq_hz}");
                const JsonValue &nv = *e.find("name");
                if (nv.kind != JsonValue::String || nv.text.empty())
                    throw std::runtime_error(
                        "modes name: expected a non-empty string");
                OperatingMode m;
                m.name = nv.text;
                m.vdd = asPositiveDouble(*e.find("vdd"), "mode vdd");
                m.freqHz = asPositiveDouble(*e.find("freq_hz"),
                                            "mode freq_hz");
                s.modes.push_back(std::move(m));
            }
        } else if (key == "mode_schedule") {
            if (v.kind != JsonValue::Array || v.items.empty())
                throw std::runtime_error(
                    "mode_schedule: expected a non-empty array");
            for (const JsonValue &e : v.items) {
                if (e.kind == JsonValue::String) {
                    // Resolved against the modes array after the
                    // whole object is read (key order is free).
                    s.modeSchedule.push_back(0xffffffffu);
                    mode_names.push_back(e.text);
                } else {
                    s.modeSchedule.push_back(asUint(
                        e, 0xfffffffe, "mode_schedule index"));
                    mode_names.emplace_back();
                }
            }
        } else if (key == "assert") {
            if (v.kind != JsonValue::Array)
                throw std::runtime_error("assert: expected an array");
            for (const JsonValue &e : v.items) {
                if (e.kind != JsonValue::Object || !e.find("mode") ||
                    !e.find("max_power_w"))
                    throw std::runtime_error(
                        "assert entries must be {mode, max_power_w"
                        "[, settle_cycles]}");
                const JsonValue &mv = *e.find("mode");
                if (mv.kind != JsonValue::String)
                    throw std::runtime_error(
                        "assert mode: expected a mode name string");
                ModeAssertion a;
                a.mode = mv.text;
                a.maxPowerW = asPositiveDouble(*e.find("max_power_w"),
                                               "assert max_power_w");
                if (const JsonValue *sc = e.find("settle_cycles"))
                    a.settleCycles = asUint(*sc, 0xffffffffu,
                                            "assert settle_cycles");
                s.assertions.push_back(std::move(a));
            }
        } else {
            throw std::runtime_error("unknown scenario key '" + key +
                                     "'");
        }
    }
    // Resolve by-name mode_schedule entries now that every mode has
    // been read regardless of key order.
    for (size_t i = 0; i < s.modeSchedule.size(); ++i) {
        if (mode_names[i].empty())
            continue;
        uint32_t idx = 0xffffffffu;
        for (size_t m = 0; m < s.modes.size(); ++m)
            if (s.modes[m].name == mode_names[i])
                idx = uint32_t(m);
        if (idx == 0xffffffffu)
            throw std::runtime_error(
                "mode_schedule: unknown mode name '" + mode_names[i] +
                "'");
        s.modeSchedule[i] = idx;
    }
    s.validate();
    return s;
}

Scenario
Scenario::fromJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read scenario file: " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    try {
        Scenario s = fromJson(ss.str());
        if (s.name == "custom") {
            // Default the name to the file stem for reports.
            size_t slash = path.find_last_of('/');
            std::string base = slash == std::string::npos
                                   ? path
                                   : path.substr(slash + 1);
            size_t dot = base.find_last_of('.');
            s.name = dot == std::string::npos ? base
                                              : base.substr(0, dot);
        }
        return s;
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

Scenario
Scenario::resolve(const std::string &spec)
{
    auto endsWith = [&](const char *suf) {
        size_t n = std::string(suf).size();
        return spec.size() > n &&
               spec.compare(spec.size() - n, n, suf) == 0;
    };
    if (spec.find('/') != std::string::npos || endsWith(".json"))
        return fromJsonFile(spec);
    return preset(spec);
}

} // namespace scenario
} // namespace ulpeak

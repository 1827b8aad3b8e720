#include <algorithm>
#include <cstdio>
#include <sstream>

#include "ulbench.hh"

namespace ulbench {

namespace {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Every digit a double carries: results are compared raw. */
std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

int
Tracer::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.start = secondsBetween(t0_, Clock::now());
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(int(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int id)
{
    spans_[size_t(id)].end = secondsBetween(t0_, Clock::now());
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    double acc = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            acc += s.end - s.start;
    return acc;
}

double
Tracer::median(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : spans_)
        if (s.name == name)
            d.push_back(s.end - s.start);
    return ulbench::median(std::move(d));
}

std::string
Tracer::toJson() const
{
    std::ostringstream o;
    o << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        o << "  {\"id\": " << i << ", \"name\": \"" << jsonEscape(s.name)
          << "\", \"start_s\": " << fmtDouble(s.start)
          << ", \"end_s\": " << fmtDouble(s.end)
          << ", \"parent\": " << s.parent << "}"
          << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    o << "]";
    return o.str();
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
lowerQuartile(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 4];
}

std::string
digestHex(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

double
symSelfSeconds(double run_s_1t, uint64_t cycles, double sim_cycles_per_s)
{
    if (sim_cycles_per_s <= 0.0)
        return run_s_1t;
    return run_s_1t - double(cycles) / sim_cycles_per_s;
}

double
threadSpeedup(double run_s_1t, double run_s_2t)
{
    return run_s_2t > 0.0 ? run_s_1t / run_s_2t : 0.0;
}

double
workerImbalance(const std::vector<uint64_t> &per_worker_cycles)
{
    if (per_worker_cycles.empty())
        return 0.0;
    uint64_t sum = 0, mx = 0;
    for (uint64_t c : per_worker_cycles) {
        sum += c;
        mx = std::max(mx, c);
    }
    if (sum == 0)
        return 0.0;
    double mean = double(sum) / double(per_worker_cycles.size());
    return double(mx) / mean;
}

double
poolEfficiency(const std::vector<double> &row_wall_s, unsigned jobs,
               double batch_wall_s)
{
    if (jobs == 0 || batch_wall_s <= 0.0)
        return 0.0;
    double busy = 0.0;
    for (double w : row_wall_s)
        busy += w;
    return busy / (double(jobs) * batch_wall_s);
}

std::string
metricsJson(const Metrics &m)
{
    std::ostringstream o;
    o << "{";
    bool first = true;
    for (const auto &[name, metric] : m) {
        o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << fmtDouble(metric.value) << ", \"unit\": \"" << metric.unit
          << "\"}";
        first = false;
    }
    o << "}";
    return o.str();
}

std::string
resultJson(uint64_t attempted, uint64_t failed, const Metrics &m)
{
    std::ostringstream o;
    o << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": " << metricsJson(m) << "}";
    return o.str();
}

const char *
compilerId()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace ulbench

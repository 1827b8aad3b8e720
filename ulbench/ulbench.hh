/**
 * @file
 * The end-to-end benchmark of `ulpeak` and `ulfault` (README.md in
 * this directory): four named workloads driven through the same
 * public entry points the command-line tools use, end-to-end metrics
 * measured with tracing off, and a traced run that times calls into
 * each layer from outside and derives the per-layer metrics from
 * those spans.
 */

#ifndef ULBENCH_ULBENCH_HH
#define ULBENCH_ULBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ulbench {

using Clock = std::chrono::steady_clock;

/// @name Tracing
/// @{

/** One timed call into a layer: name, start and end [s since the
 *  tracer was created] and the index of the enclosing span (-1 at
 *  the top). */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/**
 * In-memory span recorder. Spans nest by scope on the calling thread
 * (the benchmark only opens spans from its main thread). A disabled
 * tracer records nothing, so untraced runs pay one branch per call.
 */
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int begin(const std::string &name);
    void end(int id);

    /** Sum of the durations of every span called @p name. */
    double total(const std::string &name) const;
    /** Median duration of the spans called @p name (0 when none). */
    double median(const std::string &name) const;

    /** The spans as a JSON array (one object per line). */
    std::string toJson() const;

  private:
    bool enabled_;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on a Tracer; a no-op when the tracer is disabled. */
class ScopedSpan {
  public:
    ScopedSpan(Tracer &t, const std::string &name)
        : t_(t), id_(t.enabled() ? t.begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (id_ >= 0)
            t_.end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/// @}

/// @name Metrics
/// @{

struct Metric {
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** True when @p name matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * The sample at rank floor(n/4) of @p v sorted ascending (0 for an
 * empty vector): the statistic the end-to-end timings report. On a
 * shared host, neighbours' load only ever adds time, in episodes that
 * last several seconds; the median of a run follows them, while the
 * lower quartile stays with the program's own cost.
 */
double lowerQuartile(std::vector<double> v);

/** 64-bit FNV-1a of @p s as 16 lower-case hex digits. */
std::string digestHex(const std::string &s);

/** sym.self_s: the 1-thread exploration time minus the time the
 *  kernel alone needs for its cycles at @p sim_cycles_per_s. */
double symSelfSeconds(double run_s_1t, uint64_t cycles,
                      double sim_cycles_per_s);
/** sym.thread_speedup: 1-thread over 2-thread exploration time. */
double threadSpeedup(double run_s_1t, double run_s_2t);
/** sym.worker_imbalance: max over mean of the per-worker cycles. */
double workerImbalance(const std::vector<uint64_t> &per_worker_cycles);
/** peak.pool_efficiency: busy row seconds over jobs x batch wall. */
double poolEfficiency(const std::vector<double> &row_wall_s,
                      unsigned jobs, double batch_wall_s);

/** {"name": {"value": v, "unit": u}, ...} with every digit of v. */
std::string metricsJson(const Metrics &m);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(uint64_t attempted, uint64_t failed,
                       const Metrics &m);

/** Compiler name and version, for the host fingerprint. */
const char *compilerId();

/// @}

/// @name Workloads
/// @{

/** Names of the benchmark's workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The fault campaign seed of the pinned digest. */
constexpr uint64_t kDefaultSeed = 1;

struct RunConfig {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Private scratch directory for caches (created and removed by
     *  the run; never the tools' default .ulpeak-cache). */
    std::string scratchDir;
    /** workload -> pinned digest of its deterministic output (a
     *  workload without one fails every pass). */
    std::map<std::string, std::string> pinned;
    /** Write the traced run's spans here ("" = don't). */
    std::string traceOut;
    /** Host fingerprint fields recorded with the spans. */
    std::string gitCommit;
};

struct RunResult {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Metrics metrics;
    /** Digest of the last pass's deterministic output. */
    std::string digest;
    /** Why passes failed, one line per failed pass or probe. */
    std::vector<std::string> failures;
};

/** Read "workload digest" lines; '#' starts a comment. */
std::map<std::string, std::string> readDigests(const std::string &path);

/** Run one workload as configured: set-up, timed passes for
 *  cfg.seconds, output check; with cfg.trace the traced passes and
 *  layer probes that give the per-layer metrics. Throws
 *  std::runtime_error on an unknown workload or a failed set-up. */
RunResult runWorkload(const RunConfig &cfg);

/// @}

} // namespace ulbench

#endif // ULBENCH_ULBENCH_HH

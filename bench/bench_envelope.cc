/**
 * @file
 * Microbenchmark of the peak-envelope subsystem: for a set of
 * bench430 programs, times peak::analyze with and without envelope
 * recording (the envelope adds a post-exploration tree walk, so the
 * interesting number is its overhead on top of exploration), checks
 * envelope/scalar consistency (max of the envelope must equal the
 * scalar peak bound, envelope length must cover the max-energy path)
 * before trusting any timing, and reports the profile-vs-point sizing
 * gap (sustained/window power vs point peak -- the quantity
 * envelope-driven sizing recovers). The overhead is the median (and
 * interquartile range) over alternating rounds of the per-round
 * ratio: best-of timings of these 2-14 ms analyses swing by more
 * than the overhead itself. Drops bench_out/BENCH_envelope.json
 * (the checked-in BENCH_envelope.json at the repository root is a
 * copy).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "peak/peak_analysis.hh"
#include "sizing/sizing.hh"

int
main(int argc, char **argv)
{
    using namespace ulpeak;
    bench_util::parseArgs(argc, argv);
    bench_util::printHeader(
        "peak envelope: overhead vs plain analyze, profile-vs-point "
        "sizing gap");

    msp::System sys(CellLibrary::tsmc65Like());

    const std::vector<std::string> names = {"mult", "tHold", "intAVG",
                                            "binSearch", "tea8"};
    constexpr unsigned kRounds = 9;

    std::printf("%-10s %10s %12s %9s %10s %8s %11s %12s\n", "program",
                "env cycles", "analyze [s]", "+env [s]", "overhead",
                "IQR", "peak [mW]", "sustain [mW]");

    bench_util::JsonReport json("envelope");
    json.field("reps", kRounds).key("programs").beginArray();
    for (const std::string &name : names) {
        isa::Image img =
            bench430::benchmarkByName(name).assembleImage();

        peak::Options plain;
        peak::Options withEnv;
        withEnv.recordEnvelope = true;

        // Warm up netlist/caches once, then time kRounds alternating
        // rounds.
        peak::analyze(sys, img, plain);
        std::vector<double> plainSec, envSec, overheads;
        peak::Report r;
        for (unsigned round = 0; round < kRounds; ++round) {
            peak::Report a;
            bench_util::inOrder(
                round,
                [&] {
                    plainSec.push_back(bench_util::timeOnce(
                        [&] { a = peak::analyze(sys, img, plain); }));
                },
                [&] {
                    envSec.push_back(bench_util::timeOnce(
                        [&] { r = peak::analyze(sys, img, withEnv); }));
                });
            if (!a.ok || !r.ok)
                bench_util::fatal("analysis failed on %s\n",
                                  name.c_str());
            overheads.push_back((envSec.back() / plainSec.back() - 1.0) *
                                100.0);
        }
        double tPlain = bench_util::spreadOf(plainSec).median;
        double tEnv = bench_util::spreadOf(envSec).median;
        bench_util::Spread overhead = bench_util::spreadOf(overheads);

        // Consistency gates before any timing is trusted.
        double envPeak = r.envelope.peakPowerW();
        if (float(envPeak) != float(r.peakPowerW))
            bench_util::fatal("envelope peak %.17g != scalar peak %.17g "
                              "on %s\n",
                              envPeak, r.peakPowerW, name.c_str());
        if (r.envelope.cycles() < r.maxPathCycles)
            bench_util::fatal("envelope (%zu cycles) shorter than the "
                              "max-energy path (%llu) on %s\n",
                              r.envelope.cycles(),
                              (unsigned long long)r.maxPathCycles,
                              name.c_str());

        double tclk = 1.0 / withEnv.freqHz;
        sizing::EnvelopeSupply es = sizing::sizeEnvelopeSupply(
            r.envelope.windows, r.envelope.peakWindowEnergyJ,
            envPeak, tclk, sys.netlist().library().vdd());
        std::printf("%-10s %10zu %12.4f %9.4f %9.1f%% %7.1f%% %10.3f "
                    "%12.3f\n",
                    name.c_str(), r.envelope.cycles(), tPlain,
                    tEnv - tPlain, overhead.median, overhead.iqr,
                    envPeak * 1e3, es.sustainedPowerW * 1e3);

        json.beginObject(cli::Layout::Inline)
            .field("name", name)
            .field("envelope_cycles", r.envelope.cycles())
            .field("analyze_sec", tPlain)
            .field("envelope_extra_sec", tEnv - tPlain)
            .field("overhead_pct", overhead.median)
            .field("overhead_iqr_pct", overhead.iqr)
            .field("peak_power_w", envPeak)
            .field("sustained_power_w", es.sustainedPowerW).end();
    }
    json.end();
    json.write();
    return 0;
}

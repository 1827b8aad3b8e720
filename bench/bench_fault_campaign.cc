/**
 * @file
 * Microbenchmark of the SEU campaign engines: faulted-run
 * injections/sec of fault::runFaultedPacked (64 faulted lockstep runs
 * per PackedSimulator sweep) against the scalar fault::runFaulted
 * path run injection-by-injection, on the bench430 `mult` benchmark
 * with its campaign-style folded input set. Asserts that the timed
 * packed lanes classify bit-identically to the timed scalar runs
 * before trusting the numbers, prints the throughput row, and drops
 * machine-readable results in bench_out/BENCH_fault_campaign.json
 * (the checked-in BENCH_fault_campaign.json at the repository root
 * is a copy).
 *
 * `bench_fault_campaign --min-ratio R` additionally exits 1 if the
 * packed/scalar per-injection throughput ratio falls below R; CI runs
 * it with `--min-ratio 9`.
 */

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench430/benchmarks.hh"
#include "fault/fault.hh"
#include "fuzz/rng.hh"

namespace ulpeak {
namespace {

/** The `mult` image with one deterministic concrete input set folded
 *  in (its inputs live in uninitialized RAM, which would diverge the
 *  golden lockstep) -- the same folding `ulfault` performs. */
isa::Image
multImage(uint16_t &port)
{
    const bench430::Benchmark &b = bench430::benchmarkByName("mult");
    fuzz::Rng rng(fuzz::Rng::deriveStream(7, 3ull << 40));
    baseline::InputSet in = b.makeInput(rng);
    isa::Image image = isa::assemble(b.source);
    for (auto &[addr, words] : in.ram)
        image.segments.push_back({addr, words});
    if (b.usesPort)
        port = in.portIn;
    return image;
}

} // namespace
} // namespace ulpeak

int
main(int argc, char **argv)
{
    using namespace ulpeak;
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    constexpr unsigned kScalarRuns = 8; ///< scalar reference subset
    constexpr unsigned kRounds = 7;     ///< alternating timed rounds

    const bench_util::Args args =
        bench_util::parseArgs(argc, argv, {}, bench_util::kMinRatio);
    bench_util::printHeader("fault campaign: 64-lane packed vs "
                            "scalar faulted injections/sec");

    msp::System sys(CellLibrary::tsmc65Like());
    uint16_t port = 0;
    isa::Image image = multImage(port);
    power::PowerContext ctx(sys.netlist(), bench_util::kFreq65);

    cosim::Options gopts;
    gopts.portIn = port;
    cosim::Result golden = cosim::run(sys, image, gopts);
    if (!golden.ok)
        bench_util::fatal("golden run diverges:\n%s",
                          golden.report().c_str());

    fault::RunOptions ropts;
    ropts.maxCycles = 4 * golden.gateCycles + 64;
    ropts.portIn = port;
    ropts.powerCtx = &ctx;

    // 64 distinct injections: random flop sites, random cycles of the
    // golden execution (the campaign's workload shape).
    std::vector<fault::Site> sites = fault::flopSites(sys.netlist());
    fuzz::Rng rng(7);
    std::array<std::vector<fault::Injection>, kLanes> lanes;
    for (unsigned l = 0; l < kLanes; ++l) {
        fault::Injection inj;
        inj.site = sites[rng.below(unsigned(sites.size()))];
        inj.cycle = rng.below(unsigned(golden.gateCycles));
        lanes[l].push_back(inj);
    }

    // Warmup both paths (page in the netlist, stabilize the clock).
    fault::RunOptions wopts = ropts;
    wopts.maxCycles = golden.gateCycles / 2;
    fault::runFaulted(sys, image, lanes[0], wopts);
    fault::runFaultedPacked(sys, image, lanes, wopts);

    // The first kScalarRuns injections run one faulted lockstep run
    // each, against all 64 in one sweep, in alternating rounds; the
    // timed lanes must classify as the timed scalar runs do (outcome,
    // divergence anatomy, power).
    auto race = bench_util::raceLanes(
        kScalarRuns, kRounds,
        [&](unsigned l) {
            return fault::runFaulted(sys, image, lanes[l], ropts);
        },
        [&] { return fault::runFaultedPacked(sys, image, lanes, ropts); },
        [](const fault::FaultResult &ref,
           const fault::FaultResult &lane) -> std::string {
            if (ref.sameClassification(lane))
                return "";
            return std::string("classifies differently from the scalar "
                               "run of the same injection (") +
                   fault::outcomeName(lane.outcome) + " vs " +
                   fault::outcomeName(ref.outcome) + ")";
        });
    uint64_t scalarCycles = 0, packedCycles = 0;
    for (const fault::FaultResult &r : race.refs)
        scalarCycles += r.gateCycles;
    for (const fault::FaultResult &r : race.lanes)
        packedCycles += r.gateCycles;
    double scalarRate =
        bench_util::perSec(kScalarRuns, race.scalarSec.median);
    double packedRate = bench_util::perSec(kLanes, race.packedSec.median);
    double ratio = scalarRate > 0 ? packedRate / scalarRate : 0.0;

    std::printf("%-16s %10s %16s %16s %9s\n", "workload", "inj",
                "scalar inj/s", "packed inj/s", "ratio");
    std::printf("%-16s %7u/%2u %16.1f %16.1f %8.2fx\n", "mult",
                kScalarRuns, kLanes, scalarRate, packedRate, ratio);

    bench_util::JsonReport json("fault_campaign");
    json.key("workload").beginObject()
        .field("description",
               "bench430 mult with a seed-derived folded input set; one "
               "random flop SEU per run at a random cycle of the " +
                   std::to_string(golden.gateCycles) +
                   "-cycle golden execution, power recording on")
        .field("scalar_reference_injections", kScalarRuns)
        .field("packed_lanes", kLanes).end();
    json.field("methodology",
               "scalar = fault::runFaulted once per injection, "
               "sequentially; packed = one fault::runFaultedPacked sweep "
               "carrying all 64 injections; each arm timed in " +
                   std::to_string(kRounds) +
                   " rounds that alternate which arm runs first, wall_s "
                   "the median and wall_iqr_s the interquartile range; "
                   "injections/sec = faulted lockstep runs / median wall "
                   "seconds; in every round the timed packed lanes are "
                   "checked classification-identical (outcome, divergence "
                   "cycle, instruction index, peak power float) to the "
                   "timed scalar runs before the ratio is reported");
    json.field("rounds", kRounds);
    json.key("scalar").beginObject(cli::Layout::Inline)
        .field("injections", kScalarRuns).field("gate_cycles", scalarCycles)
        .field("wall_s", race.scalarSec.median)
        .field("wall_iqr_s", race.scalarSec.iqr)
        .field("injections_per_sec", scalarRate).end();
    json.key("packed").beginObject(cli::Layout::Inline)
        .field("injections", kLanes).field("gate_cycles", packedCycles)
        .field("wall_s", race.packedSec.median)
        .field("wall_iqr_s", race.packedSec.iqr)
        .field("injections_per_sec", packedRate).end();
    json.field("per_injection_throughput_ratio", ratio);
    json.write();
    bench_util::gate("per-injection throughput ratio", ratio,
                     args.minRatio);
    return 0;
}

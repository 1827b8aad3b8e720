/**
 * @file
 * Microbenchmark of the SEU campaign engines: faulted-run
 * injections/sec of one campaign batch -- fault::runFaultedPacked
 * carrying 64 injections adjacent in the campaign's cycle order,
 * started from the golden checkpoint at its first injection -- against
 * the scalar fault::runFaulted path run injection-by-injection from
 * reset, on the bench430 `mult` benchmark with its campaign-style
 * folded input set. Asserts that the timed packed lanes classify
 * bit-identically to the timed scalar runs before trusting the
 * numbers, prints the throughput row, and drops
 * machine-readable results in bench_out/BENCH_fault_campaign.json
 * (the checked-in BENCH_fault_campaign.json at the repository root
 * is a copy).
 *
 * `bench_fault_campaign --min-ratio R` additionally exits 1 if the
 * packed/scalar per-injection throughput ratio falls below R; CI runs
 * it with `--min-ratio 9`.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench430/benchmarks.hh"
#include "cli/fault_driver.hh"
#include "fault/campaign.hh"
#include "fault/fault.hh"

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
    // `ulfault mult --seed 7`'s image: the inputs, which live in
    // uninitialized RAM, folded in.
    uint16_t port = 0;
    isa::Image image = bench430::benchmarkByName("mult").assembleImage();
    cli::foldBenchmarkInputs("mult", 7, image, port, false);
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

    // One campaign batch: a campaign's task list (every flop site, one
    // seed-derived cycle each) sorted by cycle, and the 64 tasks in
    // the middle of that order; the batch starts from the golden
    // checkpoint at its first injection. A campaign replays the golden
    // run once for all its batches' checkpoints, so the capture is
    // outside the timed arms.
    std::vector<fault::Site> sites = fault::flopSites(sys.netlist());
    std::vector<fault::Injection> tasks;
    for (uint32_t s = 0; s < sites.size(); ++s)
        tasks.push_back({sites[s], fault::siteInjectionCycles(
                                       7, s, 1, golden.gateCycles)[0]});
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const fault::Injection &a, const fault::Injection &b) {
                         return a.cycle < b.cycle;
                     });
    const size_t first = (tasks.size() / kLanes / 2) * kLanes;
    if (first + kLanes > tasks.size())
        bench_util::fatal("%zu flop sites make no full batch",
                          sites.size());
    std::array<std::vector<fault::Injection>, kLanes> lanes;
    for (unsigned l = 0; l < kLanes; ++l)
        lanes[l].push_back(tasks[first + l]);
    const uint64_t startCycle = lanes[0][0].cycle;
    const std::vector<fault::GoldenCheckpoint> checkpoints =
        fault::goldenCheckpoints(sys, image, {startCycle}, ropts);
    const fault::GoldenCheckpoint *start =
        fault::batchStart(checkpoints, startCycle);

    // Warmup both paths (page in the netlist, stabilize the clock).
    fault::RunOptions wopts = ropts;
    wopts.maxCycles = golden.gateCycles / 2;
    fault::runFaulted(sys, image, lanes[0], wopts);
    fault::runFaultedPacked(sys, image, lanes, ropts, start);

    // The first kScalarRuns injections run one faulted lockstep run
    // each, against all 64 in one sweep, in alternating rounds; the
    // timed lanes must classify as the timed scalar runs do (outcome,
    // divergence anatomy, power).
    auto race = bench_util::raceLanes(
        kScalarRuns, kRounds,
        [&](unsigned l) {
            return fault::runFaulted(sys, image, lanes[l], ropts);
        },
        [&] {
            return fault::runFaultedPacked(sys, image, lanes, ropts, start)
                .rows;
        },
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
               "campaign batch: every flop site with one seed-derived "
               "cycle of the " +
                   std::to_string(golden.gateCycles) +
                   "-cycle golden execution, sorted by cycle, and the 64 "
                   "middle tasks, cycles " +
                   std::to_string(startCycle) + "-" +
                   std::to_string(lanes[kLanes - 1][0].cycle) +
                   "; one flop SEU per run, power recording on")
        .field("scalar_reference_injections", kScalarRuns)
        .field("packed_lanes", kLanes).end();
    json.field("methodology",
               "scalar = fault::runFaulted once per injection, "
               "sequentially, each from reset; packed = one "
               "fault::runFaultedPacked sweep carrying all 64 injections "
               "from the golden checkpoint at the batch's first "
               "injection (captured once, untimed, as a campaign "
               "captures it once for all batches); each arm timed in " +
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

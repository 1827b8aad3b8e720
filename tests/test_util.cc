/**
 * @file
 * Tests of the shared infrastructure in src/util that the batch
 * analysis, fault campaigns and ullint build on: the disk cache
 * (file naming, the magic-line check, best-effort atomic stores,
 * stores racing across processes, unusable directories), the
 * program-level worker pool (coverage, inline single worker,
 * fail-fast) and the CPU budget that sizes it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "util/disk_cache.hh"
#include "util/worker_pool.hh"

namespace ulpeak {
namespace {

namespace fs = std::filesystem;

/** RAII temp directory. */
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("ulpeak_util_" + tag + "_" + std::to_string(::getpid())))
    {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

/** A body parser accepting exactly the lines in @p want. */
std::function<bool(std::istream &)>
expectLines(std::vector<std::string> want)
{
    return [want](std::istream &in) {
        std::string line;
        for (const std::string &w : want)
            if (!std::getline(in, line) || line != w)
                return false;
        return !std::getline(in, line);
    };
}

size_t
tempFiles(const fs::path &dir)
{
    size_t n = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        n += e.path().filename().string().find(".tmp.") !=
             std::string::npos;
    return n;
}

// File names are part of the cache format: existing cache directories
// stay warm only while they do not change.
TEST(DiskCache, FileNamesArePrefixKeyHexTxt)
{
    util::DiskCache batch("d", "", "m");
    util::DiskCache fault("d", "fault-", "m");
    EXPECT_EQ(batch.path(0x1234abcdull).filename(),
              "000000001234abcd.txt");
    EXPECT_EQ(fault.path(~0ull).filename(), "fault-ffffffffffffffff.txt");
}

TEST(DiskCache, StoreThenLoadChecksTheMagicLine)
{
    TempDir dir("roundtrip");
    util::DiskCache cache(dir.path.string() + "/nested/cache", "p-",
                          "magic-v2");
    cache.open(); // creates the parents too
    EXPECT_FALSE(cache.load(1, expectLines({})));
    cache.store(1, [](std::ostream &out) { out << "a 1\nb 2\n"; });
    EXPECT_TRUE(cache.load(1, expectLines({"a 1", "b 2"})));
    // The body parser's verdict is the load's.
    EXPECT_FALSE(cache.load(1, expectLines({"a 1"})));

    std::ifstream in(cache.path(1));
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, "magic-v2");

    // The same file under another version's magic line is a miss.
    util::DiskCache older(dir.path.string() + "/nested/cache", "p-",
                          "magic-v1");
    EXPECT_FALSE(older.load(1, expectLines({"a 1", "b 2"})));
    EXPECT_EQ(tempFiles(dir.path / "nested" / "cache"), 0u);
}

TEST(DiskCache, DisabledCacheNeverHitsAndNeverWrites)
{
    util::DiskCache off("", "", "m");
    EXPECT_FALSE(off.enabled());
    off.open();
    off.store(1, [](std::ostream &) { ADD_FAILURE() << "body written"; });
    EXPECT_FALSE(off.load(1, expectLines({})));
}

TEST(DiskCache, StoreIntoAMissingDirectoryIsANoOp)
{
    TempDir dir("missing");
    util::DiskCache cache((dir.path / "never-created").string(), "", "m");
    cache.store(1, [](std::ostream &out) { out << "x\n"; });
    EXPECT_FALSE(fs::exists(dir.path));
}

TEST(DiskCache, OpenReportsAnUnusableDirectory)
{
    TempDir dir("unusable");
    fs::create_directories(dir.path);
    std::string file = (dir.path / "regular-file").string();
    std::ofstream(file) << "x";
    for (const std::string &bad : {file, file + "/sub"}) {
        util::DiskCache cache(bad, "", "m");
        try {
            cache.open();
            ADD_FAILURE() << "open accepted " << bad;
        } catch (const util::DiskCacheError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(bad + ": ", 0), 0u)
                << e.what();
        }
    }
}

// Two processes store one key while their writes overlap: A starts
// writing, B stores the whole entry, then A finishes. Each store must
// own its temp file -- forked processes share thread ids, so a name
// derived from the thread alone would let B truncate and publish A's
// half-written file, and the entry would end up with B's head and A's
// tail. With per-process temp files the entry is A's, complete.
TEST(DiskCache, OverlappingStoresOfTwoProcessesNeverMix)
{
    TempDir dir("overlap");
    util::DiskCache cache(dir.path.string(), "", "m");
    cache.open();
    int aStarted[2], bDone[2];
    ASSERT_EQ(::pipe(aStarted), 0);
    ASSERT_EQ(::pipe(bDone), 0);
    char c = 0;

    pid_t a = ::fork();
    ASSERT_GE(a, 0);
    if (a == 0) {
        cache.store(9, [&](std::ostream &out) {
            out << "writer A\n";
            out.flush();
            bool ok = ::write(aStarted[1], "x", 1) == 1 &&
                      ::read(bDone[0], &c, 1) == 1;
            out << (ok ? "end A\n" : "sync failed\n");
        });
        ::_exit(0);
    }
    pid_t b = ::fork();
    ASSERT_GE(b, 0);
    if (b == 0) {
        bool ok = ::read(aStarted[0], &c, 1) == 1;
        cache.store(9, [](std::ostream &out) { out << "writer B\n"; });
        ok = ok && ::write(bDone[1], "x", 1) == 1;
        ::_exit(ok ? 0 : 1);
    }
    for (pid_t pid : {a, b}) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    for (int fd : {aStarted[0], aStarted[1], bDone[0], bDone[1]})
        ::close(fd);

    EXPECT_TRUE(cache.load(9, expectLines({"writer A", "end A"})))
        << "the entry mixes two writers";
    EXPECT_EQ(tempFiles(dir.path), 0u);
}

// The split of the benchmark workloads' command lines, a single
// program and explicit caps, on hosts of 1, 2, 4 and 64 CPUs.
TEST(CpuBudget, SplitsTheHostBetweenJobsAndThreads)
{
    struct Row {
        const char *what;
        size_t items;
        unsigned jobsCap, threadsCap;
        unsigned cpus;
        unsigned jobs, threads;
    };
    const Row rows[] = {
        // ulpeak all: 14 programs, no caps.
        {"suite-cold", 14, 0, 0, 1, 1, 1},
        {"suite-cold", 14, 0, 0, 2, 2, 1},
        {"suite-cold", 14, 0, 0, 4, 4, 1},
        {"suite-cold", 14, 0, 0, 64, 14, 4},
        // Six forking programs at --threads 2.
        {"fork-parallel", 6, 0, 2, 1, 1, 1},
        {"fork-parallel", 6, 0, 2, 2, 1, 2},
        {"fork-parallel", 6, 0, 2, 4, 2, 2},
        {"fork-parallel", 6, 0, 2, 64, 6, 2},
        // 14 programs x 5 scenarios at --jobs 2.
        {"scenario-matrix", 70, 2, 0, 1, 1, 1},
        {"scenario-matrix", 70, 2, 0, 2, 2, 1},
        {"scenario-matrix", 70, 2, 0, 4, 2, 2},
        {"scenario-matrix", 70, 2, 0, 64, 2, 32},
        // ulfault --jobs 2: injection groups, one thread each.
        {"fault-campaign", 11, 2, 1, 1, 1, 1},
        {"fault-campaign", 11, 2, 1, 2, 2, 1},
        {"fault-campaign", 11, 2, 1, 4, 2, 1},
        {"fault-campaign", 11, 2, 1, 64, 2, 1},
        // One program: every CPU explores it.
        {"single", 1, 0, 0, 1, 1, 1},
        {"single", 1, 0, 0, 2, 1, 2},
        {"single", 1, 0, 0, 4, 1, 4},
        {"single", 1, 0, 0, 64, 1, 64},
        // --jobs 4 --threads 4: threads first claim their share.
        {"jobs4-threads4", 14, 4, 4, 1, 1, 1},
        {"jobs4-threads4", 14, 4, 4, 2, 1, 2},
        {"jobs4-threads4", 14, 4, 4, 4, 1, 4},
        {"jobs4-threads4", 14, 4, 4, 64, 4, 4},
        // Degenerate inputs still give one worker.
        {"no items", 0, 0, 0, 4, 1, 4},
        {"no cpus", 14, 0, 0, 0, 1, 1},
    };
    for (const Row &r : rows) {
        util::CpuBudget b =
            util::cpuBudget(r.items, r.jobsCap, r.threadsCap, r.cpus);
        std::string at = std::string(r.what) + " at " +
                         std::to_string(r.cpus) + " cpus";
        EXPECT_EQ(b.jobs, r.jobs) << at;
        EXPECT_EQ(b.threads, r.threads) << at;
        unsigned caps = (r.jobsCap ? r.jobsCap : 1) *
                        (r.threadsCap ? r.threadsCap : 1);
        EXPECT_LE(b.jobs * b.threads, std::max(r.cpus, caps)) << at;
        EXPECT_LE(b.jobs, std::max<size_t>(r.items, 1)) << at;
    }
    EXPECT_GE(util::hostCpus(), 1u);
}

TEST(WorkerPool, WorkersNeverExceedItemsOrFallBelowOne)
{
    EXPECT_EQ(util::poolWorkers(0, 4), 1u);
    EXPECT_EQ(util::poolWorkers(3, 8), 3u);
    EXPECT_EQ(util::poolWorkers(10, 4), 4u);
    EXPECT_EQ(util::poolWorkers(10, 0), 1u);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 3u, 8u}) {
        std::vector<std::atomic<unsigned>> runs(37);
        std::atomic<unsigned> badWorker{0};
        unsigned workers = util::poolWorkers(runs.size(), jobs);
        util::parallelFor(runs.size(), jobs, [&](unsigned w, size_t i) {
            badWorker += w >= workers;
            ++runs[i];
            return true;
        });
        for (size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 1u) << "index " << i << " jobs " << jobs;
        EXPECT_EQ(badWorker.load(), 0u);
    }
}

TEST(WorkerPool, ClaimOrderIsAStableDescendingPermutation)
{
    EXPECT_TRUE(util::claimOrder({}).empty());
    EXPECT_EQ(util::claimOrder({7}), (std::vector<size_t>{0}));
    // Costliest first; equal costs keep their index order.
    EXPECT_EQ(util::claimOrder({3, 9, 3, 0, 9, 5}),
              (std::vector<size_t>{1, 4, 5, 0, 2, 3}));
    EXPECT_EQ(util::claimOrder({2, 2, 2}),
              (std::vector<size_t>{0, 1, 2}));
}

TEST(WorkerPool, OneWorkerRunsInlineInOrder)
{
    std::vector<size_t> order;
    std::thread::id caller = std::this_thread::get_id();
    util::parallelFor(5, 1, [&](unsigned w, size_t i) {
        EXPECT_EQ(w, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return true;
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, FailFastStopsClaiming)
{
    std::vector<size_t> order;
    util::parallelFor(10, 1, [&](unsigned, size_t i) {
        order.push_back(i);
        return i != 3;
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));

    // With several workers, only indices claimed before the stop run.
    std::atomic<unsigned> ran{0};
    util::parallelFor(1000, 4, [&](unsigned, size_t) {
        ++ran;
        return false;
    });
    EXPECT_GE(ran.load(), 1u);
    EXPECT_LE(ran.load(), 4u);
}

TEST(WorkerPool, AnExceptionStopsThePoolAndReachesTheCaller)
{
    // One worker claims in order and stops at the throw.
    unsigned ran = 0;
    EXPECT_THROW(util::parallelFor(1000, 1,
                                   [&](unsigned, size_t i) {
                                       ++ran;
                                       if (i == 5)
                                           throw std::runtime_error("5");
                                       return true;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(ran, 6u);

    // With several workers, each item throws, so a worker runs at
    // most the one item it claimed before the stop.
    std::atomic<unsigned> ranMany{0};
    EXPECT_THROW(util::parallelFor(1000, 4,
                                   [&](unsigned, size_t) -> bool {
                                       ++ranMany;
                                       throw std::runtime_error("any");
                                   }),
                 std::runtime_error);
    EXPECT_GE(ranMany.load(), 1u);
    EXPECT_LE(ranMany.load(), 4u);
}

} // namespace
} // namespace ulpeak

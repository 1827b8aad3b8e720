/**
 * @file
 * Unit tests for the behavioral three-valued memory (Algorithm 1
 * line 2 semantics: everything not loaded from the binary reads X).
 */

#include <gtest/gtest.h>

#include "sim/memory.hh"

namespace ulpeak {
namespace {

class MemoryTest : public ::testing::Test {
  protected:
    MemoryTest() : mem(0x0200, 0x0800, 0xf000) {}
    Memory mem;
};

TEST_F(MemoryTest, UninitializedRamReadsX)
{
    Word16 w = mem.read(0x0300);
    EXPECT_FALSE(w.isFullyKnown());
    EXPECT_EQ(w.xmask, 0xffff);
}

TEST_F(MemoryTest, WriteReadRoundTrip)
{
    mem.write(0x0300, Word16::known(0xbeef));
    EXPECT_EQ(mem.read(0x0300).value, 0xbeef);
    EXPECT_TRUE(mem.read(0x0300).isFullyKnown());
    // Partial-X words survive verbatim.
    Word16 partial(0x1200, 0x00ff);
    mem.write(0x0302, partial);
    EXPECT_TRUE(mem.read(0x0302) == partial);
}

TEST_F(MemoryTest, WordAlignment)
{
    mem.write(0x0300, Word16::known(0x1111));
    EXPECT_EQ(mem.read(0x0301).value, 0x1111)
        << "bit 0 of the address is ignored";
}

TEST_F(MemoryTest, RomLoadsAndRejectsWrites)
{
    mem.loadRom(0xf000, {0xaaaa, 0xbbbb});
    EXPECT_EQ(mem.read(0xf000).value, 0xaaaa);
    EXPECT_EQ(mem.read(0xf002).value, 0xbbbb);
    mem.write(0xf000, Word16::known(0x1234));
    EXPECT_EQ(mem.read(0xf000).value, 0xaaaa) << "ROM is read-only";
    // Unloaded ROM reads as erased flash.
    EXPECT_EQ(mem.read(0xf004).value, 0xffff);
}

TEST_F(MemoryTest, ResetClearsRamKeepsRom)
{
    mem.loadRom(0xf000, {0x1234});
    mem.write(0x0300, Word16::known(7));
    mem.loadRam(0x0400, {42});
    mem.reset();
    EXPECT_FALSE(mem.read(0x0300).isFullyKnown());
    EXPECT_FALSE(mem.read(0x0400).isFullyKnown());
    EXPECT_EQ(mem.read(0xf000).value, 0x1234);
}

TEST_F(MemoryTest, PoisonMarksInputRegions)
{
    mem.loadRam(0x0380, {1, 2, 3});
    mem.poisonRam(0x0380, 2);
    EXPECT_FALSE(mem.read(0x0380).isFullyKnown());
    EXPECT_FALSE(mem.read(0x0382).isFullyKnown());
    EXPECT_EQ(mem.read(0x0384).value, 3);
}

TEST_F(MemoryTest, SnapshotRestore)
{
    mem.write(0x0300, Word16::known(0x1111));
    Memory::Snapshot snap = mem.snapshot();
    uint64_t h0 = 0xcbf29ce484222325ull;
    mem.hashInto(h0);
    mem.write(0x0300, Word16::known(0x2222));
    uint64_t h1 = 0xcbf29ce484222325ull;
    mem.hashInto(h1);
    EXPECT_NE(h0, h1);
    mem.restore(snap);
    uint64_t h2 = 0xcbf29ce484222325ull;
    mem.hashInto(h2);
    EXPECT_EQ(h0, h2);
    EXPECT_EQ(mem.read(0x0300).value, 0x1111);
}

TEST_F(MemoryTest, SnapshotUnchangedByLaterEdits)
{
    mem.loadRam(0x0300, {0x00f0, 0x1111});
    Memory::Snapshot snap = mem.snapshot();
    mem.write(0x0300, Word16::known(0x2222));
    EXPECT_TRUE(mem.flipBit(0x0302, 0));
    mem.poisonRam(0x0304, 1);

    Memory view(0x0200, 0x0800, 0xf000);
    view.restore(snap);
    EXPECT_EQ(view.read(0x0300).value, 0x00f0);
    EXPECT_EQ(view.read(0x0302).value, 0x1111);
    EXPECT_FALSE(view.read(0x0304).isFullyKnown());
    EXPECT_EQ(mem.read(0x0302).value, 0x1110);
}

TEST_F(MemoryTest, RestoredCopyWritesStayLocal)
{
    mem.loadRam(0x0400, {7});
    Memory copy(0x0200, 0x0800, 0xf000);
    copy.restore(mem.snapshot());
    EXPECT_TRUE(copy.shares(mem, 0x0400));
    copy.write(0x0400, Word16::known(9));
    copy.flipBit(0x0400, 4);
    EXPECT_FALSE(copy.shares(mem, 0x0400));
    EXPECT_EQ(mem.read(0x0400).value, 7);
    EXPECT_EQ(copy.read(0x0400).value, 9 ^ 16);
    // Only the touched page was cloned.
    EXPECT_TRUE(copy.shares(mem, 0x0200));
    EXPECT_TRUE(copy.shares(mem, 0x0400 + 2 * Memory::kPageWords));
}

TEST_F(MemoryTest, CopiesShareRomUntilOneLoadsIt)
{
    mem.loadRom(0xf000, {0xaaaa});
    Memory a = mem, b = mem;
    EXPECT_TRUE(a.shares(mem, 0xf000) && b.shares(mem, 0xf000));
    a.loadRom(0xf000, {0x5555});
    EXPECT_FALSE(a.shares(mem, 0xf000));
    EXPECT_TRUE(b.shares(mem, 0xf000));
    EXPECT_EQ(a.read(0xf000).value, 0x5555);
    EXPECT_EQ(b.read(0xf000).value, 0xaaaa);
    EXPECT_EQ(mem.read(0xf000).value, 0xaaaa);
}

TEST_F(MemoryTest, SameValueWriteClonesNothing)
{
    mem.loadRam(0x0300, {0x1234});
    mem.write(0x0302, Word16(0x0a00, 0x00ff));
    Memory copy = mem;
    copy.write(0x0300, Word16::known(0x1234));
    copy.write(0x0302, Word16(0x0a00, 0x00ff));
    copy.loadRam(0x0300, {0x1234});
    copy.poisonRam(0x0380, 1); // uninitialized RAM is already X
    EXPECT_FALSE(copy.flipBit(0x0380, 2)) << "X bits do not flip";
    EXPECT_TRUE(copy.shares(mem, 0x0300));
    EXPECT_TRUE(copy.shares(mem, 0x0380));
}

TEST_F(MemoryTest, HashIsPinnedAcrossTheRamLayout)
{
    // Dedup keys hash RAM word by word, value then X mask. These
    // literals were taken from the flat-array RAM this paged one
    // replaced: equal keys mean cached and recorded results stay
    // valid.
    uint64_t fresh = 0xcbf29ce484222325ull;
    mem.hashInto(fresh);
    EXPECT_EQ(fresh, 0x3830bfa66e1d3325ull);

    mem.loadRom(0xf000, {0x4031, 0x0a00});
    mem.loadRam(0x0200, {0x1234, 0x5678});
    mem.write(0x0300, Word16(0xbe00, 0x00ff));
    mem.write(0x09fe, Word16::known(0xcafe));
    mem.poisonRam(0x0400, 3);
    mem.flipBit(0x0202, 3);
    uint64_t h = 0xcbf29ce484222325ull;
    mem.hashInto(h);
    EXPECT_EQ(h, 0x4ea1dced35a1ca8aull);
}

TEST_F(MemoryTest, RegionPredicates)
{
    EXPECT_TRUE(mem.inRam(0x0200));
    EXPECT_TRUE(mem.inRam(0x09fe));
    EXPECT_FALSE(mem.inRam(0x0a00));
    EXPECT_FALSE(mem.inRam(0x01ff));
    EXPECT_TRUE(mem.inRom(0xf000));
    EXPECT_TRUE(mem.inRom(0xfffe));
    EXPECT_FALSE(mem.inRom(0xefff));
    // Unmapped space reads all-X (floating bus under analysis).
    EXPECT_FALSE(mem.read(0x2000).isFullyKnown());
}

} // namespace
} // namespace ulpeak

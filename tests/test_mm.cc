/**
 * @file
 * Unit tests for the memory manager: mappings, faults, RSS accounting,
 * madvise, and swap behaviour (the substrate behind Figure 11).
 */

#include <gtest/gtest.h>

#include "osk/devices.hh"
#include "osk/mm.hh"
#include "osk/params.hh"
#include "sim/sim.hh"
#include "support/logging.hh"

namespace genesys::osk
{
namespace
{

class MmTest : public ::testing::Test
{
  protected:
    MmTest() : mm_(sim_.events(), params_, 1ull << 40) {}

    sim::Sim sim_;
    OskParams params_;
    MemoryManager mm_;
};

TEST_F(MmTest, MmapReturnsPageAlignedDisjointRanges)
{
    const Addr a = mm_.mmapAnon(10 * kPageSize);
    const Addr b = mm_.mmapAnon(4 * kPageSize);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_EQ(a % kPageSize, 0u);
    EXPECT_EQ(b % kPageSize, 0u);
    EXPECT_GE(b, a + 10 * kPageSize);
    EXPECT_EQ(mm_.vmaCount(), 2u);
}

TEST_F(MmTest, MmapZeroLengthFails)
{
    EXPECT_EQ(mm_.mmapAnon(0), 0u);
}

TEST_F(MmTest, TouchFaultsInPagesAndGrowsRss)
{
    const Addr a = mm_.mmapAnon(8 * kPageSize);
    EXPECT_EQ(mm_.rssBytes(), 0u);
    mm_.touchUntimed(a, 3 * kPageSize);
    EXPECT_EQ(mm_.rssBytes(), 3 * kPageSize);
    EXPECT_EQ(mm_.stats().minorFaults, 3u);
    // Re-touching present pages is free.
    mm_.touchUntimed(a, 3 * kPageSize);
    EXPECT_EQ(mm_.stats().minorFaults, 3u);
}

TEST_F(MmTest, TouchChargesFaultTime)
{
    const Addr a = mm_.mmapAnon(4 * kPageSize);
    sim_.spawn([](MemoryManager &mm, Addr base) -> sim::Task<> {
        co_await mm.touch(base, 2 * kPageSize);
    }(mm_, a));
    const Tick end = sim_.run();
    EXPECT_EQ(end, 2 * params_.minorFault);
}

TEST_F(MmTest, TouchUnmappedPanics)
{
    EXPECT_THROW(mm_.touchUntimed(0xdead000, kPageSize), PanicError);
}

TEST_F(MmTest, TouchBeyondMappingPanics)
{
    const Addr a = mm_.mmapAnon(2 * kPageSize);
    EXPECT_THROW(mm_.touchUntimed(a, 3 * kPageSize), PanicError);
}

TEST_F(MmTest, MunmapReleasesRss)
{
    const Addr a = mm_.mmapAnon(4 * kPageSize);
    mm_.touchUntimed(a, 4 * kPageSize);
    EXPECT_EQ(mm_.rssBytes(), 4 * kPageSize);
    EXPECT_TRUE(mm_.munmap(a, 4 * kPageSize));
    EXPECT_EQ(mm_.rssBytes(), 0u);
    EXPECT_EQ(mm_.vmaCount(), 0u);
    EXPECT_FALSE(mm_.munmap(a, 4 * kPageSize));
}

TEST_F(MmTest, PartialMunmapPrefixLeavesTail)
{
    const Addr a = mm_.mmapAnon(8 * kPageSize);
    mm_.touchUntimed(a, 8 * kPageSize);
    EXPECT_TRUE(mm_.munmap(a, 3 * kPageSize));
    EXPECT_EQ(mm_.vmaCount(), 1u);
    EXPECT_EQ(mm_.rssBytes(), 5 * kPageSize);
    // The surviving tail still works...
    mm_.touchUntimed(a + 3 * kPageSize, 5 * kPageSize);
    // ...and the unmapped prefix is really gone.
    EXPECT_THROW(mm_.touchUntimed(a, kPageSize), PanicError);
}

TEST_F(MmTest, PartialMunmapSuffixLeavesHead)
{
    const Addr a = mm_.mmapAnon(8 * kPageSize);
    mm_.touchUntimed(a, 8 * kPageSize);
    EXPECT_TRUE(mm_.munmap(a + 6 * kPageSize, 2 * kPageSize));
    EXPECT_EQ(mm_.vmaCount(), 1u);
    EXPECT_EQ(mm_.rssBytes(), 6 * kPageSize);
    mm_.touchUntimed(a, 6 * kPageSize);
    EXPECT_THROW(mm_.touchUntimed(a + 6 * kPageSize, kPageSize),
                 PanicError);
}

TEST_F(MmTest, PartialMunmapMiddleSplitsVmaInTwo)
{
    const Addr a = mm_.mmapAnon(8 * kPageSize);
    mm_.touchUntimed(a, 8 * kPageSize);
    EXPECT_TRUE(mm_.munmap(a + 2 * kPageSize, 3 * kPageSize));
    EXPECT_EQ(mm_.vmaCount(), 2u);
    EXPECT_EQ(mm_.rssBytes(), 5 * kPageSize);
    // Head [0,2) and tail [5,8) both survive with their pages.
    mm_.touchUntimed(a, 2 * kPageSize);
    mm_.touchUntimed(a + 5 * kPageSize, 3 * kPageSize);
    EXPECT_THROW(mm_.touchUntimed(a + 2 * kPageSize, kPageSize),
                 PanicError);
    // No new faults were needed: the surviving pages stayed present.
    EXPECT_EQ(mm_.stats().minorFaults, 8u);
    // The pieces can then be unmapped independently.
    EXPECT_TRUE(mm_.munmap(a, 2 * kPageSize));
    EXPECT_TRUE(mm_.munmap(a + 5 * kPageSize, 3 * kPageSize));
    EXPECT_EQ(mm_.vmaCount(), 0u);
    EXPECT_EQ(mm_.rssBytes(), 0u);
}

TEST_F(MmTest, PartialMunmapInteriorBaseWithZeroLengthDropsTail)
{
    const Addr a = mm_.mmapAnon(6 * kPageSize);
    EXPECT_TRUE(mm_.munmap(a + 4 * kPageSize, 0));
    EXPECT_EQ(mm_.vmaCount(), 1u);
    mm_.touchUntimed(a, 4 * kPageSize);
    EXPECT_THROW(mm_.touchUntimed(a + 4 * kPageSize, kPageSize),
                 PanicError);
}

TEST_F(MmTest, MunmapRejectsMisalignedAndSpillingRanges)
{
    const Addr a = mm_.mmapAnon(4 * kPageSize);
    EXPECT_FALSE(mm_.munmap(a + 512, kPageSize)); // misaligned
    EXPECT_FALSE(mm_.munmap(a + 2 * kPageSize,
                            4 * kPageSize)); // spills past the end
    EXPECT_FALSE(mm_.munmap(0xdead000, kPageSize)); // unmapped
    EXPECT_EQ(mm_.vmaCount(), 1u); // nothing was disturbed
    mm_.touchUntimed(a, 4 * kPageSize);
    EXPECT_EQ(mm_.rssBytes(), 4 * kPageSize);
}

TEST_F(MmTest, MadviseDontneedDropsPages)
{
    const Addr a = mm_.mmapAnon(8 * kPageSize);
    mm_.touchUntimed(a, 8 * kPageSize);
    EXPECT_EQ(mm_.madvise(a, 4 * kPageSize, MADV_DONTNEED_), 0);
    EXPECT_EQ(mm_.rssBytes(), 4 * kPageSize);
    EXPECT_EQ(mm_.lastReleasedPages(), 4u);
    // Released pages fault back in as minor faults (zero-filled).
    mm_.touchUntimed(a, 8 * kPageSize);
    EXPECT_EQ(mm_.rssBytes(), 8 * kPageSize);
}

TEST_F(MmTest, MadviseValidation)
{
    const Addr a = mm_.mmapAnon(4 * kPageSize);
    EXPECT_EQ(mm_.madvise(a, kPageSize, 99), -EINVAL);
    EXPECT_EQ(mm_.madvise(a + 1, kPageSize, MADV_DONTNEED_), -EINVAL);
    EXPECT_EQ(mm_.madvise(0xdead000, kPageSize, MADV_DONTNEED_),
              -EINVAL);
    EXPECT_EQ(mm_.madvise(a, kPageSize, MADV_WILLNEED_), 0);
}

TEST_F(MmTest, PeakRssTracksHighWatermark)
{
    const Addr a = mm_.mmapAnon(8 * kPageSize);
    mm_.touchUntimed(a, 8 * kPageSize);
    mm_.madvise(a, 8 * kPageSize, MADV_DONTNEED_);
    EXPECT_EQ(mm_.rssBytes(), 0u);
    EXPECT_EQ(mm_.peakRssBytes(), 8 * kPageSize);
}

TEST(MmSwap, ExceedingPhysLimitSwapsOut)
{
    sim::Sim sim;
    OskParams params;
    MemoryManager mm(sim.events(), params, 4 * kPageSize);
    const Addr a = mm.mmapAnon(8 * kPageSize);
    mm.touchUntimed(a, 8 * kPageSize);
    // Only 4 pages fit; the rest were pushed to swap.
    EXPECT_EQ(mm.rssBytes(), 4 * kPageSize);
    EXPECT_EQ(mm.swappedBytes(), 4 * kPageSize);
    EXPECT_GE(mm.stats().swapOuts, 4u);
}

TEST(MmSwap, SwappedPagesMajorFaultBack)
{
    sim::Sim sim;
    OskParams params;
    MemoryManager mm(sim.events(), params, 4 * kPageSize);
    const Addr a = mm.mmapAnon(8 * kPageSize);
    mm.touchUntimed(a, 8 * kPageSize); // pages 0-3 swapped out
    const auto majors_before = mm.stats().majorFaults;
    mm.touchUntimed(a, kPageSize); // page 0 comes back from swap
    EXPECT_EQ(mm.stats().majorFaults, majors_before + 1);
    EXPECT_GT(mm.stats().swapStall, 0u);
}

TEST(MmSwap, MadviseBreaksThrashing)
{
    // The Fig 11 story: working set > phys limit thrashes; madvising
    // cold ranges away lets the hot range stay resident.
    sim::Sim sim;
    OskParams params;
    MemoryManager mm(sim.events(), params, 64 * kPageSize);
    const Addr arena = mm.mmapAnon(128 * kPageSize);
    mm.touchUntimed(arena, 128 * kPageSize);
    const auto swap_before = mm.stats().swapOuts;
    EXPECT_GT(swap_before, 0u);
    // Drop the cold half, then iterate over the hot half: no new swaps.
    mm.madvise(arena, 64 * kPageSize, MADV_DONTNEED_);
    const Addr hot = arena + 64 * kPageSize;
    mm.touchUntimed(hot, 64 * kPageSize);
    mm.touchUntimed(hot, 64 * kPageSize);
    EXPECT_EQ(mm.stats().swapOuts, swap_before);
}

TEST(MmDevice, DeviceMappingResolvesToBackingBytes)
{
    sim::Sim sim;
    OskParams params;
    MemoryManager mm(sim.events(), params, 1ull << 30);
    FramebufferDevice fb(8, 8, 32); // 256 bytes
    const Addr a = mm.mmapDevice(&fb);
    ASSERT_NE(a, 0u);
    std::uint8_t *mem = mm.resolve(a, 256);
    ASSERT_NE(mem, nullptr);
    mem[7] = 0x5A;
    EXPECT_EQ(fb.pixels()[7], 0x5A);
    // Device pages are pinned resident.
    EXPECT_EQ(mm.rssBytes(), kPageSize);
    // And madvise cannot drop them.
    EXPECT_EQ(mm.madvise(a, kPageSize, MADV_DONTNEED_), -EINVAL);
}

TEST(MmDevice, DeviceMappingTailOfLastPageIsBacked)
{
    // A 64-byte device maps one whole page; every byte of it must land
    // in device memory, not past the end of the store.
    sim::Sim sim;
    OskParams params;
    MemoryManager mm(sim.events(), params, 1ull << 30);
    FramebufferDevice fb(4, 4, 32);
    const Addr a = mm.mmapDevice(&fb);
    ASSERT_NE(a, 0u);
    std::uint8_t *mem = mm.resolve(a, kPageSize);
    ASSERT_NE(mem, nullptr);
    mem[kPageSize - 1] = 0x3C;
    EXPECT_EQ(mem[kPageSize - 1], 0x3C);
    EXPECT_EQ(fb.size(), 64u);
}

TEST(MmDevice, AnonymousMappingDoesNotResolve)
{
    sim::Sim sim;
    OskParams params;
    MemoryManager mm(sim.events(), params, 1ull << 30);
    const Addr a = mm.mmapAnon(kPageSize);
    EXPECT_EQ(mm.resolve(a, 16), nullptr);
}

} // namespace
} // namespace genesys::osk

#include <gtest/gtest.h>

#include "mem/cache_array.hh"

using namespace asf;

namespace
{
LineData
lineOf(uint64_t v)
{
    return LineData{v, v + 1, v + 2, v + 3};
}
} // namespace

TEST(CacheArray, Geometry)
{
    CacheArray c(32 * 1024, 4);
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.assoc(), 4u);
}

TEST(CacheArray, InstallAndFind)
{
    CacheArray c(1024, 2);
    bool valid;
    CacheLine &slot = c.victimFor(0x1000, valid);
    EXPECT_FALSE(valid);
    c.install(slot, 0x1000, MesiState::Exclusive, lineOf(5));
    CacheLine *l = c.find(0x1000);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, MesiState::Exclusive);
    EXPECT_EQ(l->data[0], 5u);
    EXPECT_EQ(c.find(0x2000), nullptr);
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(4 * 32, 4); // one set of 4 ways
    bool valid;
    for (int i = 0; i < 4; i++) {
        CacheLine &s = c.victimFor(Addr(i) * 32, valid);
        c.install(s, Addr(i) * 32, MesiState::Shared, lineOf(i));
    }
    // Touch line 0 so line 1 becomes LRU.
    c.touch(*c.find(0));
    CacheLine &victim = c.victimFor(0x100, valid);
    EXPECT_TRUE(valid);
    EXPECT_EQ(victim.addr, 32u);
}

TEST(CacheArray, VictimExclusionSkipsPinned)
{
    CacheArray c(4 * 32, 4);
    bool valid;
    for (int i = 0; i < 4; i++) {
        CacheLine &s = c.victimFor(Addr(i) * 32, valid);
        c.install(s, Addr(i) * 32, MesiState::Shared, lineOf(i));
    }
    // Line 0 is LRU but pinned: the next-oldest must be chosen.
    CacheLine &victim =
        c.victimFor(0x100, valid, [](Addr a) { return a == 0; });
    EXPECT_TRUE(valid);
    EXPECT_EQ(victim.addr, 32u);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c(1024, 2);
    bool valid;
    CacheLine &s = c.victimFor(0x40, valid);
    c.install(s, 0x40, MesiState::Modified, lineOf(1));
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_EQ(c.find(0x40), nullptr);
    EXPECT_FALSE(c.invalidate(0x40));
}

TEST(CacheArray, ValidCountTracksContents)
{
    CacheArray c(1024, 2);
    EXPECT_EQ(c.validCount(), 0u);
    bool valid;
    CacheLine &s = c.victimFor(0x40, valid);
    c.install(s, 0x40, MesiState::Shared, lineOf(1));
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, DirtyPredicate)
{
    CacheLine l;
    l.state = MesiState::Modified;
    EXPECT_TRUE(l.dirty());
    l.state = MesiState::Exclusive;
    EXPECT_FALSE(l.dirty());
}

TEST(CacheArray, BadGeometryIsFatal)
{
    EXPECT_EXIT(CacheArray(1000, 3), ::testing::ExitedWithCode(1), ".*");
}

#include <gtest/gtest.h>

#include "mem/cache_array.hh"
#include "mem/l2_bank.hh"
#include "sim/rng.hh"

using namespace asf;

TEST(L2Bank, MissCostsMemoryThenHitsCostBank)
{
    L2Bank l2(0, 128 * 1024, 8, 11, 200);
    EXPECT_EQ(l2.access(0x1000), 200u);
    EXPECT_EQ(l2.access(0x1000), 11u);
    EXPECT_TRUE(l2.contains(0x1000));
    EXPECT_FALSE(l2.contains(0x2000));
}

TEST(L2Bank, StatsCountHitsAndMisses)
{
    L2Bank l2(0, 128 * 1024, 8, 11, 200);
    l2.access(0x1000);
    l2.access(0x1000);
    l2.access(0x2000);
    EXPECT_EQ(l2.stats().get("misses"), 2u);
    EXPECT_EQ(l2.stats().get("hits"), 1u);
}

TEST(L2Bank, CapacityEvictions)
{
    // Tiny bank: 8 lines, 2-way -> 4 sets. Hammer one set.
    L2Bank l2(0, 8 * 32, 2, 11, 200);
    Addr set_stride = 4 * 32;
    l2.access(0x0);
    l2.access(set_stride);
    l2.access(2 * set_stride); // evicts 0x0
    EXPECT_EQ(l2.stats().get("evictions"), 1u);
    EXPECT_FALSE(l2.contains(0x0));
    EXPECT_EQ(l2.access(0x0), 200u); // miss again
}

namespace
{

/** The stamp-LRU reference the MRU rows must match: a CacheArray used
 *  as a tags-only latency filter. */
struct LruReference
{
    CacheArray tags;
    uint64_t misses = 0;
    uint64_t evictions = 0;

    LruReference(unsigned size_bytes, unsigned assoc)
        : tags(size_bytes, assoc)
    {
    }

    Tick
    access(Addr line)
    {
        if (CacheLine *l = tags.find(line)) {
            tags.touch(*l);
            return 11;
        }
        misses++;
        bool victim_valid = false;
        CacheLine &slot = tags.victimFor(line, victim_valid);
        if (victim_valid)
            evictions++;
        tags.install(slot, line, MesiState::Shared, LineData{});
        return 200;
    }
};

} // namespace

TEST(L2Bank, MatchesStampLruOnRandomStreams)
{
    const unsigned sets = 4;
    for (unsigned assoc : {1u, 2u, 8u}) {
        unsigned size_bytes = sets * assoc * lineBytes;
        unsigned capacity = sets * assoc;
        // Pools from just over the capacity to four times it: the
        // small pool keeps some lines hitting, the large one evicts on
        // most accesses.
        for (unsigned pool : {capacity + 1, 2 * capacity, 4 * capacity}) {
            for (uint64_t seed : {1ull, 20151ull}) {
                L2Bank l2(0, size_bytes, assoc, 11, 200);
                LruReference ref(size_bytes, assoc);
                Rng rng(seed * 1000 + pool);
                uint64_t hits = 0;
                for (unsigned n = 0; n < 3000; n++) {
                    Addr line = 0x4000 + rng.range(pool) * lineBytes;
                    Tick expect = ref.access(line);
                    ASSERT_EQ(l2.access(line), expect)
                        << "assoc " << assoc << " pool " << pool
                        << " seed " << seed << " access " << n;
                    hits += expect == 11;
                    ASSERT_EQ(l2.stats().get("misses"), ref.misses);
                    ASSERT_EQ(l2.stats().get("evictions"), ref.evictions);
                    for (unsigned k = 0; k < pool; k++) {
                        Addr probe = 0x4000 + Addr(k) * lineBytes;
                        ASSERT_EQ(l2.contains(probe),
                                  ref.tags.find(probe) != nullptr)
                            << "assoc " << assoc << " pool " << pool
                            << " seed " << seed << " access " << n
                            << " line " << k;
                    }
                }
                // Hits and evictions both happened; at four times the
                // capacity most accesses evict.
                EXPECT_GT(hits, 0u);
                EXPECT_GT(ref.evictions, 0u);
                if (pool == 4 * capacity) {
                    EXPECT_GT(ref.evictions, 1500u);
                }
            }
        }
    }
}

TEST(L2Bank, MisalignedLineAddressPanics)
{
    L2Bank l2(0, 8 * 32, 2, 11, 200);
    EXPECT_DEATH(l2.access(0x1008), "unaligned");
    // The empty-way tag is not line-aligned either: it must never hit.
    EXPECT_DEATH(l2.access(~Addr(0)), "unaligned");
    EXPECT_FALSE(l2.contains(~Addr(0)));
}

TEST(L2Bank, BadGeometryIsFatal)
{
    // Zero capacity, zero associativity, a size that does not split
    // into whole sets, a set count that is not a power of two, and one
    // with no set at all.
    EXPECT_EXIT(L2Bank(0, 0, 8, 11, 200), ::testing::ExitedWithCode(1),
                "zero capacity");
    EXPECT_EXIT(L2Bank(0, 1024, 0, 11, 200), ::testing::ExitedWithCode(1),
                "zero capacity");
    EXPECT_EXIT(L2Bank(0, 1000, 3, 11, 200), ::testing::ExitedWithCode(1),
                "not divisible");
    EXPECT_EXIT(L2Bank(0, 6 * 32, 2, 11, 200), ::testing::ExitedWithCode(1),
                "not a power of two");
    EXPECT_EXIT(L2Bank(0, 16, 1, 11, 200), ::testing::ExitedWithCode(1),
                "not a power of two");
}

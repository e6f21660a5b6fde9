/**
 * LineTable tests: the open-addressing cases that a library map never
 * had to get right (line 0 as a key, chains that wrap past the last
 * slot, backward-shift erase, growth), plus a randomized differential
 * run against std::map.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/line_table.hh"
#include "mem/message.hh"
#include "sim/rng.hh"

using namespace asf;

namespace
{

/** The first `n` line addresses whose probe starts at `slot`. */
std::vector<Addr>
linesHomedAt(const LineTable<uint64_t> &t, size_t slot, size_t n)
{
    std::vector<Addr> out;
    for (Addr a = 0; out.size() < n; a += lineBytes)
        if (t.homeSlot(a) == slot)
            out.push_back(a);
    return out;
}

/** The value stored under `line`, or ~0 when the table lost the line. */
uint64_t
valueOf(const LineTable<uint64_t> &t, Addr line)
{
    const uint64_t *v = t.find(line);
    return v ? *v : ~uint64_t(0);
}

} // namespace

TEST(LineTable, LineZeroIsAKey)
{
    LineTable<uint64_t> t;
    EXPECT_EQ(t.find(0), nullptr);
    t[0] = 7;
    EXPECT_EQ(valueOf(t, 0), 7u);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.erase(0));
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.size(), 0u);
}

TEST(LineTable, ProbeChainWrapsPastLastSlot)
{
    LineTable<uint64_t> t;
    size_t last = t.capacity() - 1;
    // Three lines homed at the last slot fill it and wrap to slots 0
    // and 1; a line homed at slot 0 lands behind them, at slot 2.
    std::vector<Addr> wrap = linesHomedAt(t, last, 3);
    Addr at0 = linesHomedAt(t, 0, 1)[0];
    for (size_t i = 0; i < wrap.size(); i++)
        t[wrap[i]] = i + 1;
    t[at0] = 100;
    size_t cap = t.capacity();
    for (size_t i = 0; i < wrap.size(); i++)
        EXPECT_EQ(valueOf(t, wrap[i]), i + 1);
    // Erasing the chain head shifts the wrapped entries back across
    // the end of the array, and the slot-0 line back towards its home.
    EXPECT_TRUE(t.erase(wrap[0]));
    EXPECT_EQ(t.find(wrap[0]), nullptr);
    EXPECT_EQ(valueOf(t, wrap[1]), 2u);
    EXPECT_EQ(valueOf(t, wrap[2]), 3u);
    EXPECT_EQ(valueOf(t, at0), 100u);
    EXPECT_EQ(t.capacity(), cap) << "the chain must not have grown";
}

TEST(LineTable, EraseMidChainKeepsEveryOtherKey)
{
    LineTable<uint64_t> t;
    std::vector<Addr> chain = linesHomedAt(t, 5, 4);
    Addr next = linesHomedAt(t, 6, 1)[0];
    for (size_t i = 0; i < chain.size(); i++)
        t[chain[i]] = i;
    t[next] = 99;
    EXPECT_TRUE(t.erase(chain[1]));
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.find(chain[1]), nullptr);
    for (size_t i : {0, 2, 3})
        EXPECT_EQ(valueOf(t, chain[i]), i) << i;
    EXPECT_EQ(valueOf(t, next), 99u);
    // Re-inserting the erased key must not duplicate a live one.
    t[chain[1]] = 11;
    EXPECT_EQ(t.size(), 5u);
    EXPECT_EQ(valueOf(t, chain[1]), 11u);
    EXPECT_EQ(valueOf(t, chain[3]), 3u);
}

TEST(LineTable, EraseOfAbsentKeyChangesNothing)
{
    LineTable<uint64_t> t;
    EXPECT_FALSE(t.erase(0x40));
    std::vector<Addr> same = linesHomedAt(t, 3, 2);
    t[same[0]] = 1;
    // Absent, but its probe walks the live entry's chain.
    EXPECT_FALSE(t.erase(same[1]));
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(valueOf(t, same[0]), 1u);
}

TEST(LineTable, GrowsWhileEntriesAreLive)
{
    LineTable<uint64_t> t;
    size_t start = t.capacity();
    constexpr unsigned n = 1000;
    for (unsigned i = 0; i < n; i++) {
        t[Addr(i) * lineBytes] = i;
        // Every earlier entry survives each doubling.
        if ((i & (i + 1)) == 0) {
            for (unsigned j = 0; j <= i; j++)
                ASSERT_EQ(valueOf(t, Addr(j) * lineBytes), j)
                    << j << " after " << i;
        }
    }
    EXPECT_EQ(t.size(), n);
    EXPECT_LE(4 * t.size(), 3 * t.capacity()) << "load above 3/4";
    EXPECT_GT(t.capacity(), start);
    for (unsigned i = 0; i < n; i += 3)
        EXPECT_TRUE(t.erase(Addr(i) * lineBytes));
    for (unsigned i = 0; i < n; i++) {
        const uint64_t *v = t.find(Addr(i) * lineBytes);
        if (i % 3 == 0) {
            EXPECT_EQ(v, nullptr) << i;
        } else {
            EXPECT_TRUE(v && *v == i) << i;
        }
    }
}

TEST(LineTable, MatchesStdMapUnderRandomChurn)
{
    LineTable<uint64_t> t;
    std::map<Addr, uint64_t> ref;
    Rng rng(20151);
    // A key space a few times the live set keeps chains long and makes
    // erases land mid-chain.
    for (unsigned op = 0; op < 50'000; op++) {
        Addr line = rng.range(512) * lineBytes;
        switch (rng.range(3)) {
          case 0:
            t[line] = op;
            ref[line] = op;
            break;
          case 1:
            EXPECT_EQ(t.erase(line), ref.erase(line) != 0);
            break;
          default: {
            const uint64_t *v = t.find(line);
            auto it = ref.find(line);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op;
            if (v) {
                EXPECT_EQ(*v, it->second);
            }
          }
        }
        ASSERT_EQ(t.size(), ref.size());
    }
    for (const auto &[line, v] : ref)
        EXPECT_EQ(valueOf(t, line), v) << line;
}

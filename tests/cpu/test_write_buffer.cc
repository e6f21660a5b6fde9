#include <gtest/gtest.h>

#include "cpu/write_buffer.hh"

using namespace asf;

TEST(WriteBuffer, FifoOrder)
{
    WriteBuffer wb(4);
    uint64_t s1 = wb.push(0x1000, 1);
    uint64_t s2 = wb.push(0x2000, 2);
    EXPECT_LT(s1, s2);
    EXPECT_EQ(wb.front().addr, 0x1000u);
    wb.popFront();
    EXPECT_EQ(wb.front().addr, 0x2000u);
}

TEST(WriteBuffer, CapacityTracking)
{
    WriteBuffer wb(2);
    EXPECT_FALSE(wb.full());
    wb.push(0x1000, 1);
    wb.push(0x2000, 2);
    EXPECT_TRUE(wb.full());
    EXPECT_DEATH(wb.push(0x3000, 3), "overflow");
}

TEST(WriteBuffer, ForwardingFindsYoungestMatch)
{
    WriteBuffer wb(8);
    wb.push(0x1000, 1);
    wb.push(0x1000, 2);
    wb.push(0x2000, 3);
    const auto *e = wb.forwardLookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->value, 2u);
    EXPECT_EQ(wb.forwardLookup(0x3000), nullptr);
}

TEST(WriteBuffer, DrainedUpTo)
{
    WriteBuffer wb(8);
    uint64_t s1 = wb.push(0x1000, 1);
    uint64_t s2 = wb.push(0x2000, 2);
    EXPECT_FALSE(wb.drainedUpTo(s1));
    wb.popFront();
    EXPECT_TRUE(wb.drainedUpTo(s1));
    EXPECT_FALSE(wb.drainedUpTo(s2));
    wb.popFront();
    EXPECT_TRUE(wb.drainedUpTo(s2));
}

TEST(WriteBuffer, DropYoungerThanForRecovery)
{
    WriteBuffer wb(8);
    uint64_t s1 = wb.push(0x1000, 1);
    wb.push(0x2000, 2);
    wb.push(0x3000, 3);
    wb.dropYoungerThan(s1);
    EXPECT_EQ(wb.size(), 1u);
    EXPECT_EQ(wb.front().addr, 0x1000u);
}

TEST(WriteBuffer, DrainedUpToBoundaries)
{
    WriteBuffer wb(8);
    // Empty buffer: everything (including seq 0, "no store") is drained.
    EXPECT_TRUE(wb.drainedUpTo(0));
    EXPECT_TRUE(wb.drainedUpTo(100));

    uint64_t s1 = wb.push(0x1000, 1);
    // seq == upto is the exact boundary: s1 itself must still drain,
    // while everything strictly older already has.
    EXPECT_FALSE(wb.drainedUpTo(s1));
    EXPECT_TRUE(wb.drainedUpTo(s1 - 1));
    wb.popFront();
    EXPECT_TRUE(wb.drainedUpTo(s1));
}

TEST(WriteBuffer, DropYoungerThanBoundaries)
{
    WriteBuffer wb(8);
    // Empty buffer: nothing to squash.
    EXPECT_EQ(wb.dropYoungerThan(0), 0u);

    uint64_t s1 = wb.push(0x1000, 1);
    uint64_t s2 = wb.push(0x2000, 2);
    wb.push(0x3000, 3);
    // upto == s2 keeps s2 itself (seq <= upto survives).
    EXPECT_EQ(wb.dropYoungerThan(s2), 1u);
    EXPECT_EQ(wb.size(), 2u);
    // Idempotent at the same bound.
    EXPECT_EQ(wb.dropYoungerThan(s2), 0u);
    // upto == 0 squashes everything.
    EXPECT_EQ(wb.dropYoungerThan(0), 2u);
    EXPECT_TRUE(wb.empty());
    EXPECT_TRUE(wb.drainedUpTo(s1));

    // An issued store is never squashed: its write transaction is in
    // flight (Core::done() relies on this).
    wb.push(0x4000, 4);
    wb.nextIssuable(true)->issued = true;
    EXPECT_DEATH(wb.dropYoungerThan(0), "in-flight store");
}

TEST(WriteBuffer, PendingLinesBoundaries)
{
    WriteBuffer wb(8);
    EXPECT_TRUE(wb.pendingLines(100).empty());

    uint64_t s1 = wb.push(0x1000, 1);
    wb.push(0x2000, 2);
    // upto == s1: only the first store's line; the bound is inclusive.
    auto lines = wb.pendingLines(s1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u);
    // upto below every seq: nothing pending.
    EXPECT_TRUE(wb.pendingLines(s1 - 1).empty());
}

TEST(WriteBuffer, OccupancyCounters)
{
    WriteBuffer wb(4);
    EXPECT_EQ(wb.totalPushes(), 0u);
    EXPECT_EQ(wb.highWater(), 0u);

    uint64_t s1 = wb.push(0x1000, 1);
    wb.push(0x2000, 2);
    wb.push(0x3000, 3);
    EXPECT_EQ(wb.totalPushes(), 3u);
    EXPECT_EQ(wb.highWater(), 3u);

    EXPECT_EQ(wb.dropYoungerThan(s1), 2u);
    EXPECT_EQ(wb.totalDropped(), 2u);
    EXPECT_EQ(wb.highWater(), 3u); // high-water survives the squash

    wb.resetCounters();
    EXPECT_EQ(wb.totalPushes(), 0u);
    EXPECT_EQ(wb.totalDropped(), 0u);
    EXPECT_EQ(wb.highWater(), 1u); // resets to the current occupancy
}

TEST(WriteBuffer, PendingLinesDeduplicates)
{
    WriteBuffer wb(8);
    wb.push(0x1000, 1);
    wb.push(0x1008, 2); // same line
    uint64_t s3 = wb.push(0x2000, 3);
    wb.push(0x3000, 4); // younger than s3
    auto lines = wb.pendingLines(s3);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0x1000u);
    EXPECT_EQ(lines[1], 0x2000u);
}

TEST(WriteBuffer, EmptyAccessorsDie)
{
    WriteBuffer wb(2);
    EXPECT_DEATH(wb.front(), "empty");
    EXPECT_DEATH(wb.popFront(), "empty");
}

namespace
{

/** Issue `e` and let a directory bounce it; returns its retry count. */
unsigned
issueAndNack(WriteBuffer &wb, WriteBuffer::Entry &e)
{
    e.issued = true;
    return wb.nack(e);
}

} // namespace

TEST(WriteBuffer, NackedCountRisesOncePerEntry)
{
    WriteBuffer wb(8);
    wb.push(0x1000, 1);
    wb.push(0x2000, 2);
    WriteBuffer::Entry &head = *wb.nextIssuable(true);
    EXPECT_EQ(wb.nackedCount(), 0u);
    EXPECT_EQ(issueAndNack(wb, head), 1u);
    EXPECT_FALSE(head.issued);
    EXPECT_TRUE(head.nacked);
    EXPECT_EQ(wb.nackedCount(), 1u);
    // Bouncing the same store again counts a retry, not another store.
    EXPECT_EQ(issueAndNack(wb, head), 2u);
    EXPECT_EQ(issueAndNack(wb, head), 3u);
    EXPECT_EQ(wb.nackedCount(), 1u);

    head.issued = true;
    wb.complete(head);
    EXPECT_EQ(wb.nackedCount(), 0u);
    EXPECT_EQ(wb.size(), 1u);
    EXPECT_FALSE(wb.front().nacked);

    // popFront of a nacked head keeps the count exact too.
    EXPECT_EQ(issueAndNack(wb, *wb.nextIssuable(true)), 1u);
    EXPECT_EQ(wb.nackedCount(), 1u);
    wb.popFront();
    EXPECT_EQ(wb.nackedCount(), 0u);
}

TEST(WriteBuffer, CompleteOutOfOrderClearsNackedCount)
{
    // RC: a younger store on another line completes while an older one
    // is still outstanding; it stays in the buffer, no longer nacked.
    WriteBuffer wb(8);
    uint64_t s1 = wb.push(0x1000, 1);
    uint64_t s2 = wb.push(0x2000, 2);
    WriteBuffer::Entry &older = *wb.nextIssuable(false);
    ASSERT_EQ(older.seq, s1);
    issueAndNack(wb, older);
    WriteBuffer::Entry &younger = *wb.nextIssuable(false, ~uint64_t(0), s1);
    ASSERT_EQ(younger.seq, s2);
    issueAndNack(wb, younger);
    EXPECT_EQ(wb.nackedCount(), 2u);

    younger.issued = true;
    wb.complete(younger);
    EXPECT_EQ(wb.nackedCount(), 1u);
    EXPECT_EQ(wb.size(), 2u); // waits behind the older store
    EXPECT_FALSE(younger.nacked);
    EXPECT_EQ(younger.retries, 1u);

    older.issued = true;
    wb.complete(older);
    EXPECT_EQ(wb.nackedCount(), 0u);
    EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, DropYoungerThanRemovesSquashedNackedCounts)
{
    WriteBuffer wb(8);
    uint64_t s1 = wb.push(0x1000, 1);
    wb.push(0x2000, 2);
    wb.push(0x3000, 3);
    wb.push(0x4000, 4);
    // Bounce the head and two younger stores (RC-style issue order).
    uint64_t after = 0;
    for (int i = 0; i < 3; i++) {
        WriteBuffer::Entry &e = *wb.nextIssuable(false, ~uint64_t(0), after);
        after = e.seq;
        issueAndNack(wb, e);
    }
    EXPECT_EQ(wb.nackedCount(), 3u);
    // W+ recovery to the fence after s1: the two squashed bounced
    // stores leave the count, the surviving head stays in it.
    EXPECT_EQ(wb.dropYoungerThan(s1), 3u);
    EXPECT_EQ(wb.nackedCount(), 1u);
    EXPECT_TRUE(wb.front().nacked);
    EXPECT_EQ(wb.dropYoungerThan(0), 1u);
    EXPECT_EQ(wb.nackedCount(), 0u);
}

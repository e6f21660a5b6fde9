#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "cpu/write_buffer.hh"
#include "sim/rng.hh"

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

namespace
{

/** The write buffer as a std::deque of entries: the reference the ring
 *  must match operation for operation. */
struct DequeModel
{
    struct Entry
    {
        Addr addr;
        uint64_t value;
        uint64_t seq;
        bool issued = false;
        bool done = false;
        bool nacked = false;
        unsigned retries = 0;
    };

    std::deque<Entry> q;
    uint64_t nextSeq = 1;
    unsigned nacked = 0;
    unsigned highWater = 0;
    uint64_t pushes = 0;
    uint64_t dropped = 0;
    /** Entries that left from the head (completed or popped). */
    uint64_t frontPops = 0;

    Entry &
    bySeq(uint64_t seq)
    {
        for (auto &e : q)
            if (e.seq == seq)
                return e;
        ADD_FAILURE() << "no model entry " << seq;
        return q.front();
    }

    uint64_t
    push(Addr addr, uint64_t value)
    {
        q.push_back(Entry{addr, value, nextSeq});
        pushes++;
        highWater = std::max(highWater, unsigned(q.size()));
        return nextSeq++;
    }

    void
    unmark(Entry &e)
    {
        if (e.nacked) {
            e.nacked = false;
            nacked--;
        }
    }

    void
    popDone()
    {
        while (!q.empty() && q.front().done) {
            q.pop_front();
            frontPops++;
        }
    }

    void
    complete(uint64_t seq)
    {
        Entry &e = bySeq(seq);
        e.done = true;
        e.issued = false;
        unmark(e);
        popDone();
    }

    void
    popFront()
    {
        unmark(q.front());
        q.pop_front();
        frontPops++;
    }

    unsigned
    nack(uint64_t seq)
    {
        Entry &e = bySeq(seq);
        e.issued = false;
        if (!e.nacked) {
            e.nacked = true;
            nacked++;
        }
        return ++e.retries;
    }

    unsigned
    dropYoungerThan(uint64_t upto)
    {
        unsigned n = 0;
        while (!q.empty() && q.back().seq > upto) {
            unmark(q.back());
            q.pop_back();
            n++;
        }
        dropped += n;
        return n;
    }

    const Entry *
    nextIssuable(bool tso, uint64_t max_seq, uint64_t after_seq) const
    {
        for (size_t i = 0; i < q.size(); i++) {
            const Entry &e = q[i];
            if (e.issued || e.done || e.seq > max_seq ||
                e.seq <= after_seq) {
                if (tso)
                    return nullptr;
                continue;
            }
            bool blocked = false;
            for (size_t j = 0; j < i; j++)
                blocked |= !q[j].done && q[j].addr / 32 == e.addr / 32;
            if (!blocked)
                return &e;
        }
        return nullptr;
    }

    const Entry *
    forwardLookup(Addr addr) const
    {
        for (auto it = q.rbegin(); it != q.rend(); ++it)
            if (it->addr == addr)
                return &*it;
        return nullptr;
    }

    bool
    drainedUpTo(uint64_t upto) const
    {
        return q.empty() || q.front().seq > upto;
    }

    std::vector<Addr>
    pendingLines(uint64_t upto) const
    {
        std::vector<Addr> lines;
        for (const auto &e : q)
            if (e.seq <= upto)
                lines.push_back(e.addr & ~Addr(31));
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
        return lines;
    }
};

uint64_t
seqOf(const WriteBuffer::Entry *e)
{
    return e ? e->seq : 0;
}

uint64_t
seqOf(const DequeModel::Entry *e)
{
    return e ? e->seq : 0;
}

} // namespace

TEST(WriteBuffer, RingMatchesDequeAcrossWrapArounds)
{
    const unsigned cap = 5;
    // Twelve word addresses on three lines: forwarding, same-line RC
    // ordering and pending-set deduplication all get exercised.
    std::vector<Addr> words;
    for (Addr line : {0x1000, 0x1020, 0x1040})
        for (Addr w = 0; w < 4; w++)
            words.push_back(line + 8 * w);

    WriteBuffer wb(cap);
    DequeModel model;
    // In-flight stores by seq; the pointers must stay valid (and keep
    // pointing at the same store) for as long as the store is live.
    std::map<uint64_t, WriteBuffer::Entry *> issued;
    Rng rng(26);
    unsigned nacks = 0;
    // A seq up to `k` stores older than the youngest (0 at the start).
    auto olderSeq = [&](uint64_t k) {
        uint64_t last = model.nextSeq - 1;
        return last > k ? last - k : 0;
    };

    auto pickIssued = [&]() {
        auto it = issued.begin();
        std::advance(it, rng.range(issued.size()));
        return it;
    };
    auto forget = [&]() {
        // Stores that left the buffer leave the in-flight map.
        for (auto it = issued.begin(); it != issued.end();) {
            bool live = false;
            for (const auto &e : model.q)
                live |= e.seq == it->first;
            it = live ? std::next(it) : issued.erase(it);
        }
    };

    for (unsigned step = 0; step < 4000; step++) {
        SCOPED_TRACE("step " + std::to_string(step));
        switch (rng.range(8)) {
          case 0:
          case 1:
            if (!wb.full()) {
                Addr a = words[rng.range(words.size())];
                uint64_t v = rng.next();
                ASSERT_EQ(wb.push(a, v), model.push(a, v));
            }
            break;
          case 2: { // TSO issue: the head only
            WriteBuffer::Entry *e = wb.nextIssuable(true);
            const DequeModel::Entry *m =
                model.nextIssuable(true, ~uint64_t(0), 0);
            ASSERT_EQ(seqOf(e), seqOf(m));
            if (e) {
                e->issued = true;
                model.bySeq(e->seq).issued = true;
                issued[e->seq] = e;
            }
            break;
          }
          case 3: { // RC issue, possibly past a blocked store
            uint64_t after = rng.range(2) ? 0 : olderSeq(rng.range(cap));
            uint64_t max_seq =
                rng.range(2) ? ~uint64_t(0) : olderSeq(rng.range(cap));
            WriteBuffer::Entry *e = wb.nextIssuable(false, max_seq, after);
            const DequeModel::Entry *m =
                model.nextIssuable(false, max_seq, after);
            ASSERT_EQ(seqOf(e), seqOf(m));
            if (e) {
                e->issued = true;
                model.bySeq(e->seq).issued = true;
                issued[e->seq] = e;
            }
            break;
          }
          case 4: // complete, in order or (RC) out of order
            if (!issued.empty()) {
                auto it = pickIssued();
                wb.complete(*it->second);
                model.complete(it->first);
                issued.erase(it);
                forget();
            }
            break;
          case 5: // a directory bounces an in-flight store
            if (!issued.empty()) {
                auto it = pickIssued();
                ASSERT_EQ(wb.nack(*it->second), model.nack(it->first));
                issued.erase(it);
                nacks++;
            }
            break;
          case 6: { // W+ recovery: never past an in-flight store
            uint64_t floor = issued.empty() ? 0 : issued.rbegin()->first;
            uint64_t upto = std::max(floor, olderSeq(rng.range(cap + 1)));
            ASSERT_EQ(wb.dropYoungerThan(upto), model.dropYoungerThan(upto));
            break;
          }
          case 7:
            if (!model.q.empty() && !model.q.front().issued) {
                wb.popFront();
                model.popFront();
            }
            break;
        }

        ASSERT_EQ(wb.size(), model.q.size());
        ASSERT_EQ(wb.empty(), model.q.empty());
        ASSERT_EQ(wb.full(), model.q.size() == cap);
        if (!model.q.empty()) {
            const WriteBuffer::Entry &f = wb.front();
            const DequeModel::Entry &g = model.q.front();
            ASSERT_EQ(f.seq, g.seq);
            ASSERT_EQ(f.addr, g.addr);
            ASSERT_EQ(f.value, g.value);
            ASSERT_EQ(f.issued, g.issued);
            ASSERT_EQ(f.done, g.done);
            ASSERT_EQ(f.nacked, g.nacked);
            ASSERT_EQ(f.retries, g.retries);
        }
        for (Addr a : words) {
            const WriteBuffer::Entry *e = wb.forwardLookup(a);
            const DequeModel::Entry *m = model.forwardLookup(a);
            ASSERT_EQ(seqOf(e), seqOf(m)) << std::hex << a;
            if (e) {
                ASSERT_EQ(e->value, m->value);
            }
        }
        ASSERT_EQ(wb.lastSeq(), model.nextSeq - 1);
        for (uint64_t back = 0; back <= cap + 1; back++) {
            uint64_t u = olderSeq(back);
            ASSERT_EQ(seqOf(wb.nextIssuable(true, ~uint64_t(0), u)),
                      seqOf(model.nextIssuable(true, ~uint64_t(0), u)));
            ASSERT_EQ(seqOf(wb.nextIssuable(false, ~uint64_t(0), u)),
                      seqOf(model.nextIssuable(false, ~uint64_t(0), u)));
            ASSERT_EQ(seqOf(wb.nextIssuable(false, u, 0)),
                      seqOf(model.nextIssuable(false, u, 0)));
            ASSERT_EQ(wb.drainedUpTo(u), model.drainedUpTo(u)) << u;
            ASSERT_EQ(wb.pendingLines(u), model.pendingLines(u)) << u;
        }
        ASSERT_EQ(wb.nackedCount(), model.nacked);
        ASSERT_EQ(wb.highWater(), model.highWater);
        ASSERT_EQ(wb.totalPushes(), model.pushes);
        ASSERT_EQ(wb.totalDropped(), model.dropped);
        for (const auto &[seq, e] : issued) {
            ASSERT_EQ(e->seq, seq);
            ASSERT_TRUE(e->issued);
        }
    }
    // At least ten trips of the head around the five slots.
    EXPECT_GE(model.frontPops, 10u * cap);
    EXPECT_GT(model.dropped, 0u);
    EXPECT_GT(nacks, 0u);
}

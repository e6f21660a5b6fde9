#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"

using namespace asf;

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventTick(), maxTick);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(10); });
    eq.schedule(5, [&] { order.push_back(5); });
    eq.schedule(7, [&] { order.push_back(7); });
    eq.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{5, 7, 10}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; i++)
        eq.schedule(3, [&order, i] { order.push_back(i); });
    eq.runUntil(3);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { fired++; });
    eq.schedule(6, [&] { fired++; });
    eq.runUntil(5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 5u);
    eq.runUntil(6);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CallbackCanScheduleMore)
{
    EventQueue eq;
    std::vector<Tick> fires;
    eq.schedule(1, [&] {
        fires.push_back(eq.now());
        eq.schedule(4, [&] { fires.push_back(eq.now()); });
    });
    eq.runUntil(10);
    EXPECT_EQ(fires, (std::vector<Tick>{1, 4}));
}

TEST(EventQueue, ScheduleInUsesCurrentTime)
{
    EventQueue eq;
    eq.runUntil(100);
    Tick fired_at = 0;
    eq.scheduleIn(5, [&] { fired_at = eq.now(); });
    eq.runUntil(200);
    EXPECT_EQ(fired_at, 105u);
}

TEST(EventQueue, SchedulingInPastDies)
{
    EventQueue eq;
    eq.runUntil(10);
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(EventQueue, ClearDropsEverything)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, NextEventTickReportsEarliest)
{
    EventQueue eq;
    eq.schedule(9, [] {});
    eq.schedule(4, [] {});
    EXPECT_EQ(eq.nextEventTick(), 4u);
}

// --- the wheel, its overflow heap and the slab -------------------------

namespace
{

constexpr Tick span = EventQueue::span;

/** Pushes its id when run. */
auto
pusher(std::vector<int> &order, int id)
{
    return [&order, id] { order.push_back(id); };
}

} // namespace

TEST(EventQueue, SameTickFifoAcrossOverflowBoundary)
{
    // Events for T filed while T is a span or more ahead wait in the
    // overflow heap; the ones filed once T is near go straight into its
    // slot. All of them must still run in scheduling order.
    EventQueue eq;
    std::vector<int> order;
    const Tick T = 3 * span + 7;
    for (int i = 0; i < 3; i++)
        eq.schedule(T, pusher(order, i));
    eq.runUntil(T - span); // T is exactly one span ahead: still far
    for (int i = 3; i < 6; i++)
        eq.schedule(T, pusher(order, i));
    eq.runUntil(T - span + 1); // now near: moved into the wheel
    for (int i = 6; i < 9; i++)
        eq.schedule(T, pusher(order, i));
    // Filed from a callback one tick before T.
    eq.schedule(T - 1, [&] { eq.schedule(T, pusher(order, 9)); });
    eq.runUntil(T + 1);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(eq.now(), T + 1);
}

TEST(EventQueue, SetNowJumpMovesFarEventsInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick T = 5 * span;
    eq.schedule(T, pusher(order, 0));
    eq.schedule(T + 2 * span, pusher(order, 2));
    eq.schedule(T, pusher(order, 1));
    eq.setNow(T - 3); // a jump of more than a span, with no callback run
    eq.schedule(T, pusher(order, 3));
    eq.schedule(T - 1, pusher(order, -1));
    eq.runUntil(T);
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 3}));
    EXPECT_EQ(eq.nextEventTick(), T + 2 * span);
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(maxTick - 1);
    EXPECT_EQ(order.back(), 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SetNowPastPendingWorkDies)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_DEATH(eq.setNow(11), "passes pending work");
}

namespace
{

/** The reference: a plain (when, seq) ordered queue of std::function. */
class RefQueue
{
  public:
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (when < now_)
            throw std::logic_error("past");
        q_.emplace(Key{when, seq_++}, std::forward<F>(f));
    }
    void
    runUntil(Tick upto)
    {
        while (!q_.empty() && q_.begin()->first.when <= upto) {
            auto node = q_.extract(q_.begin());
            now_ = node.key().when;
            node.mapped()();
        }
        now_ = std::max(now_, upto);
    }
    void setNow(Tick t) { now_ = t; }
    Tick now() const { return now_; }
    Tick
    nextEventTick() const
    {
        return q_.empty() ? maxTick : q_.begin()->first.when;
    }

  private:
    struct Key
    {
        Tick when;
        uint64_t seq;
        bool
        operator<(const Key &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };
    std::map<Key, std::function<void()>> q_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
};

uint64_t
mix(uint64_t x)
{
    // splitmix64 finalizer: a fixed pseudo-random function of x.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Delays from 0 to 4 spans: mostly near, as in the machine. */
Tick
drawDelay(uint64_t r)
{
    switch (r % 10) {
      case 0:
        return 0;
      case 1:
        return span + (r >> 8) % (3 * span + 1);
      case 2:
      case 3:
        return (r >> 8) % span;
      default:
        return 1 + (r >> 8) % 64;
    }
}

/**
 * Drive queue q through a seeded mix of external scheduling, runs,
 * drains and setNow jumps; each event logs (id, tick) and, while
 * spawning is on, schedules up to two children. The same calls on the
 * same seed must give the same log on any correct queue.
 */
template <typename Q>
std::vector<std::pair<uint64_t, Tick>>
drive(Q &q, uint64_t seed, uint64_t min_events)
{
    std::vector<std::pair<uint64_t, Tick>> log;
    uint64_t next_id = 0;
    bool spawn = true;
    std::function<void(uint64_t)> run = [&](uint64_t id) {
        log.emplace_back(id, q.now());
        if (!spawn)
            return;
        uint64_t r = mix(id ^ seed);
        unsigned kids = r % 8 < 3 ? 0 : r % 8 < 6 ? 1 : 2;
        for (unsigned k = 0; k < kids; k++) {
            uint64_t kid = next_id++;
            q.schedule(q.now() + drawDelay(mix(r + k)),
                       [&run, kid] { run(kid); });
        }
    };
    uint64_t r = seed;
    for (uint64_t round = 0; next_id < min_events; round++) {
        r = mix(r);
        for (unsigned n = r % 4; n > 0; n--) {
            uint64_t id = next_id++;
            q.schedule(q.now() + drawDelay(mix(r + n)),
                       [&run, id] { run(id); });
        }
        if (round % 97 == 96) {
            // Drain, then jump more than a span across the quiet
            // stretch with events waiting beyond it.
            spawn = false;
            q.runUntil(q.now() + 5 * span);
            spawn = true;
            uint64_t id = next_id++;
            q.schedule(q.now() + 3 * span,
                       [&run, id] { run(id); });
            q.setNow(q.now() + span + 1 + (r >> 16) % span);
        } else if (round % 13 == 12) {
            q.setNow(std::min(q.nextEventTick(),
                              q.now() + (r >> 16) % (2 * span)));
        } else {
            q.runUntil(q.now() + (r >> 16) % 40);
        }
    }
    spawn = false;
    q.runUntil(q.now() + 5 * span);
    return log;
}

} // namespace

TEST(EventQueue, DifferentialAgainstOrderedReference)
{
    for (uint64_t seed : {1ull, 20151ull}) {
        EventQueue eq;
        RefQueue ref;
        auto got = drive(eq, seed, 100'000);
        auto want = drive(ref, seed, 100'000);
        ASSERT_GE(want.size(), 100'000u);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (size_t i = 0; i < want.size(); i++)
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " event " << i;
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.now(), ref.now());
        EXPECT_EQ(eq.executedEvents(), want.size());
    }
}

TEST(EventQueue, ClearAndDestructionReleaseCaptures)
{
    auto token = std::make_shared<int>(0);
    /** Too big for the inline buffer: held through one heap allocation. */
    struct Oversized
    {
        std::shared_ptr<int> p;
        char pad[2 * EventCallback::inlineSize] = {};
        void operator()() const {}
    };
    {
        EventQueue eq;
        eq.schedule(5, [token] {});
        eq.schedule(7, Oversized{token});
        eq.schedule(10 * span, [token] {}); // overflow heap
        EXPECT_EQ(token.use_count(), 4);
        eq.clear();
        EXPECT_EQ(token.use_count(), 1);
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.nextEventTick(), maxTick);

        // A run releases what it ran; what stays pending is released
        // when the queue goes away.
        eq.schedule(3, [token] {});
        eq.schedule(4, Oversized{token});
        eq.schedule(4 * span, Oversized{token});
        eq.schedule(6 * span, [token] {});
        EXPECT_EQ(token.use_count(), 5);
        eq.runUntil(4);
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DueMarksShareTheCalendar)
{
    EventQueue eq;
    eq.setDue(3, 10);
    eq.setDue(1, 10);
    eq.setDue(2, span - 1); // the wheel's last tick
    eq.schedule(12, [] {});
    EXPECT_EQ(eq.nextTick(), 10u);
    EXPECT_EQ(eq.nextEventTick(), 12u);
    eq.runUntil(10);
    EXPECT_EQ(eq.takeDue(), (uint64_t(1) << 1) | (uint64_t(1) << 3));
    EXPECT_EQ(eq.takeDue(), 0u);
    EXPECT_EQ(eq.nextTick(), 12u);
    eq.runUntil(12);
    EXPECT_EQ(eq.nextTick(), span - 1);
    // Moving a mark moves its one bit; maxTick makes it due nowhere.
    eq.setDue(2, 20);
    EXPECT_EQ(eq.nextTick(), 20u);
    eq.setDue(2, maxTick);
    EXPECT_EQ(eq.nextTick(), maxTick);
    eq.setDue(63, 12);
    EXPECT_EQ(eq.takeDue(), uint64_t(1) << 63);
    // A mark a span or more ahead, or in the past, has no slot.
    EXPECT_DEATH(eq.setDue(0, eq.now() + span), "outside");
    EXPECT_DEATH(eq.setDue(0, eq.now() - 1), "outside");
}

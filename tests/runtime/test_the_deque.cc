#include <gtest/gtest.h>

#include "../helpers.hh"
#include "runtime/marks.hh"
#include "runtime/regs.hh"
#include "runtime/the_deque.hh"

using namespace asf;
using namespace asf::test;
using namespace asf::runtime;
using namespace asf::regs;

TEST(TheDeque, OwnerDrainsSeededTasksLifo)
{
    System sys(smallConfig(FenceDesign::SPlus, 1));
    GuestLayout layout;
    TheDeque q = allocTheDeque(layout, 64);
    seedDeque(sys.memory(), q, {10, 20, 30});
    sys.loadProgram(0, share(dequeOwnerProgram(q, 0x8000)));
    runToCompletion(sys);
    EXPECT_EQ(sys.debugReadWord(0x8000), 60u);
}

TEST(TheDeque, ThiefStealsFromHead)
{
    System sys(smallConfig(FenceDesign::SPlus, 1));
    GuestLayout layout;
    TheDeque q = allocTheDeque(layout, 64);
    seedDeque(sys.memory(), q, {10, 20, 30});
    sys.loadProgram(0, share(dequeThiefProgram(q, 0x8000, 5)));
    runToCompletion(sys);
    EXPECT_EQ(sys.debugReadWord(0x8000), 60u);
}

TEST(TheDeque, PushThenTakeRoundTrips)
{
    System sys(smallConfig(FenceDesign::SPlus, 1));
    GuestLayout layout;
    TheDeque q = allocTheDeque(layout, 64);
    seedDeque(sys.memory(), q, {});
    Assembler a("pushtake");
    a.li(env0, int64_t(q.base));
    a.li(a1, 77);
    emitPush(a, q, env0, a1, t0, t1);
    emitTake(a, q, env0, a0, t0, t1, t2, t3);
    a.li(t0, 0x8000);
    a.st(t0, 0, a0);
    a.halt();
    sys.loadProgram(0, share(a.finish()));
    runToCompletion(sys);
    EXPECT_EQ(sys.debugReadWord(0x8000), 77u);
}

class DequeRace : public ::testing::TestWithParam<FenceDesign>
{
};

TEST_P(DequeRace, EveryTaskTakenExactlyOnce)
{
    // The THE protocol's whole point: with the fences in place, a task
    // is never lost and never executed twice, whichever design is live.
    System sys(smallConfig(GetParam(), 2));
    GuestLayout layout;
    TheDeque q = allocTheDeque(layout, 128);
    std::vector<uint64_t> tasks;
    uint64_t expect = 0;
    for (uint64_t i = 1; i <= 40; i++) {
        tasks.push_back(i);
        expect += i;
    }
    seedDeque(sys.memory(), q, tasks);
    sys.loadProgram(0, share(dequeOwnerProgram(q, 0x8000)));
    sys.loadProgram(1, share(dequeThiefProgram(q, 0x8040, 200)));
    runToCompletion(sys);
    uint64_t got =
        sys.debugReadWord(0x8000) + sys.debugReadWord(0x8040);
    EXPECT_EQ(got, expect)
        << "task lost or duplicated under "
        << fenceDesignName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DequeRace,
                         ::testing::ValuesIn(allFenceDesigns),
                         [](const auto &info) {
                             std::string n = fenceDesignName(info.param);
                             for (auto &c : n)
                                 if (c == '+')
                                     c = 'p';
                             return n;
                         });

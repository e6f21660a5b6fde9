/**
 * Per-core sleep: System::run ticks only the cores that are due, and
 * replays a sleeper's cycles when a message or its own deadline wakes
 * it. The identity tests (test_fast_forward.cc) cannot see a sleep
 * that never happens, so these tests pin that it
 * engages on cores that are not phase-locked, that the reference mode
 * never sleeps, and that every run() call brings its sleepers up to
 * date before it returns.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../helpers.hh"
#include "workloads/ustm.hh"

using namespace asf;
using namespace asf::test;
using namespace asf::workloads;

namespace
{

/** ustm Hash under W+ on 4 cores: transactions of uneven length keep
 *  the cores out of phase, so some sleep while others tick. */
SystemConfig
hashConfig(bool fast_forward)
{
    SystemConfig cfg = smallConfig(FenceDesign::WPlus, 4);
    cfg.fastForward = fast_forward;
    return cfg;
}

void
loadHash(System &sys)
{
    setupTlrwWorkload(sys, ustmBenchByName("Hash"), /*txn_limit=*/0);
}

} // namespace

TEST(CoreSleep, EngagesOnOutOfPhaseCores)
{
    System sys(hashConfig(true));
    loadHash(sys);
    ASSERT_EQ(sys.run(30'000), System::RunResult::MaxCycles);
    const uint64_t cores = sys.numCores();
    EXPECT_LT(sys.tickedCoreCycles(), uint64_t(sys.now()) * cores / 2);
    // Not just the all-asleep jumps: most cores also sleep through the
    // cycles the loop does visit.
    const uint64_t visited = uint64_t(sys.now()) - sys.fastForwardedCycles();
    EXPECT_LT(sys.tickedCoreCycles(), visited * cores / 2);
}

TEST(CoreSleep, ReferenceModeTicksEveryCoreEveryCycle)
{
    System sys(hashConfig(false));
    loadHash(sys);
    ASSERT_EQ(sys.run(30'000), System::RunResult::MaxCycles);
    EXPECT_EQ(sys.tickedCoreCycles(),
              uint64_t(sys.now()) * sys.numCores());
    EXPECT_EQ(sys.fastForwardedCycles(), 0u);
}

TEST(CoreSleep, SplitRunsBitIdenticalAcrossModes)
{
    // The warm-up pattern: run, reset the statistics, then run on in
    // pieces that end mid-sleep. The reset must drop exactly the
    // warm-up cycles, and each piece must end with every core's
    // counters current, with fast-forward on and off.
    std::vector<std::string> docs;
    for (bool ff : {true, false}) {
        System sys(hashConfig(ff));
        loadHash(sys);
        ASSERT_EQ(sys.run(4'999), System::RunResult::MaxCycles);
        sys.resetStats();
        for (Tick piece : {Tick(7'777), Tick(1), Tick(12'345)})
            ASSERT_EQ(sys.run(piece), System::RunResult::MaxCycles);
        std::ostringstream os;
        sys.dumpStatsJson(os);
        docs.push_back(os.str());
    }
    EXPECT_EQ(docs[0], docs[1]);
}

namespace
{

/** Core 0 reads line X (sharing it with core 1), then computes for
 *  `burst` cycles, twice; core 1 stores to X in the middle of core 0's
 *  first burst. Returns the full stats dump. */
std::string
runFarSleeper(bool fast_forward, Tick burst, uint64_t &ticked,
              uint64_t &cycles, uint64_t &invs)
{
    const Addr x = 0x8000;
    SystemConfig cfg = smallConfig(FenceDesign::SPlus, 2);
    cfg.fastForward = fast_forward;
    System sys(cfg);

    Assembler sleeper("far_sleeper");
    sleeper.li(1, int64_t(x));
    sleeper.compute(20);
    sleeper.ld(2, 1, 0); // joins core 1 as a sharer of X
    sleeper.compute(int64_t(burst));
    sleeper.ld(2, 1, 0);
    sleeper.compute(int64_t(burst));
    sleeper.halt();
    Assembler writer("writer");
    writer.li(1, int64_t(x));
    writer.li(3, 7);
    writer.ld(2, 1, 0);
    writer.compute(300);
    writer.st(1, 0, 3); // invalidates core 0's copy mid-burst
    writer.halt();
    sys.loadProgram(0, share(sleeper.finish()));
    sys.loadProgram(1, share(writer.finish()));
    EXPECT_EQ(sys.run(100'000), System::RunResult::AllDone);

    ticked = sys.tickedCoreCycles();
    cycles = sys.now();
    invs = sys.l1(0).stats().get("invsServiced");
    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

} // namespace

TEST(CoreSleep, FarSleeperWokenEarlySleepsAgain)
{
    // A burst of three spans and more puts the core's deadline beyond
    // the event calendar's wheel, so its sleep is cut into pieces of
    // under a span; the invalidation must still wake it early
    // (replaying the slept cycles first), and it must sleep again after.
    const Tick burst = 3 * EventQueue::span + 100;
    uint64_t ticked_ff, cycles_ff, invs_ff;
    uint64_t ticked_ref, cycles_ref, invs_ref;
    std::string ff = runFarSleeper(true, burst, ticked_ff, cycles_ff,
                                   invs_ff);
    std::string ref = runFarSleeper(false, burst, ticked_ref, cycles_ref,
                                    invs_ref);
    EXPECT_EQ(ff, ref);
    EXPECT_EQ(cycles_ff, cycles_ref);
    EXPECT_GT(cycles_ref, 2 * burst);
    EXPECT_EQ(invs_ref, 1u);
    EXPECT_EQ(invs_ff, 1u);
    EXPECT_EQ(ticked_ref, cycles_ref * 2);
    // Both bursts slept through: far fewer ticks than the reference.
    EXPECT_LT(ticked_ff, ticked_ref / 4);
}

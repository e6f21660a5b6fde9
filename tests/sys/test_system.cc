#include <gtest/gtest.h>

#include <sstream>

#include "../helpers.hh"

using namespace asf;
using namespace asf::test;

TEST(SystemConfigT, ValidationCatchesNonsense)
{
    SystemConfig cfg;
    cfg.numCores = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "numCores");
    cfg = SystemConfig{};
    cfg.l1Assoc = 1;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "l1Assoc");
    cfg = SystemConfig{};
    cfg.wPlusTimeout = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "Timeout");
    cfg = SystemConfig{};
    cfg.hopLatency = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "hopLatency");
}

TEST(SystemConfigT, SummaryMentionsKeyParameters)
{
    SystemConfig cfg;
    cfg.design = FenceDesign::WPlus;
    std::string s = cfg.summary();
    EXPECT_NE(s.find("8 cores"), std::string::npos);
    EXPECT_NE(s.find("W+"), std::string::npos);
}

TEST(SystemT, DebugReadSeesBufferedStores)
{
    // A store still sitting in a write buffer must be visible to the
    // host-side debug read (the architecturally-latest value).
    System sys(smallConfig(FenceDesign::SPlus, 1));
    Assembler a("slowstore");
    a.li(1, 0x1000);
    a.li(2, 1);
    a.st(1, 0, 2);
    a.li(2, 2);
    a.st(1, 0, 2); // younger store to the same word
    a.compute(5);
    a.halt();
    sys.loadProgram(0, share(a.finish()));
    sys.run(3); // stores retired into the WB, not yet drained
    EXPECT_FALSE(sys.core(0).writeBuffer().empty());
    EXPECT_EQ(sys.debugReadWord(0x1000), 2u);
    runToCompletion(sys);
    EXPECT_EQ(sys.debugReadWord(0x1000), 2u);
}

TEST(SystemT, BreakdownSumsToElapsedCycles)
{
    System sys(smallConfig(FenceDesign::SPlus, 2));
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    sys.loadProgram(1, share(loadProgram(0x2000, 0x3000)));
    runToCompletion(sys);
    CycleBreakdown b = sys.breakdown();
    // Every core classifies every cycle exactly once.
    EXPECT_EQ(b.total(), 2 * sys.now());
}

TEST(SystemT, ResetStatsClearsCountersButNotState)
{
    System sys(smallConfig(FenceDesign::SPlus, 1));
    sys.loadProgram(0, share(storeProgram(0x1000, 42)));
    runToCompletion(sys);
    EXPECT_GT(sys.core(0).stats().get("instrRetired"), 0u);
    sys.resetStats();
    EXPECT_EQ(sys.core(0).stats().get("instrRetired"), 0u);
    EXPECT_EQ(sys.guestCounter(1), 0u);
    // Memory state survives the reset.
    EXPECT_EQ(sys.debugReadWord(0x1000), 42u);
}

TEST(SystemT, RunReturnsMaxCyclesWhenBudgetExhausted)
{
    System sys(smallConfig(FenceDesign::SPlus, 1));
    Assembler a("forever");
    a.bind("loop");
    a.li(1, 0x1000);
    a.ld(2, 1, 0);
    a.jmp("loop");
    sys.loadProgram(0, share(a.finish()));
    EXPECT_EQ(sys.run(5000), System::RunResult::MaxCycles);
    EXPECT_EQ(sys.now(), 5000u);
    // The budget composes across calls.
    EXPECT_EQ(sys.run(1000), System::RunResult::MaxCycles);
    EXPECT_EQ(sys.now(), 6000u);
}

TEST(SystemT, CoreWithoutProgramIsIdle)
{
    System sys(smallConfig(FenceDesign::SPlus, 4));
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    // Cores 1-3 have no program; the system still quiesces.
    runToCompletion(sys);
    EXPECT_TRUE(sys.core(3).done());
}

TEST(SystemT, DumpStatsEmitsGroupedCounters)
{
    System sys(smallConfig(FenceDesign::SPlus, 2));
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    runToCompletion(sys);
    std::ostringstream os;
    sys.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("core0.instrRetired"), std::string::npos);
    EXPECT_NE(out.find("noc.packets"), std::string::npos);
    // Zero-valued counters are suppressed.
    EXPECT_EQ(out.find("wPlusRecoveries"), std::string::npos);
}

TEST(SystemT, BadCoreIdPanics)
{
    System sys(smallConfig(FenceDesign::SPlus, 2));
    EXPECT_DEATH(sys.core(7), "bad core id");
}

TEST(SystemT, GuestCountersSumAcrossCores)
{
    System sys(smallConfig(FenceDesign::SPlus, 3));
    Assembler a("markers");
    a.mark(42);
    a.halt();
    auto p = share(a.finish());
    for (int i = 0; i < 3; i++)
        sys.loadProgram(i, p);
    runToCompletion(sys);
    EXPECT_EQ(sys.guestCounter(42), 3u);
    EXPECT_EQ(sys.guestCounter(43), 0u);
}

namespace
{

std::string
statsJson(System &sys)
{
    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

/** Two cores sharing a line: a store and a load, mid-flight after 60
 *  cycles, so the write buffers have sat at several occupancies. */
void
loadSharedPair(System &sys)
{
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    sys.loadProgram(1, share(loadProgram(0x1000, 0x2000)));
}

} // namespace

TEST(SystemT, StatsJsonDumpIsIdempotent)
{
    // A dump flushes the cores' occupancy run lengths into their
    // wbOccupancy histograms; dumping again adds nothing.
    System sys(smallConfig(FenceDesign::SPlus, 2));
    loadSharedPair(sys);
    ASSERT_EQ(sys.run(60), System::RunResult::MaxCycles);
    const std::string first = statsJson(sys);
    EXPECT_NE(first.find("\"wbOccupancy\""), std::string::npos);
    EXPECT_EQ(statsJson(sys), first);
}

TEST(SystemT, StatsJsonMidRunDumpDoesNotPerturbLaterDump)
{
    // Flushing mid-run is additive: the final document is the one an
    // undisturbed run of the same length produces.
    System split(smallConfig(FenceDesign::SPlus, 2));
    loadSharedPair(split);
    split.run(60);
    statsJson(split);
    runToCompletion(split);

    System whole(smallConfig(FenceDesign::SPlus, 2));
    loadSharedPair(whole);
    whole.run(60);
    runToCompletion(whole);

    EXPECT_EQ(statsJson(split), statsJson(whole));
}

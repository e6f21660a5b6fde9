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

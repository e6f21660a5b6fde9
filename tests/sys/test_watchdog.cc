/**
 * @file
 * Livelock/hang watchdog tests: System::run must abort with a
 * diagnostic snapshot when no core makes forward progress for a full
 * window, at the same tick and with the same output with fast-forward
 * on or off, stay silent when progress continues, and stay off by default.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "../helpers.hh"

using namespace asf;
using namespace asf::test;

namespace
{

/** Capture std::cerr for the duration of a scope. */
class CerrCapture
{
  public:
    CerrCapture() : old_(std::cerr.rdbuf(buf_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string str() const { return buf_.str(); }

  private:
    std::ostringstream buf_;
    std::streambuf *old_;
};

} // namespace

namespace
{

struct Firing
{
    System::RunResult result;
    Tick cycles = 0;
    std::string doc;
    std::string diag;
};

/** Run a lone cold-missing store under a watchdog window far below the
 *  miss latency, capturing the stats document and the stderr dump. */
Firing
fireOnColdMiss(Tick window, bool fast_forward)
{
    SystemConfig cfg = smallConfig(FenceDesign::SPlus, 1);
    cfg.fastForward = fast_forward;
    cfg.watchdogCycles = window;
    System sys(cfg);
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    Firing f;
    {
        CerrCapture cerr_capture;
        f.result = sys.run(1'000'000);
        f.diag = cerr_capture.str();
    }
    f.cycles = sys.now();
    std::ostringstream os;
    sys.dumpStatsJson(os);
    f.doc = os.str();
    return f;
}

} // namespace

TEST(Watchdog, FiresDuringQuietMissWindow)
{
    // A cold-missing store leaves the core with nothing to retire for
    // ~memLatency cycles; a window far below that must declare a hang.
    for (bool ff : {true, false}) {
        Firing f = fireOnColdMiss(20, ff);
        EXPECT_EQ(f.result, System::RunResult::Watchdog) << "ff " << ff;
        // The system stopped well before the miss would have resolved.
        EXPECT_LT(f.cycles, 100u) << "ff " << ff;
        EXPECT_NE(f.diag.find("watchdog"), std::string::npos) << "ff " << ff;
        EXPECT_NE(f.diag.find("core0"), std::string::npos) << "ff " << ff;
    }
}

TEST(Watchdog, FiringIsIdenticalInEveryRunLoopMode)
{
    // Checks land on the same ticks whatever the run loop skips, so
    // the firing tick, the stats document and the snapshot are the
    // reference mode's. The store retires in the first window, so the
    // hang is declared at the second check.
    for (Tick window : {Tick(20), Tick(40), Tick(75)}) {
        Firing ref = fireOnColdMiss(window, false);
        ASSERT_EQ(ref.result, System::RunResult::Watchdog) << window;
        EXPECT_EQ(ref.cycles, 2 * window);
        Firing f = fireOnColdMiss(window, true);
        EXPECT_EQ(f.cycles, ref.cycles) << window;
        EXPECT_EQ(f.doc, ref.doc) << window;
        EXPECT_EQ(f.diag, ref.diag) << window;
    }
}

TEST(Watchdog, OffByDefault)
{
    System sys(smallConfig(FenceDesign::SPlus, 1));
    EXPECT_EQ(sys.config().watchdogCycles, 0u);
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    runToCompletion(sys);
    EXPECT_FALSE(sys.watchdogFired());
}

TEST(Watchdog, LargeWindowDoesNotFire)
{
    SystemConfig cfg = smallConfig(FenceDesign::SPlus, 2);
    cfg.watchdogCycles = 1'000'000;
    System sys(cfg);
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    sys.loadProgram(1, share(loadProgram(0x1000, 0x2000)));
    runToCompletion(sys);
    EXPECT_FALSE(sys.watchdogFired());
}

TEST(Watchdog, SnapshotShowsStallAndWbHead)
{
    // Mid-miss, the snapshot must name the stalled core's bucket and
    // the write-buffer head entry it is stuck behind.
    SystemConfig cfg = smallConfig(FenceDesign::SPlus, 1);
    cfg.fastForward = false;
    System sys(cfg);
    sys.loadProgram(0, share(storeProgram(0x1000, 1)));
    EXPECT_EQ(sys.run(50), System::RunResult::MaxCycles);

    std::ostringstream os;
    sys.dumpWatchdogSnapshot(os);
    const std::string snap = os.str();
    EXPECT_NE(snap.find("core0"), std::string::npos);
    EXPECT_NE(snap.find("wb: 1/"), std::string::npos);
    EXPECT_NE(snap.find("addr=0x1000"), std::string::npos);
    // The store's directory transaction is still in flight.
    EXPECT_NE(snap.find("dir"), std::string::npos);
}

TEST(Watchdog, StatsJsonRecordsFiring)
{
    for (bool ff : {true, false}) {
        Firing f = fireOnColdMiss(20, ff);
        ASSERT_EQ(f.result, System::RunResult::Watchdog) << "ff " << ff;
        EXPECT_NE(
            f.doc.find("\"watchdog\":{\"cycles\":20,\"fired\":true}"),
            std::string::npos)
            << "ff " << ff;
    }
}

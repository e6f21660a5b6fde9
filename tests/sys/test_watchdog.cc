/**
 * @file
 * Livelock/hang watchdog tests: System::run must abort with a
 * diagnostic snapshot when no core makes forward progress for a full
 * window, at the same tick and with the same output with fast-forward
 * on or off, stay silent when progress continues, and stay off by default.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

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

/** The write-buffer line of core `core` in a watchdog snapshot. */
std::string
wbLine(const std::string &snap, unsigned core)
{
    size_t at = snap.find("core" + std::to_string(core) + ":");
    if (at == std::string::npos)
        return "";
    at = snap.find("  wb: ", at);
    if (at == std::string::npos)
        return "";
    return snap.substr(at, snap.find('\n', at) - at);
}

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
    // The store unit has examined the head, so its (still empty) retry
    // fields are shown.
    EXPECT_EQ(wbLine(snap, 0), "  wb: 1/" + std::to_string(cfg.wbEntries) +
                                   " entries; head seq=1 addr=0x1000 "
                                   "issued retries=0 nextTryAt=0");
}

TEST(Watchdog, SnapshotShowsBouncedWbHead)
{
    // WS+: core 0's weak fence waits on a missing store while its
    // post-fence load of y sits in the Bypass Set; core 1's store to y
    // bounces off it and backs off. The snapshot names the bounce.
    SystemConfig cfg = smallConfig(FenceDesign::WSPlus, 2);
    cfg.fastForward = false;
    System sys(cfg);
    const Addr x = 0x1000, y = 0x2000;
    Assembler a("fenced");
    a.li(1, int64_t(x));
    a.li(2, int64_t(y));
    a.li(3, 0x3000);
    a.ld(4, 2, 0); // warm y
    a.compute(600);
    a.li(4, 1);
    a.st(1, 0, 4); // cold miss: the fence waits on it
    a.fence(FenceRole::Critical);
    a.ld(5, 2, 0); // completes early; y enters the Bypass Set
    a.st(3, 0, 5);
    a.halt();
    sys.loadProgram(0, share(a.finish()));
    Assembler b("writer");
    b.li(1, int64_t(y));
    b.ld(2, 1, 0); // warm y so the store is a fast upgrade
    b.compute(650);
    b.li(2, 7);
    b.st(1, 0, 2);
    b.halt();
    sys.loadProgram(1, share(b.finish()));

    // Step a cycle at a time until the directory bounces core 1's
    // store. run() leaves the clock on the last tick it ran, so that is
    // the tick the nack arrived at.
    while (sys.core(1).stats().get("storeNacks") == 0 && sys.now() < 5000)
        ASSERT_EQ(sys.run(1), System::RunResult::MaxCycles);
    ASSERT_EQ(sys.core(1).stats().get("storeNacks"), 1u);
    const Tick nacked_at = sys.now();
    const Tick backoff = std::min(cfg.retryBackoffBase + cfg.retryBackoffStep,
                                  cfg.retryBackoffMax);

    std::ostringstream os;
    sys.dumpWatchdogSnapshot(os);
    const std::string snap = os.str();
    EXPECT_EQ(wbLine(snap, 1),
              "  wb: 1/" + std::to_string(cfg.wbEntries) +
                  " entries; head seq=1 addr=0x2000 retries=1 nacked "
                  "nextTryAt=" +
                  std::to_string(nacked_at + backoff));
    // The bouncing core's head is its own store, examined and issued.
    EXPECT_EQ(wbLine(snap, 0), "  wb: 2/" + std::to_string(cfg.wbEntries) +
                                   " entries; head seq=1 addr=0x1000 "
                                   "issued retries=0 nextTryAt=0");
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

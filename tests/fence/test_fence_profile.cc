/**
 * @file
 * Fence-lifecycle profiler tests: unit coverage of the record/fold
 * machinery, integration checks that real runs produce phase records
 * with ordered timestamps, and the stats-JSON `fenceProfile` shape.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "../helpers.hh"
#include "fence/profile.hh"
#include "harness/report.hh"

using namespace asf;
using namespace asf::test;

namespace
{

/** st mine = 1; wf; ld other -> res (see test_fence_semantics.cc). */
Program
fencedPair(Addr st_addr, Addr ld_addr, Addr res, unsigned warm = 0)
{
    Assembler a("pair");
    a.li(1, int64_t(st_addr));
    a.li(2, int64_t(ld_addr));
    a.li(3, int64_t(res));
    if (warm > 0) {
        a.ld(4, 2, 0);
        a.compute(int64_t(warm));
    }
    a.li(4, 1);
    a.st(1, 0, 4);
    a.fence(FenceRole::Critical);
    a.ld(5, 2, 0);
    a.st(3, 0, 5);
    a.halt();
    return a.finish();
}

} // namespace

TEST(FenceProfiler, RecordsOneLifecycle)
{
    FenceProfiler p(/*keep_raw=*/true);
    uint64_t id = p.onIssue(2, FenceKind::WeeWeak, 100);
    EXPECT_NE(id, 0u);
    p.onGrtDeposit(id, 3, 105);
    p.onGrtReply(id, 130);
    p.onBsInsert(id);
    p.onBsInsert(id);
    p.onBounce(id);
    p.onStoreNack(id);
    p.onRemotePsHold(id);
    p.onComplete(id, 400);

    EXPECT_EQ(p.issued(), 1u);
    EXPECT_EQ(p.completed(), 1u);
    EXPECT_EQ(p.instants(), 0u);
    ASSERT_EQ(p.raw().size(), 1u);
    const FenceRecord &r = p.raw().front();
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.core, 2u);
    EXPECT_EQ(r.kind, FenceKind::WeeWeak);
    EXPECT_EQ(r.issuedAt, 100u);
    EXPECT_EQ(r.completedAt, 400u);
    EXPECT_EQ(r.latency(), 300u);
    EXPECT_EQ(r.grtDepositAt, 105u);
    EXPECT_EQ(r.grtReplyAt, 130u);
    EXPECT_EQ(r.grtWait(), 25u);
    EXPECT_EQ(r.psLines, 3u);
    EXPECT_EQ(r.bsInserts, 2u);
    EXPECT_EQ(r.bounces, 1u);
    EXPECT_EQ(r.storeNacks, 1u);
    EXPECT_EQ(r.remotePsHolds, 1u);
    EXPECT_EQ(p.latencyHist().count(), 1u);
    ASSERT_EQ(p.slowest().size(), 1u);
    EXPECT_EQ(p.slowest().front().id, id);
}

TEST(FenceProfiler, SlowestIsSortedDescending)
{
    FenceProfiler p;
    for (Tick lat : {50u, 300u, 10u, 200u}) {
        uint64_t id = p.onIssue(0, FenceKind::Weak, 1000);
        p.onComplete(id, 1000 + lat);
    }
    ASSERT_EQ(p.slowest().size(), 4u);
    for (size_t i = 1; i < p.slowest().size(); i++)
        EXPECT_GE(p.slowest()[i - 1].latency(),
                  p.slowest()[i].latency());
    EXPECT_EQ(p.slowest().front().latency(), 300u);
}

TEST(FenceProfiler, SquashedFenceIsDroppedNotFolded)
{
    FenceProfiler p(/*keep_raw=*/true);
    uint64_t id = p.onIssue(1, FenceKind::Weak, 10);
    p.onSquashed(id);
    EXPECT_EQ(p.issued(), 1u);
    EXPECT_EQ(p.completed(), 0u);
    EXPECT_TRUE(p.raw().empty());
    EXPECT_EQ(p.latencyHist().count(), 0u);
    // Late hooks for the dropped id are ignored, not a crash.
    p.onBounce(id);
    p.onComplete(id, 50);
    EXPECT_EQ(p.completed(), 0u);
}

TEST(FenceProfiler, InstantFencesCountSeparately)
{
    FenceProfiler p;
    p.onInstant(0, FenceKind::Strong, 5);
    p.onInstant(1, FenceKind::Weak, 6);
    EXPECT_EQ(p.instants(), 2u);
    EXPECT_EQ(p.completed(), 0u);
}

TEST(FenceProfileIntegration, BounceRecordedOnFencedCore)
{
    // Core 0's BS bounces core 1's invalidation: core 0's fence record
    // must show the bounce, with an ordered timeline.
    SystemConfig cfg = smallConfig(FenceDesign::WSPlus, 2);
    cfg.fenceProfileRaw = true;
    System sys(cfg);
    Addr x = 0x1000, y = 0x2000;
    sys.loadProgram(0, share(fencedPair(x, y, 0x3000, 600)));
    Assembler b("latewriter");
    b.li(1, int64_t(y));
    b.ld(2, 1, 0);
    b.compute(650);
    b.li(2, 7);
    b.st(1, 0, 2);
    b.halt();
    sys.loadProgram(1, share(b.finish()));
    runToCompletion(sys);

    ASSERT_NE(sys.fenceProfiler(), nullptr);
    const FenceProfiler &p = *sys.fenceProfiler();
    EXPECT_EQ(p.issued(), p.completed() + p.instants());
    EXPECT_GE(p.completed(), 1u);
    bool found_bounce = false;
    for (const FenceRecord &r : p.raw()) {
        EXPECT_GT(r.issuedAt, 0u);
        EXPECT_GE(r.completedAt, r.issuedAt);
        if (r.core == 0 && r.bounces >= 1)
            found_bounce = true;
    }
    EXPECT_TRUE(found_bounce)
        << "no fence record on core 0 saw a BS bounce";
}

TEST(FenceProfileIntegration, WeeGrtTimestampsOrdered)
{
    SystemConfig cfg = smallConfig(FenceDesign::Wee, 4);
    cfg.fenceProfileRaw = true;
    System sys(cfg);
    sys.loadProgram(0, share(fencedPair(0x1200, 0x1400, 0x3000, 600)));
    sys.loadProgram(3, share(fencedPair(0x1400, 0x1200, 0x3020, 600)));
    runToCompletion(sys);

    ASSERT_NE(sys.fenceProfiler(), nullptr);
    bool found_deposit = false;
    for (const FenceRecord &r : sys.fenceProfiler()->raw()) {
        if (r.grtDepositAt == 0)
            continue;
        found_deposit = true;
        EXPECT_GE(r.grtDepositAt, r.issuedAt);
        if (r.grtReplyAt) {
            EXPECT_GE(r.grtReplyAt, r.grtDepositAt);
        }
        EXPECT_GE(r.completedAt, r.grtDepositAt);
        EXPECT_GE(r.psLines, 1u);
    }
    EXPECT_TRUE(found_deposit) << "no fence deposited a Pending Set";
}

TEST(FenceProfileIntegration, StatsJsonCarriesProfileObject)
{
    System sys(smallConfig(FenceDesign::WSPlus, 2));
    sys.loadProgram(0, share(fencedPair(0x1000, 0x2000, 0x3000, 600)));
    runToCompletion(sys);
    std::ostringstream os;
    sys.dumpStatsJson(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schemaVersion\":4"), std::string::npos);
    EXPECT_NE(doc.find("\"fenceProfile\":"), std::string::npos);
    EXPECT_NE(doc.find("\"latency\":"), std::string::npos);
    EXPECT_NE(doc.find("\"p99\":"), std::string::npos);
    EXPECT_NE(doc.find("\"slowest\":"), std::string::npos);
    EXPECT_NE(doc.find("\"cpiStack\":"), std::string::npos);
    EXPECT_NE(doc.find("\"watchdog\":"), std::string::npos);
    // include_profile = false drops exactly the fenceProfile object.
    std::ostringstream bare;
    sys.dumpStatsJson(bare, /*include_profile=*/false);
    EXPECT_EQ(bare.str().find("\"fenceProfile\":"), std::string::npos);
    EXPECT_NE(bare.str().find("\"cpiStack\":"), std::string::npos);
}

TEST(FenceProfileIntegration, RawJsonlOneObjectPerFence)
{
    SystemConfig cfg = smallConfig(FenceDesign::WSPlus, 2);
    cfg.fenceProfileRaw = true;
    System sys(cfg);
    sys.loadProgram(0, share(fencedPair(0x1000, 0x2000, 0x3000, 600)));
    runToCompletion(sys);
    ASSERT_NE(sys.fenceProfiler(), nullptr);
    std::ostringstream os;
    sys.fenceProfiler()->dumpRawJsonl(os);
    const std::string dump = os.str();
    size_t lines = 0;
    for (char c : dump)
        lines += c == '\n';
    EXPECT_EQ(lines, sys.fenceProfiler()->raw().size());
    EXPECT_NE(dump.find("\"id\":"), std::string::npos);
    EXPECT_NE(dump.find("\"issuedAt\":"), std::string::npos);
}

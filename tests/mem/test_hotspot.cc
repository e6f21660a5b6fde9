/**
 * Per-line hot-spot attribution tests: Space-Saving sketch mechanics
 * (eviction, error bounds, determinism), the observation-only
 * guarantee (tracker on/off is bit-identical), and the anti-vacuity
 * property that on real contended kernels (Dekker, bakery) the
 * synchronization lines actually rank at the top.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "../helpers.hh"
#include "analysis/corpus.hh"
#include "analysis/synth.hh"
#include "mem/address.hh"
#include "mem/hotspot.hh"
#include "sim/rng.hh"
#include "workloads/ustm.hh"

using namespace asf;
using namespace asf::test;
using namespace asf::workloads;

namespace
{

Addr
lineAddr(unsigned i)
{
    return Addr(0x10000) + Addr(i) * lineBytes;
}

} // namespace

TEST(HotLineTracker, CountsAndAttributesPerLine)
{
    HotLineTracker t(8);
    t.record(lineAddr(0), HotEvent::Bounce);
    t.record(lineAddr(0), HotEvent::Bounce);
    t.record(lineAddr(0), HotEvent::NackX);
    t.record(lineAddr(1), HotEvent::L2Miss);
    // Sub-line addresses charge the containing line.
    t.record(lineAddr(0) + 8, HotEvent::Bounce);

    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.totalRecorded(), 5u);
    EXPECT_EQ(t.evictions(), 0u);
    auto top = t.top();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].line, lineAddr(0));
    EXPECT_EQ(top[0].count, 4u);
    EXPECT_EQ(top[0].error, 0u);
    EXPECT_EQ(top[0].byEvent[unsigned(HotEvent::Bounce)], 3u);
    EXPECT_EQ(top[0].byEvent[unsigned(HotEvent::NackX)], 1u);
    EXPECT_EQ(top[1].count, 1u);
}

TEST(HotLineTracker, SharerPeakTracksMaximum)
{
    HotLineTracker t(4);
    t.recordSharers(lineAddr(0), 2);
    t.recordSharers(lineAddr(0), 7);
    t.recordSharers(lineAddr(0), 3);
    auto top = t.top();
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].sharerPeak, 7u);
    EXPECT_EQ(top[0].count, 3u);
    EXPECT_EQ(top[0].byEvent[unsigned(HotEvent::SharerProbe)], 3u);
}

TEST(HotLineTracker, SpaceSavingEvictsMinimumAndInheritsError)
{
    HotLineTracker t(2);
    t.record(lineAddr(0), HotEvent::Bounce, 5);
    t.record(lineAddr(1), HotEvent::Bounce, 2);
    // Table full; a new line evicts line 1 (the minimum) and inherits
    // its count of 2 as the overestimation bound.
    t.record(lineAddr(2), HotEvent::Bounce);
    EXPECT_EQ(t.evictions(), 1u);
    EXPECT_EQ(t.size(), 2u);
    auto top = t.top();
    EXPECT_EQ(top[0].line, lineAddr(0));
    EXPECT_EQ(top[0].count, 5u);
    EXPECT_EQ(top[1].line, lineAddr(2));
    EXPECT_EQ(top[1].count, 3u); // inherited 2 + its own 1
    EXPECT_EQ(top[1].error, 2u);
    // Attribution never inherits: only the newcomer's own event.
    EXPECT_EQ(top[1].byEvent[unsigned(HotEvent::Bounce)], 1u);
}

TEST(HotLineTracker, EvictionTieBreaksOnLowerAddress)
{
    HotLineTracker t(2);
    t.record(lineAddr(3), HotEvent::Bounce);
    t.record(lineAddr(1), HotEvent::Bounce);
    // Both counts are 1: the lower address (line 1) must be evicted.
    t.record(lineAddr(5), HotEvent::Bounce);
    auto top = t.top();
    ASSERT_EQ(top.size(), 2u);
    std::map<Addr, uint64_t> by_line;
    for (const auto &e : top)
        by_line[e.line] = e.count;
    EXPECT_TRUE(by_line.count(lineAddr(3)));
    EXPECT_TRUE(by_line.count(lineAddr(5)));
    EXPECT_FALSE(by_line.count(lineAddr(1)));
}

TEST(HotLineTracker, HeavyHitterSurvivesStreamingTail)
{
    // The Space-Saving guarantee: any line with true frequency > N/K
    // is present in the table, no matter how the tail streams through.
    constexpr unsigned K = 8;
    HotLineTracker t(K);
    uint64_t n = 0;
    // Hitter: 500 of 1450 total events; N/K ~= 181, so the guarantee
    // (true frequency > N/K implies presence) applies to it alone.
    for (unsigned round = 0; round < 50; round++) {
        t.record(lineAddr(0), HotEvent::Bounce, 10); // the heavy hitter
        n += 10;
        for (unsigned i = 1; i < 20; i++) { // one-touch tail
            t.record(lineAddr(100 + round * 20 + i), HotEvent::L2Miss);
            n++;
        }
    }
    EXPECT_EQ(t.totalRecorded(), n);
    EXPECT_GT(t.evictions(), 0u);
    auto top = t.top();
    bool found = false;
    for (const auto &e : top)
        if (e.line == lineAddr(0)) {
            found = true;
            // count is an upper bound, count - error a lower bound.
            EXPECT_GE(e.count, 500u);
            EXPECT_GE(e.count - e.error, 1u);
        }
    EXPECT_TRUE(found) << "heavy hitter evicted despite f > N/K";
    // Any tail line's count is bounded by min+1 <= N/K + 1 < 500, so
    // the hitter must also rank first.
    EXPECT_EQ(top[0].line, lineAddr(0));
}

TEST(HotLineTracker, ResetForgetsEverything)
{
    HotLineTracker t(2);
    t.record(lineAddr(0), HotEvent::Bounce);
    t.record(lineAddr(1), HotEvent::Bounce);
    t.record(lineAddr(2), HotEvent::Bounce);
    t.reset();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.totalRecorded(), 0u);
    EXPECT_EQ(t.evictions(), 0u);
    t.record(lineAddr(5), HotEvent::NackCO);
    auto top = t.top();
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].error, 0u);
}

namespace
{

/** Reference model: Space-Saving with a linear scan for the victim,
 *  as the tracker worked before its min-heap. */
class ScanTracker
{
  public:
    explicit ScanTracker(unsigned capacity) : capacity_(capacity) {}

    void
    record(Addr line, HotEvent ev, uint64_t w)
    {
        if (w == 0)
            return;
        totalRecorded += w;
        touch(lineAlign(line), w).byEvent[unsigned(ev)] += w;
    }

    void
    recordSharers(Addr line, unsigned sharers)
    {
        totalRecorded += 1;
        HotLineTracker::Entry &e = touch(lineAlign(line), 1);
        e.byEvent[unsigned(HotEvent::SharerProbe)] += 1;
        e.sharerPeak = std::max(e.sharerPeak, sharers);
    }

    std::vector<HotLineTracker::Entry>
    top() const
    {
        std::vector<HotLineTracker::Entry> out = entries_;
        std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
            return a.count != b.count ? a.count > b.count : a.line < b.line;
        });
        return out;
    }

    void
    reset()
    {
        entries_.clear();
        index_.clear();
        totalRecorded = 0;
        evictions = 0;
    }

    uint64_t totalRecorded = 0;
    uint64_t evictions = 0;

  private:
    HotLineTracker::Entry &
    touch(Addr line, uint64_t w)
    {
        auto it = index_.find(line);
        if (it != index_.end()) {
            entries_[it->second].count += w;
            return entries_[it->second];
        }
        if (entries_.size() < capacity_) {
            index_[line] = entries_.size();
            entries_.push_back(HotLineTracker::Entry{});
            entries_.back().line = line;
            entries_.back().count = w;
            return entries_.back();
        }
        size_t min_i = 0;
        for (size_t i = 1; i < entries_.size(); i++) {
            if (entries_[i].count < entries_[min_i].count ||
                (entries_[i].count == entries_[min_i].count &&
                 entries_[i].line < entries_[min_i].line))
                min_i = i;
        }
        HotLineTracker::Entry &e = entries_[min_i];
        index_.erase(e.line);
        index_[line] = min_i;
        uint64_t inherited = e.count;
        e = HotLineTracker::Entry{};
        e.line = line;
        e.count = inherited + w;
        e.error = inherited;
        evictions++;
        return e;
    }

    unsigned capacity_;
    std::vector<HotLineTracker::Entry> entries_;
    std::map<Addr, size_t> index_;
};

/** First difference between two rankings, or "" when identical. */
std::string
rankingDiff(const std::vector<HotLineTracker::Entry> &got,
            const std::vector<HotLineTracker::Entry> &want)
{
    if (got.size() != want.size())
        return "size " + std::to_string(got.size()) + " vs " +
               std::to_string(want.size());
    for (size_t i = 0; i < got.size(); i++) {
        const auto &g = got[i];
        const auto &w = want[i];
        bool same = g.line == w.line && g.count == w.count &&
                    g.error == w.error && g.sharerPeak == w.sharerPeak &&
                    std::equal(std::begin(g.byEvent), std::end(g.byEvent),
                               std::begin(w.byEvent));
        if (!same) {
            std::ostringstream os;
            os << "rank " << i << ": line " << std::hex << g.line << " vs "
               << w.line << std::dec << ", count " << g.count << " vs "
               << w.count << ", error " << g.error << " vs " << w.error;
            return os.str();
        }
    }
    return "";
}

} // namespace

/** The heap must evict exactly what the linear scan evicted: lowest
 *  count, ties to the lower address. One seeded stream with hot lines
 *  that survive, a tail that churns, weights 1-3, bursts of fresh
 *  lines that tie on count, and a reset halfway. */
TEST(HotLineTracker, HeapEvictionMatchesLinearScan)
{
    constexpr unsigned kCalls = 100'000;
    for (unsigned capacity : {1u, 2u, 8u, 64u}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        HotLineTracker heap(capacity);
        ScanTracker scan(capacity);
        Rng rng(7 + capacity);
        Addr fresh = 1u << 30; // burst lines, handed out downwards
        for (unsigned i = 0; i < kCalls; i++) {
            if (i == kCalls / 2) {
                heap.reset();
                scan.reset();
            }
            if (i % 5000 == 4999) {
                // Fresh lines at weight 1, descending addresses: each
                // one lands on the current minimum count, so the table
                // fills with equal counts and the tie-break decides.
                for (unsigned b = 0; b < 2 * capacity; b++) {
                    fresh -= lineBytes;
                    heap.record(fresh, HotEvent::L2Miss, 1);
                    scan.record(fresh, HotEvent::L2Miss, 1);
                }
            }
            uint64_t tier = rng.range(10);
            unsigned pick = tier < 5   ? unsigned(rng.range(8))
                            : tier < 8 ? 8 + unsigned(rng.range(120))
                                       : 128 + unsigned(rng.range(4000));
            Addr line = lineAddr(pick) + wordBytes * rng.range(wordsPerLine);
            if (rng.range(4) == 0) {
                unsigned sharers = unsigned(rng.range(64));
                heap.recordSharers(line, sharers);
                scan.recordSharers(line, sharers);
            } else {
                auto ev = HotEvent(rng.range(numHotEvents));
                uint64_t w = 1 + rng.range(3);
                heap.record(line, ev, w);
                scan.record(line, ev, w);
            }
            if (i % 1000 == 999 || i + 1 == kCalls) {
                ASSERT_EQ(heap.totalRecorded(), scan.totalRecorded)
                    << "after call " << i;
                ASSERT_EQ(heap.evictions(), scan.evictions)
                    << "after call " << i;
                ASSERT_EQ(rankingDiff(heap.top(), scan.top()), "")
                    << "after call " << i;
            }
        }
        EXPECT_GT(heap.evictions(), 0u);
    }
}

TEST(AddrLabels, LineGranularityLookup)
{
    AddrLabels labels;
    labels.label(lineAddr(1), "lock.word");
    EXPECT_EQ(labels.lookup(lineAddr(1)), "lock.word");
    EXPECT_EQ(labels.lookup(lineAddr(1) + lineBytes - 1), "lock.word");
    EXPECT_EQ(labels.lookup(lineAddr(2)), "");
    EXPECT_FALSE(labels.empty());
    labels.clear();
    EXPECT_TRUE(labels.empty());
}

namespace
{

void
runQuickUstm(FenceDesign design, bool hotline, Tick &cycles,
             std::string &json)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.design = design;
    cfg.hotLineTracking = hotline;
    System sys(cfg);
    setupTlrwWorkload(sys, ustmBenchByName("Hash"), /*txn_limit=*/0);
    ASSERT_EQ(sys.run(30'000), System::RunResult::MaxCycles);
    cycles = sys.now();
    std::ostringstream os;
    sys.dumpStatsJson(os, /*include_profile=*/true,
                      /*include_check=*/true,
                      /*include_observatory=*/false);
    json = os.str();
    EXPECT_EQ(hotline, sys.hotLines() != nullptr);
}

} // namespace

class HotspotIdentity : public ::testing::TestWithParam<FenceDesign>
{
};

/** Observation-only: tracking on/off must not perturb the simulation
 *  (cycles and the full stats JSON minus the hotLines block itself). */
TEST_P(HotspotIdentity, OnOffIsBitIdentical)
{
    Tick cycles_on = 0, cycles_off = 0;
    std::string json_on, json_off;
    runQuickUstm(GetParam(), true, cycles_on, json_on);
    runQuickUstm(GetParam(), false, cycles_off, json_off);
    EXPECT_EQ(cycles_on, cycles_off);
    EXPECT_EQ(json_on, json_off);
}

// S+ (sharer probes, L2 misses), W+ (bounces, NACKs, BS conflicts) and
// Wee (GRT deposits/blocks) cover every attribution hook.
INSTANTIATE_TEST_SUITE_P(QuickFig10, HotspotIdentity,
                         ::testing::Values(FenceDesign::SPlus,
                                           FenceDesign::WPlus,
                                           FenceDesign::Wee),
                         [](const auto &info) {
                             std::string n = fenceDesignName(info.param);
                             for (auto &c : n)
                                 if (c == '+')
                                     c = 'p';
                             return n;
                         });

namespace
{

/** Run a synthesis-corpus kit like the harness does and return the
 *  system's hot-line ranking labels, top first. */
std::vector<std::string>
rankedLabels(const std::string &kit, size_t limit)
{
    analysis::CorpusEntry entry = analysis::buildCorpusEntry(kit);
    analysis::SynthResult synth = analysis::synthesize(entry.threads);
    SystemConfig cfg;
    cfg.numCores = unsigned(std::max<size_t>(4, entry.threads.size()));
    cfg.design = FenceDesign::SPlus;
    System sys(cfg);
    for (size_t t = 0; t < synth.fenced.size(); t++)
        sys.loadProgram(NodeId(t), synth.fenced[t]);
    if (entry.setup)
        entry.setup(sys);
    EXPECT_EQ(sys.run(entry.maxCycles), System::RunResult::AllDone);

    std::vector<std::string> labels;
    const HotLineTracker *hot = sys.hotLines();
    EXPECT_NE(hot, nullptr);
    for (const auto &e : hot->top()) {
        if (labels.size() == limit)
            break;
        labels.push_back(sys.addrLabels().lookup(e.line));
    }
    return labels;
}

} // namespace

/** Anti-vacuity: the attribution must actually find the contended
 *  synchronization lines, not just emit a well-formed block. Dekker's
 *  two flag/turn lines and bakery's ticket arrays are the known-hot
 *  lines of those kernels. */
TEST(HotspotRanking, DekkerFlagsRankTop)
{
    auto labels = rankedLabels("dekker", 2);
    ASSERT_EQ(labels.size(), 2u);
    // The spin targets (a flag line and the turn word, in either
    // order) must out-rank the counter and everything else; at least
    // one of the top two is a flag line.
    for (const auto &l : labels)
        EXPECT_TRUE(l.rfind("dekker.", 0) == 0 && l != "dekker.counter")
            << "unexpected hot line: '" << l << "'";
    EXPECT_TRUE(labels[0].rfind("dekker.flag", 0) == 0 ||
                labels[1].rfind("dekker.flag", 0) == 0)
        << "no dekker flag line in the top 2 ('" << labels[0]
        << "', '" << labels[1] << "')";
}

TEST(HotspotRanking, BakeryTicketLinesRankTop)
{
    auto labels = rankedLabels("bakery", 2);
    ASSERT_EQ(labels.size(), 2u);
    EXPECT_TRUE(labels[0] == "bakery.E[]" || labels[0] == "bakery.N[]")
        << "top line is '" << labels[0] << "'";
}

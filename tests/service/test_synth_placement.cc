/**
 * Synth jobs through the campaign service: a kit's minimized fence
 * placement is filed once in the result cache and shared by the jobs
 * of every design. A two-worker drain minimizes each kit once and
 * merges byte-identical to uncached serial runs; a malformed placement
 * object reads as a miss, is recomputed and rewritten, and never ends
 * the process; a placement from another binary is never reused and gc
 * prunes it; and callers sharing one cache object compute a missing
 * placement once, with a waiter taking over when the computing caller
 * throws.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../helpers.hh"
#include "analysis/corpus.hh"
#include "harness/experiment.hh"
#include "service/campaign.hh"
#include "service/config_key.hh"
#include "service/fsio.hh"
#include "service/json.hh"
#include "service/result_cache.hh"
#include "service/spec.hh"
#include "sim/trace.hh"

namespace fs = std::filesystem;

using namespace asf;
using namespace asf::harness;
using namespace asf::service;
using asf::test::TempDir;

namespace
{

/** Run one synth job on this thread and return its stats document. */
std::string
synthDoc(const std::string &kit, FenceDesign design)
{
    std::vector<std::string> docs;
    ScopedRunCapture capture(docs);
    ExperimentResult r = runSynthExperiment(kit, design);
    EXPECT_TRUE(r.valid) << r.validationError;
    EXPECT_FALSE(r.cacheHit);
    EXPECT_EQ(docs.size(), 1u);
    return docs.empty() ? "" : docs.front();
}

/** The kit's synthesized placement and the key it is minimized under. */
struct KitPlacement
{
    analysis::SynthResult synth;
    ConfigKey key;
};

KitPlacement
kitPlacement(const std::string &kit)
{
    analysis::CorpusEntry e = analysis::buildCorpusEntry(kit);
    KitPlacement kp;
    kp.synth = analysis::synthesize(e.threads);
    kp.key = makePlacementKey(kit, kp.synth.insertions,
                              e.minimizeOptions());
    return kp;
}

fs::path
placementPath(const std::string &cache_dir, const ConfigKey &key)
{
    return fs::path(cache_dir) / "objects" /
           (key.digest + ".placement.json");
}

/** Replace the first `from` in `s`; false when absent. */
bool
replaceFirst(std::string &s, const std::string &from,
             const std::string &to)
{
    size_t at = s.find(from);
    if (at == std::string::npos)
        return false;
    s.replace(at, from.size(), to);
    return true;
}

/** Restores this binary's own fingerprint on scope exit. */
struct FingerprintOverride
{
    explicit FingerprintOverride(const std::string &fp)
    {
        setBinaryFingerprintOverride(fp);
    }
    ~FingerprintOverride() { setBinaryFingerprintOverride(""); }
};

} // namespace

TEST(SynthPlacement, TwoWorkerDrainMinimizesEachKitOnce)
{
    // r is pruned to no fences, sb keeps its hand placement: neither
    // minimization is vacuous.
    const std::vector<std::string> specs = {
        "{\"workload\":\"synth:r\",\"designs\":"
        "[\"S+\",\"WS+\",\"SW+\",\"W+\",\"Wee\"]}",
        "{\"workload\":\"synth:sb\",\"designs\":"
        "[\"S+\",\"WS+\",\"SW+\",\"W+\",\"Wee\"]}",
    };
    TempDir tmp("synth_campaign");
    Campaign c;
    std::string error;
    ASSERT_TRUE(submitCampaign(tmp.path + "/camp", specs, "", "", c, error))
        << error;
    ASSERT_EQ(c.jobs.size(), 10u);

    RunOptions opt;
    opt.threads = 2;
    RunStats st = runCampaign(c, opt);
    EXPECT_EQ(st.executed, 10u);
    EXPECT_EQ(st.failures, 0u);
    EXPECT_EQ(st.cacheHits, 0u);
    EXPECT_EQ(st.placementsComputed, 2u);
    EXPECT_EQ(st.placementsReused, 8u);

    std::string merged_path = tmp.path + "/merged.json";
    ASSERT_TRUE(mergeCampaign(c, merged_path, error)) << error;

    // The same specs, serially, with no cache bound: every job runs
    // its own minimization.
    std::vector<std::string> docs;
    {
        ScopedActiveCache none(nullptr);
        ScopedRunCapture capture(docs);
        for (const ExperimentSpec &job : c.jobs)
            EXPECT_TRUE(runSpec(job).valid) << specLabel(job);
    }
    std::string serial = "{\"schemaVersion\":4,\"runs\":[";
    for (size_t i = 0; i < docs.size(); i++)
        serial += (i ? ",\n" : "\n") + docs[i];
    serial += "\n]}\n";
    EXPECT_EQ(readFile(merged_path).value_or(""), serial)
        << "the cached drain's merged log differs from uncached runs";
}

TEST(SynthPlacement, MalformedObjectsReadAsAMissAndAreRewritten)
{
    const KitPlacement sb = kitPlacement("sb");
    const KitPlacement r = kitPlacement("r");
    ASSERT_EQ(sb.synth.input.size(), 2u);
    const std::string reference = [] {
        ScopedActiveCache none(nullptr);
        return synthDoc("sb", FenceDesign::WPlus);
    }();

    struct Damage
    {
        const char *what;
        const char *reason; ///< expected in the miss warning
        std::function<bool(std::string &)> apply;
    };
    const std::vector<Damage> damages = {
        {"truncated JSON", "malformed",
         [](std::string &b) {
             b.resize(b.size() / 2);
             return true;
         }},
        {"wrong digest", "digest differs",
         [&](std::string &b) {
             return replaceFirst(b, sb.key.digest, std::string(64, '0'));
         }},
        {"another kit's canonical text", "canonical key text differs",
         [&](std::string &b) {
             return replaceFirst(b, jsonEscape(sb.key.canonical),
                                 jsonEscape(r.key.canonical));
         }},
        {"thread index beyond the thread count", "beyond the 2 threads",
         [](std::string &b) {
             return replaceFirst(b, "\"thread\":1,", "\"thread\":2,");
         }},
        {"beforePc past the program end", "past the end of thread",
         [&](std::string &b) {
             const FenceInsertion &f = sb.synth.insertions[0].at(0);
             return replaceFirst(
                 b, format("\"beforePc\":%llu,",
                           (unsigned long long)f.beforePc),
                 "\"beforePc\":100000,");
         }},
    };

    for (const Damage &d : damages) {
        SCOPED_TRACE(d.what);
        TempDir tmp("synth_placement");
        ResultCache cache(tmp.path);
        ScopedActiveCache bind(&cache);
        synthDoc("sb", FenceDesign::SPlus);
        ASSERT_EQ(cache.placementsComputed(), 1u);

        fs::path object = placementPath(tmp.path, sb.key);
        std::string bytes = readFile(object).value_or("");
        ASSERT_TRUE(d.apply(bytes)) << bytes;
        ASSERT_TRUE(atomicWrite(object, bytes));

        testing::internal::CaptureStderr();
        std::string doc = synthDoc("sb", FenceDesign::WPlus);
        std::string warnings = testing::internal::GetCapturedStderr();
        EXPECT_EQ(doc, reference);
        EXPECT_EQ(cache.placementsComputed(), 2u);
        EXPECT_EQ(cache.placementsReused(), 0u);
        EXPECT_NE(warnings.find(d.reason), std::string::npos)
            << warnings;

        // Rewritten: the next design's job reuses it.
        JsonValue v;
        std::string error;
        EXPECT_TRUE(parseJson(readFile(object).value_or(""), v, error))
            << error;
        synthDoc("sb", FenceDesign::Wee);
        EXPECT_EQ(cache.placementsComputed(), 2u);
        EXPECT_EQ(cache.placementsReused(), 1u);
    }
}

TEST(SynthPlacement, ForeignBinaryPlacementIsNeverReusedAndGcDropsIt)
{
    TempDir tmp("synth_placement");
    ResultCache cache(tmp.path);
    ScopedActiveCache bind(&cache);
    ConfigKey foreign;
    {
        FingerprintOverride other("0123-other-binary");
        foreign = kitPlacement("sb").key;
        synthDoc("sb", FenceDesign::SPlus);
    }
    ConfigKey ours = kitPlacement("sb").key;
    ASSERT_NE(foreign.digest, ours.digest);

    synthDoc("sb", FenceDesign::WPlus);
    EXPECT_EQ(cache.placementsComputed(), 2u);
    EXPECT_EQ(cache.placementsReused(), 0u);

    // Filed under this binary's digest, the foreign object still misses.
    std::string bytes =
        readFile(placementPath(tmp.path, foreign)).value_or("");
    ASSERT_TRUE(replaceFirst(bytes, foreign.digest, ours.digest));
    ASSERT_TRUE(atomicWrite(placementPath(tmp.path, ours), bytes));
    synthDoc("sb", FenceDesign::Wee);
    EXPECT_EQ(cache.placementsComputed(), 3u);
    EXPECT_EQ(cache.placementsReused(), 0u);

    // Three run entries and two placements; one of each is foreign.
    ResultCache::GcOptions opt;
    opt.currentFingerprintOnly = true;
    ResultCache::GcStats st = cache.gc(opt);
    EXPECT_EQ(st.scanned, 5u);
    EXPECT_EQ(st.removed, 2u);
    EXPECT_FALSE(fs::exists(placementPath(tmp.path, foreign)));
    EXPECT_TRUE(fs::exists(placementPath(tmp.path, ours)));
}

TEST(SynthPlacement, ConcurrentCallersComputeOnce)
{
    TempDir tmp("synth_placement");
    ResultCache cache(tmp.path);
    const KitPlacement sb = kitPlacement("sb");
    std::atomic<int> calls{0};
    auto compute = [&] {
        calls++;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return sb.synth.insertions;
    };
    Placement a, b;
    std::thread first(
        [&] { a = cache.placement(sb.key, sb.synth, compute); });
    std::thread second(
        [&] { b = cache.placement(sb.key, sb.synth, compute); });
    first.join();
    second.join();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(a, sb.synth.insertions);
    EXPECT_EQ(b, sb.synth.insertions);
    EXPECT_EQ(cache.placementsComputed(), 1u);
    EXPECT_EQ(cache.placementsReused(), 1u);
}

TEST(SynthPlacement, WaiterTakesOverWhenTheComputingCallerThrows)
{
    TempDir tmp("synth_placement");
    ResultCache cache(tmp.path);
    const KitPlacement sb = kitPlacement("sb");
    std::promise<void> entered, release;
    std::shared_future<void> gate = release.get_future().share();

    auto failing = std::async(std::launch::async, [&] {
        cache.placement(sb.key, sb.synth, [&]() -> Placement {
            entered.set_value();
            gate.wait();
            throw std::runtime_error("worker failed");
        });
    });
    entered.get_future().wait();
    auto waiting = std::async(std::launch::async, [&] {
        return cache.placement(sb.key, sb.synth,
                               [&] { return sb.synth.insertions; });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();

    EXPECT_THROW(failing.get(), std::runtime_error);
    ASSERT_EQ(waiting.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "the waiter hung after the computing caller threw";
    EXPECT_EQ(waiting.get(), sb.synth.insertions);
    EXPECT_EQ(cache.placementsComputed(), 1u);
    EXPECT_EQ(cache.placementsReused(), 0u);
}

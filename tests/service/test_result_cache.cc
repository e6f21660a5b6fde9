/**
 * Content-addressed result store (src/service/result_cache.cc): a
 * stored run comes back with its exact stats-document bytes and its
 * full ExperimentResult; anything suspicious — unknown key, corrupt
 * doc, torn manifest, a design this binary does not know — is a miss,
 * never a wrong hit or a fatal error; gc prunes by
 * producing-binary fingerprint and cleans stray half-entries; and the
 * thread-scoped cache binding wins over the process-global one.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "../helpers.hh"
#include "harness/experiment.hh"
#include "service/config_key.hh"
#include "service/fsio.hh"
#include "service/result_cache.hh"
#include "sys/config.hh"

namespace fs = std::filesystem;

using namespace asf;
using namespace asf::harness;
using namespace asf::service;
using asf::test::TempDir;

namespace
{

ExperimentResult
sampleResult()
{
    ExperimentResult r;
    r.workload = "ustm:Hash";
    r.design = FenceDesign::WPlus;
    r.cores = 4;
    r.cycles = 30'000;
    r.tasks = 1;
    r.steals = 2;
    r.commits = 33;
    r.commitsRw = 4;
    r.aborts = 5;
    r.instrRetired = 123'456;
    r.fencesStrong = 6;
    r.fencesWeak = 7;
    r.weeDemotions = 8;
    r.bouncedWrites = 9;
    r.retriesPerBouncedWrite = 1.5;
    r.bsLinesPerWf = 2.25;
    r.wPlusRecoveries = 10;
    r.loadSquashes = 11;
    r.bytesBase = 12;
    r.bytesRetry = 13;
    r.bytesGrt = 14;
    r.valid = true;
    r.watchdogFired = false;
    r.checkVerdict = "pass";
    r.breakdown.busy = 20;
    r.breakdown.fenceStall = 21;
    r.breakdown.otherStall = 22;
    r.breakdown.idle = 23;
    for (unsigned i = 0; i < numStallBuckets; i++)
        r.breakdown.stall[i] = i * 7;
    return r;
}

ConfigKey
sampleKey(uint64_t seed = 1)
{
    SystemConfig cfg;
    cfg.seed = seed;
    return makeConfigKey(cfg, "ustm:Hash/W+/4c", "budget 30000");
}

const std::string kDoc = "{\"workload\":\"ustm:Hash\",\"cycles\":1}";

} // namespace

TEST(ResultCache, StoreLookupRoundtrip)
{
    TempDir tmp("cache");
    ResultCache cache(tmp.path);
    ConfigKey key = sampleKey();
    ExperimentResult r = sampleResult();

    EXPECT_FALSE(cache.contains(key));
    EXPECT_FALSE(cache.lookup(key).has_value());

    cache.store(key, r, kDoc, 123.5);
    EXPECT_TRUE(cache.contains(key));

    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->doc, kDoc);
    EXPECT_DOUBLE_EQ(hit->wallMsSaved, 123.5);
    EXPECT_TRUE(hit->result.cacheHit);

    const ExperimentResult &got = hit->result;
    EXPECT_EQ(got.workload, r.workload);
    EXPECT_EQ(got.design, r.design);
    EXPECT_EQ(got.cores, r.cores);
    EXPECT_EQ(got.cycles, r.cycles);
    EXPECT_EQ(got.commits, r.commits);
    EXPECT_EQ(got.instrRetired, r.instrRetired);
    EXPECT_DOUBLE_EQ(got.retriesPerBouncedWrite,
                     r.retriesPerBouncedWrite);
    EXPECT_DOUBLE_EQ(got.bsLinesPerWf, r.bsLinesPerWf);
    EXPECT_EQ(got.valid, r.valid);
    EXPECT_EQ(got.checkVerdict, r.checkVerdict);
    EXPECT_EQ(got.breakdown.busy, r.breakdown.busy);
    for (unsigned i = 0; i < numStallBuckets; i++)
        EXPECT_EQ(got.breakdown.stall[i], r.breakdown.stall[i]);

    EXPECT_EQ(cache.loadDoc(key.digest).value_or(""), kDoc);
    EXPECT_FALSE(cache.loadDoc(std::string(64, '0')).has_value());
}

TEST(ResultCache, DifferentKeyIsAMiss)
{
    TempDir tmp("cache");
    ResultCache cache(tmp.path);
    cache.store(sampleKey(1), sampleResult(), kDoc, 1.0);
    EXPECT_FALSE(cache.lookup(sampleKey(2)).has_value());
}

TEST(ResultCache, CorruptDocIsAMissNotAWrongHit)
{
    TempDir tmp("cache");
    ResultCache cache(tmp.path);
    ConfigKey key = sampleKey();
    cache.store(key, sampleResult(), kDoc, 1.0);

    // Flip the doc bytes out from under the manifest: the recorded
    // docDigest no longer matches, so the entry must read as a miss.
    fs::path doc =
        fs::path(tmp.path) / "objects" / (key.digest + ".doc.json");
    {
        std::ofstream f(doc, std::ios::trunc);
        f << "{\"workload\":\"tampered\"}";
    }
    EXPECT_FALSE(cache.lookup(key).has_value());

    // A fresh store repairs the entry.
    cache.store(key, sampleResult(), kDoc, 1.0);
    ASSERT_TRUE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.lookup(key)->doc, kDoc);
}

TEST(ResultCache, TornManifestIsAMiss)
{
    TempDir tmp("cache");
    ResultCache cache(tmp.path);
    ConfigKey key = sampleKey();
    cache.store(key, sampleResult(), kDoc, 1.0);

    fs::path manifest = fs::path(tmp.path) / "objects" /
                        (key.digest + ".manifest.json");
    {
        std::ofstream f(manifest, std::ios::trunc);
        f << "{\"schemaVersion\":1,\"dig"; // torn mid-write
    }
    EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(ResultCache, UnknownDesignInManifestIsAMissNotFatal)
{
    // A manifest naming a design this binary does not know used to end
    // the process; it must read as a miss, and the fresh run must
    // overwrite the entry.
    TempDir tmp("cache");
    ResultCache cache(tmp.path);
    ScopedActiveCache bind(&cache);
    const workloads::TlrwBench &bench =
        workloads::ustmBenchByName("Counter");
    ExperimentResult cold =
        runUstmExperiment(bench, FenceDesign::WPlus, 4, 5000);
    ASSERT_FALSE(cold.cacheHit);

    fs::path manifest = fs::path(tmp.path) / "objects" /
                        (cold.configDigest + ".manifest.json");
    std::string bytes = readFile(manifest).value_or("");
    const std::string design = "\"design\":\"W+\"";
    size_t at = bytes.find(design);
    ASSERT_NE(at, std::string::npos) << bytes;
    bytes.replace(at, design.size(), "\"design\":\"W++\"");
    ASSERT_TRUE(atomicWrite(manifest, bytes));

    ExperimentResult rerun =
        runUstmExperiment(bench, FenceDesign::WPlus, 4, 5000);
    EXPECT_FALSE(rerun.cacheHit);
    EXPECT_EQ(rerun.cycles, cold.cycles);
    EXPECT_EQ(rerun.commits, cold.commits);

    ExperimentResult warm =
        runUstmExperiment(bench, FenceDesign::WPlus, 4, 5000);
    EXPECT_TRUE(warm.cacheHit) << "the rerun did not repair the entry";
    EXPECT_EQ(warm.design, FenceDesign::WPlus);
}

TEST(ResultCache, GcDropsForeignBinaries)
{
    TempDir tmp("cache");
    ResultCache cache(tmp.path);

    // One entry produced by "another binary" (overridden fingerprint;
    // the override also flows into the key digest, as it must), one
    // by this one.
    setBinaryFingerprintOverride("0123-other-binary");
    ConfigKey foreign = sampleKey(1);
    cache.store(foreign, sampleResult(), kDoc, 1.0);
    setBinaryFingerprintOverride("");
    ConfigKey ours = sampleKey(2);
    cache.store(ours, sampleResult(), kDoc, 1.0);
    ASSERT_NE(foreign.digest, ours.digest);

    ResultCache::GcOptions opt;
    opt.currentFingerprintOnly = true;
    ResultCache::GcStats st = cache.gc(opt);
    EXPECT_EQ(st.scanned, 2u);
    EXPECT_EQ(st.removed, 1u);
    EXPECT_GT(st.bytesFreed, 0u);
    EXPECT_GT(st.bytesKept, 0u);

    EXPECT_FALSE(cache.contains(foreign));
    EXPECT_TRUE(cache.contains(ours));
}

TEST(ResultCache, GcSweepsOrphanedHalfEntries)
{
    TempDir tmp("cache");
    ResultCache cache(tmp.path);
    cache.store(sampleKey(), sampleResult(), kDoc, 1.0);

    // A doc with no manifest (crash between the two writes) and a
    // stray temp file (crash before rename) are both swept.
    fs::path objects = fs::path(tmp.path) / "objects";
    std::string fake(64, 'a');
    { std::ofstream f(objects / (fake + ".doc.json")); f << "{}"; }
    { std::ofstream f(objects / "x.doc.json.tmp.123"); f << "junk"; }

    ResultCache::GcStats st = cache.gc({});
    EXPECT_EQ(st.removed, 0u);
    EXPECT_EQ(st.orphans, 2u);
    EXPECT_FALSE(fs::exists(objects / (fake + ".doc.json")));
    EXPECT_TRUE(cache.contains(sampleKey()));
}

TEST(ResultCache, ThreadBindingWinsOverGlobal)
{
    TempDir a("cache_a"), b("cache_b");
    setGlobalResultCacheDir(a.path);
    ResultCache *global = activeResultCache();
    ASSERT_NE(global, nullptr);
    EXPECT_EQ(global->dir(), a.path);

    {
        ResultCache mine(b.path);
        ScopedActiveCache bind(&mine);
        EXPECT_EQ(activeResultCache(), &mine);
        {
            // Explicit "no cache" binding shadows everything.
            ScopedActiveCache none(nullptr);
            EXPECT_EQ(activeResultCache(), nullptr);
        }
        EXPECT_EQ(activeResultCache(), &mine);
    }
    ASSERT_NE(activeResultCache(), nullptr);
    EXPECT_EQ(activeResultCache()->dir(), a.path);

    setGlobalResultCacheDir("");
    EXPECT_EQ(activeResultCache(), nullptr);
}

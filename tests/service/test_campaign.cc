/**
 * The campaign protocol (src/service/campaign.cc), exercised fully
 * in-process: spec-line expansion and submit idempotence; the
 * crash-resume invariant (a run killed mid-flight re-executes exactly
 * the jobs without completion records, including one whose claim the
 * crash left dangling); warm re-runs served entirely from the result
 * cache with a byte-identical merged stats log; shard workers
 * draining disjoint slices to the same merged bytes as a serial
 * drain; and claim files held by a live foreign owner being respected
 * rather than stolen.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../helpers.hh"
#include "service/campaign.hh"
#include "service/result_cache.hh"
#include "service/spec.hh"

namespace fs = std::filesystem;

using namespace asf;
using namespace asf::service;
using asf::test::TempDir;

namespace
{

/** Four quick jobs: one ustm bench under all four paper designs. */
const std::vector<std::string> &
quickSpecs()
{
    static const std::vector<std::string> lines = {
        "{\"workload\":\"ustm:Hash\",\"designs\":"
        "[\"S+\",\"WS+\",\"W+\",\"Wee\"],"
        "\"cores\":2,\"cycles\":20000}",
    };
    return lines;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

size_t
doneRecords(const Campaign &c)
{
    size_t n = 0;
    std::error_code ec;
    for (const auto &e :
         fs::directory_iterator(fs::path(c.dir) / "done", ec))
        n += e.path().extension() == ".json";
    return n;
}

} // namespace

TEST(Campaign, SpecLineCrossProductDesignsOuter)
{
    std::vector<ExperimentSpec> jobs;
    std::string error;
    ASSERT_TRUE(expandSpecLine(
        "{\"workload\":\"ustm:Hash\",\"designs\":[\"S+\",\"W+\"],"
        "\"cores\":[2,4],\"cycles\":1000}",
        jobs, error))
        << error;
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(specLabel(jobs[0]), "ustm:Hash/S+/2c");
    EXPECT_EQ(specLabel(jobs[1]), "ustm:Hash/S+/4c");
    EXPECT_EQ(specLabel(jobs[2]), "ustm:Hash/W+/2c");
    EXPECT_EQ(specLabel(jobs[3]), "ustm:Hash/W+/4c");

    // Comments and blank lines expand to nothing; junk is rejected
    // with a diagnostic, not a fatal.
    jobs.clear();
    EXPECT_TRUE(expandSpecLine("# comment", jobs, error));
    EXPECT_TRUE(expandSpecLine("   ", jobs, error));
    EXPECT_TRUE(jobs.empty());
    EXPECT_FALSE(expandSpecLine(
        "{\"workload\":\"ustm:NoSuchBench\",\"cycles\":1}", jobs,
        error));
    EXPECT_FALSE(error.empty());
}

TEST(Campaign, SubmitIsIdempotentForIdenticalJobLists)
{
    TempDir tmp("campaign");
    std::string dir = tmp.path + "/camp";
    Campaign a, b;
    std::string error;
    ASSERT_TRUE(submitCampaign(dir, quickSpecs(), "", "", a, error))
        << error;
    EXPECT_EQ(a.jobs.size(), 4u);
    EXPECT_EQ(a.name, "camp");
    EXPECT_EQ(a.cacheDir, (fs::path(dir) / "cache").string());

    // Same list again: fine. A different list: refused, because the
    // existing completion records would be misattributed.
    EXPECT_TRUE(submitCampaign(dir, quickSpecs(), "", "", b, error));
    std::vector<std::string> other = {
        "{\"workload\":\"ustm:Hash\",\"design\":\"S+\","
        "\"cores\":2,\"cycles\":999}"};
    EXPECT_FALSE(submitCampaign(dir, other, "", "", b, error));
    EXPECT_FALSE(error.empty());

    Campaign loaded;
    ASSERT_TRUE(loadCampaign(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.jobs.size(), 4u);
    EXPECT_EQ(specLabel(loaded.jobs[2]), specLabel(a.jobs[2]));
}

TEST(Campaign, CrashResumeExecutesOnlyIncompleteJobs)
{
    TempDir tmp("campaign");
    std::string dir = tmp.path + "/camp";
    Campaign c;
    std::string error;
    ASSERT_TRUE(submitCampaign(dir, quickSpecs(), "", "", c, error))
        << error;

    // "Crash" after two jobs: the third is claimed but abandoned —
    // the same on-disk state a kill -9 mid-job leaves behind.
    RunOptions crash;
    crash.abortAfter = 2;
    RunStats st = runCampaign(c, crash);
    EXPECT_TRUE(st.aborted);
    EXPECT_EQ(st.executed, 2u);
    EXPECT_EQ(st.failures, 0u);
    EXPECT_EQ(doneRecords(c), 2u);

    CampaignStatus mid = campaignStatus(c);
    EXPECT_EQ(mid.done, 2u);
    EXPECT_EQ(mid.claimed, 1u); // the dangling claim
    EXPECT_EQ(mid.pending, 1u);

    // Resume: the dangling claim is stale (same pid, earlier run's
    // nonce) and must be taken over; exactly the two unfinished jobs
    // execute.
    RunStats resumed = runCampaign(c, {});
    EXPECT_FALSE(resumed.aborted);
    EXPECT_EQ(resumed.alreadyDone, 2u);
    EXPECT_EQ(resumed.executed, 2u);
    EXPECT_EQ(resumed.claimedElsewhere, 0u);

    CampaignStatus done = campaignStatus(c);
    EXPECT_EQ(done.done, 4u);
    EXPECT_EQ(done.claimed, 0u);
    EXPECT_EQ(done.pending, 0u);
    EXPECT_EQ(done.failures, 0u);

    std::string out = tmp.path + "/serial.json";
    ASSERT_TRUE(mergeCampaign(c, out, error)) << error;
    EXPECT_FALSE(slurp(out).empty());
}

TEST(Campaign, WarmRerunIsServedEntirelyFromTheCache)
{
    TempDir tmp("campaign");
    std::string dir = tmp.path + "/camp";
    Campaign c;
    std::string error;
    ASSERT_TRUE(submitCampaign(dir, quickSpecs(), "", "", c, error))
        << error;
    ASSERT_EQ(runCampaign(c, {}).failures, 0u);
    std::string cold = tmp.path + "/cold.json";
    ASSERT_TRUE(mergeCampaign(c, cold, error)) << error;

    // Drop the completion records but keep the cache: every job
    // "re-executes" as a pure cache hit and the merged stats log is
    // byte-identical — zero simulation behind it.
    std::error_code ec;
    for (const auto &e :
         fs::directory_iterator(fs::path(c.dir) / "done", ec))
        fs::remove(e.path(), ec);
    ASSERT_EQ(doneRecords(c), 0u);

    RunStats warm = runCampaign(c, {});
    EXPECT_EQ(warm.executed, 4u);
    EXPECT_EQ(warm.cacheHits, 4u);
    EXPECT_EQ(warm.failures, 0u);
    EXPECT_EQ(campaignStatus(c).cacheHits, 4u);

    std::string rerun = tmp.path + "/warm.json";
    ASSERT_TRUE(mergeCampaign(c, rerun, error)) << error;
    EXPECT_EQ(slurp(cold), slurp(rerun))
        << "warm merged log is not byte-identical to the cold one";
}

TEST(Campaign, ShardWorkersMatchSerialByteForByte)
{
    TempDir tmp("campaign");
    Campaign serial, sharded;
    std::string error;

    ASSERT_TRUE(submitCampaign(tmp.path + "/serial", quickSpecs(), "",
                               "", serial, error))
        << error;
    ASSERT_EQ(runCampaign(serial, {}).failures, 0u);
    std::string serial_out = tmp.path + "/serial.json";
    ASSERT_TRUE(mergeCampaign(serial, serial_out, error)) << error;

    // A second campaign over the same specs, drained by two shard
    // workers sharing the first campaign's cache (the shared-cache
    // deployment). Each worker executes exactly its slice, nothing
    // twice, and the merged log has the same bytes as the serial one.
    ASSERT_TRUE(submitCampaign(tmp.path + "/sharded", quickSpecs(), "",
                               serial.cacheDir, sharded, error))
        << error;
    for (unsigned shard = 0; shard < 2; shard++) {
        RunOptions opt;
        opt.shardIndex = shard;
        opt.shardCount = 2;
        RunStats st = runCampaign(sharded, opt);
        EXPECT_EQ(st.total, 2u);
        EXPECT_EQ(st.alreadyDone, 0u) << "shard " << shard;
        EXPECT_EQ(st.executed, 2u) << "shard " << shard;
        EXPECT_EQ(st.cacheHits, 2u)
            << "shard " << shard << " re-simulated shared-cache jobs";
    }
    EXPECT_EQ(doneRecords(sharded), 4u);

    std::string sharded_out = tmp.path + "/sharded.json";
    ASSERT_TRUE(mergeCampaign(sharded, sharded_out, error)) << error;
    EXPECT_EQ(slurp(serial_out), slurp(sharded_out))
        << "sharded merged log is not byte-identical to serial";
}

TEST(Campaign, LiveForeignClaimIsRespectedNotStolen)
{
    TempDir tmp("campaign");
    std::string dir = tmp.path + "/camp";
    Campaign c;
    std::string error;
    ASSERT_TRUE(submitCampaign(dir, quickSpecs(), "", "", c, error))
        << error;

    // Another live worker (pid 1 is always alive and never us) holds
    // job 0. This run must leave it alone and drain the rest.
    fs::create_directories(fs::path(dir) / "claims");
    {
        std::ofstream f(fs::path(dir) / "claims" / "job-0.json");
        f << "{\"pid\":1,\"nonce\":\"someone-else\"}";
    }
    RunStats st = runCampaign(c, {});
    EXPECT_EQ(st.claimedElsewhere, 1u);
    EXPECT_EQ(st.executed, 3u);
    EXPECT_EQ(doneRecords(c), 3u);
    EXPECT_EQ(campaignStatus(c).claimed, 1u);

    EXPECT_FALSE(mergeCampaign(c, tmp.path + "/partial.json", error))
        << "merge must refuse an incomplete campaign";

    // The foreign worker "dies": its claim is now stale, the resume
    // takes it over and finishes the campaign.
    fs::remove(fs::path(dir) / "claims" / "job-0.json");
    RunStats fin = runCampaign(c, {});
    EXPECT_EQ(fin.alreadyDone, 3u);
    EXPECT_EQ(fin.executed, 1u);
    EXPECT_EQ(campaignStatus(c).done, 4u);
    ASSERT_TRUE(mergeCampaign(c, tmp.path + "/full.json", error))
        << error;
}

/**
 * @file
 * Persistent, resumable experiment campaigns. A campaign is a
 * directory:
 *
 *   campaign.jsonl     expanded job list, one ExperimentSpec per line
 *                      (line i IS job i; written once at submit)
 *   meta.json          campaign name, cache directory, schema version
 *   done/job-<i>.json  completion record: the job's ConfigKey digest,
 *                      headline result, cache-hit flag, wall time
 *   claims/job-<i>.json  liveness lease while a worker executes job i
 *   <cache>/           content-addressed result store (shared; defaults
 *                      to <dir>/cache)
 *
 * The completion records are the source of truth: `run` executes
 * exactly the jobs with no record, so a campaign killed mid-flight
 * (kill -9 included) resumes where it stopped. Claims let N OS
 * processes — or `--shard i/N` slices — drain one campaign without
 * duplicating work: a claim is created O_EXCL, carries the owner's
 * pid + run nonce, and is stolen (atomically, by rename) only when the
 * owner is provably gone. Every file is written via temp + rename, so
 * no crash point leaves a torn record.
 */

#ifndef ASF_SERVICE_CAMPAIGN_HH
#define ASF_SERVICE_CAMPAIGN_HH

#include <string>
#include <vector>

#include "service/spec.hh"

namespace asf::service
{

inline constexpr unsigned kCampaignSchemaVersion = 1;

struct Campaign
{
    std::string dir;
    std::string name;
    std::string cacheDir;
    std::vector<ExperimentSpec> jobs; ///< job i = jobs[i]
};

/**
 * Create a campaign from spec lines (see expandSpecLine). Idempotent:
 * re-submitting an identical job list to an existing campaign succeeds
 * without touching its state; a different list is an error (make a new
 * directory instead — completion records would be misattributed).
 * `cache_dir` "" defaults to `<dir>/cache`.
 */
bool submitCampaign(const std::string &dir,
                    const std::vector<std::string> &spec_lines,
                    const std::string &name, const std::string &cache_dir,
                    Campaign &out, std::string &error);

/** Load an existing campaign (meta.json + campaign.jsonl). */
bool loadCampaign(const std::string &dir, Campaign &out,
                  std::string &error);

struct RunOptions
{
    /** Host worker threads (the sweep pool). */
    unsigned threads = 1;
    /** Shard slice: this worker only considers jobs with
     *  index % shardCount == shardIndex. */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /**
     * Crash hook for the resume tests and `--abort-after`: this run
     * executes at most N jobs, then *claims* its next job but abandons
     * it (no execution, no completion record, claim left dangling) and
     * skips the rest. A resume must detect the dangling claim as stale
     * and re-execute exactly the unfinished jobs.
     */
    size_t abortAfter = size_t(-1);
};

struct RunStats
{
    size_t total = 0;       ///< jobs in this worker's shard
    size_t alreadyDone = 0; ///< completion record existed
    size_t executed = 0;    ///< run by this worker (cache hits included)
    size_t cacheHits = 0;   ///< of executed, served from the cache
    size_t claimedElsewhere = 0; ///< another live worker held the claim
    size_t failures = 0;    ///< executed but result not valid
    bool aborted = false;   ///< stopped by abortAfter
    /** Synth placements minimized by this run's jobs, and served from
     *  the cache instead (ResultCache::placementsComputed/Reused). */
    size_t placementsComputed = 0;
    size_t placementsReused = 0;
};

/** Drain the campaign's incomplete jobs (this shard's slice). */
RunStats runCampaign(const Campaign &c, const RunOptions &opt);

enum class JobState : uint8_t
{
    Pending,
    Claimed,
    Done,
};

struct CampaignStatus
{
    size_t total = 0;
    size_t done = 0;
    size_t claimed = 0;
    size_t pending = 0;
    size_t cacheHits = 0; ///< of done, served from the cache
    size_t failures = 0;  ///< of done, result not valid
    double wallMs = 0.0;  ///< total recorded execution wall time
    std::vector<JobState> jobs;
};

CampaignStatus campaignStatus(const Campaign &c);

/** Status as a JSON document (schemaVersion 1) — the `asf_campaign
 *  status --json` output tools/check_stats_schema.py validates. */
std::string campaignStatusJson(const Campaign &c);

/**
 * Merge the completed jobs' stats documents, in job order, into a
 * schemaVersion-4 stats-JSON file at `out_path` — byte-identical to
 * the log a serial in-process sweep of the same configs would write.
 * Fails (with `error`) unless every job has a completion record and
 * its document is still in the cache.
 */
bool mergeCampaign(const Campaign &c, const std::string &out_path,
                   std::string &error);

} // namespace asf::service

#endif // ASF_SERVICE_CAMPAIGN_HH

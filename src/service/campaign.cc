#include "service/campaign.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <sstream>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "service/fsio.hh"
#include "service/json.hh"
#include "service/result_cache.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace asf::service
{

namespace
{

inline constexpr unsigned kDoneSchemaVersion = 1;
inline constexpr unsigned kStatusSchemaVersion = 1;

fs::path
donePath(const Campaign &c, size_t job)
{
    return fs::path(c.dir) / "done" / format("job-%zu.json", job);
}

fs::path
claimPath(const Campaign &c, size_t job)
{
    return fs::path(c.dir) / "claims" / format("job-%zu.json", job);
}

/** Identity of one runCampaign invocation. Distinct across calls even
 *  within one process, so an in-process "crashed and resumed" campaign
 *  (the tests' kill -9 stand-in) sees its old claims as stale. */
std::string
makeNonce()
{
    static std::atomic<uint64_t> counter{0};
    return format("%ld-%llu-%llu", long(::getpid()),
                  (unsigned long long)::time(nullptr),
                  (unsigned long long)counter.fetch_add(1));
}

/**
 * Atomically create the claim file with its full content: the bytes
 * are written to a unique temp file first and link(2)ed into place, so
 * a claim either does not exist or is complete — no reader can ever
 * see a half-written owner record.
 */
bool
createClaimExclusive(const fs::path &path, const std::string &bytes)
{
    fs::path tmp = path;
    static std::atomic<uint64_t> counter{0};
    tmp += format(".new.%ld.%llu", long(::getpid()),
                  (unsigned long long)counter.fetch_add(1));
    if (!atomicWrite(tmp, bytes))
        return false;
    int rc = ::link(tmp.c_str(), path.c_str());
    std::error_code ec;
    fs::remove(tmp, ec);
    return rc == 0;
}

enum class ClaimOutcome : uint8_t
{
    Won,
    Busy,
};

/**
 * The claim protocol. A claim is stale when its owner is provably not
 * coming back: the owning pid is dead, or it is this process but the
 * claim was made by an earlier runCampaign invocation (different
 * nonce). Takeover is by rename — exactly one contender wins the
 * rename, then everyone races the O_EXCL-style create again.
 */
ClaimOutcome
tryClaim(const Campaign &c, size_t job, const std::string &nonce)
{
    fs::path path = claimPath(c, job);
    std::ostringstream os;
    {
        harness::JsonWriter w(os);
        w.beginObject();
        w.field("pid", int64_t(::getpid()));
        w.field("nonce", nonce);
        w.endObject();
    }
    const std::string mine = os.str();

    for (int attempt = 0; attempt < 8; attempt++) {
        if (createClaimExclusive(path, mine))
            return ClaimOutcome::Won;

        auto bytes = readFile(path);
        if (!bytes)
            continue; // vanished between create and read; race again
        JsonValue claim;
        std::string error;
        bool stale;
        if (!parseJson(*bytes, claim, error)) {
            // Claims are linked into place fully written, so garbage
            // means a damaged file nobody will clean up: steal it.
            stale = true;
        } else {
            long pid = long(claim["pid"].asI64());
            std::string their_nonce = claim["nonce"].asString();
            bool dead = ::kill(pid_t(pid), 0) == -1 && errno == ESRCH;
            stale = dead || (pid == long(::getpid()) &&
                             their_nonce != nonce);
        }
        if (!stale)
            return ClaimOutcome::Busy;

        fs::path graveyard = path;
        static std::atomic<uint64_t> counter{0};
        graveyard += format(".stale.%ld.%llu", long(::getpid()),
                            (unsigned long long)counter.fetch_add(1));
        std::error_code ec;
        fs::rename(path, graveyard, ec);
        if (!ec)
            fs::remove(graveyard, ec);
        // Win or lose the takeover rename, re-race the create.
    }
    return ClaimOutcome::Busy;
}

void
writeDoneRecord(const Campaign &c, size_t job,
                const harness::ExperimentResult &r, double wall_ms)
{
    std::ostringstream os;
    {
        harness::JsonWriter w(os);
        w.beginObject();
        w.field("schemaVersion", kDoneSchemaVersion);
        w.field("job", uint64_t(job));
        w.field("label", specLabel(c.jobs[job]));
        w.field("digest", r.configDigest);
        w.field("cycles", uint64_t(r.cycles));
        w.field("valid", r.valid);
        w.field("watchdog", r.watchdogFired);
        w.field("status", r.valid ? "ok" : r.validationError);
        w.field("cacheHit", r.cacheHit);
        w.field("wallMs", wall_ms);
        w.field("pid", int64_t(::getpid()));
        w.endObject();
    }
    atomicWrite(donePath(c, job), os.str());
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Pending: return "pending";
      case JobState::Claimed: return "claimed";
      case JobState::Done: return "done";
    }
    return "?";
}

std::string
campaignFileBody(const std::vector<ExperimentSpec> &jobs)
{
    std::string body;
    for (const auto &spec : jobs)
        body += serializeSpec(spec) + "\n";
    return body;
}

} // namespace

bool
submitCampaign(const std::string &dir,
               const std::vector<std::string> &spec_lines,
               const std::string &name, const std::string &cache_dir,
               Campaign &out, std::string &error)
{
    out = Campaign();
    out.dir = dir;
    out.name = name.empty() ? fs::path(dir).filename().string() : name;
    out.cacheDir =
        cache_dir.empty() ? (fs::path(dir) / "cache").string()
                          : cache_dir;

    for (size_t i = 0; i < spec_lines.size(); i++) {
        if (!expandSpecLine(spec_lines[i], out.jobs, error)) {
            error = format("spec line %zu: %s", i + 1, error.c_str());
            return false;
        }
    }
    if (out.jobs.empty()) {
        error = "campaign has no jobs";
        return false;
    }

    std::string body = campaignFileBody(out.jobs);
    fs::path jobs_file = fs::path(dir) / "campaign.jsonl";
    if (auto existing = readFile(jobs_file)) {
        // Idempotent re-submit of the identical job list; anything else
        // would misattribute the existing completion records.
        if (*existing != body) {
            error = format("campaign '%s' already exists with a "
                           "different job list",
                           dir.c_str());
            return false;
        }
        Campaign loaded;
        if (loadCampaign(dir, loaded, error))
            out = std::move(loaded);
        return true;
    }

    std::error_code ec;
    fs::create_directories(fs::path(dir) / "done", ec);
    fs::create_directories(fs::path(dir) / "claims", ec);
    if (ec) {
        error = format("cannot create '%s': %s", dir.c_str(),
                       ec.message().c_str());
        return false;
    }

    std::ostringstream meta;
    {
        harness::JsonWriter w(meta);
        w.beginObject();
        w.field("schemaVersion", kCampaignSchemaVersion);
        w.field("name", out.name);
        w.field("cacheDir", out.cacheDir);
        w.field("submittedAt", uint64_t(::time(nullptr)));
        w.endObject();
    }
    if (!atomicWrite(fs::path(dir) / "meta.json", meta.str()) ||
        !atomicWrite(jobs_file, body)) {
        error = format("cannot write campaign files under '%s'",
                       dir.c_str());
        return false;
    }
    return true;
}

bool
loadCampaign(const std::string &dir, Campaign &out, std::string &error)
{
    out = Campaign();
    out.dir = dir;

    auto meta_bytes = readFile(fs::path(dir) / "meta.json");
    if (!meta_bytes) {
        error = format("'%s' is not a campaign (no meta.json)",
                       dir.c_str());
        return false;
    }
    JsonValue meta;
    if (!parseJson(*meta_bytes, meta, error))
        return false;
    if (meta["schemaVersion"].asU64() != kCampaignSchemaVersion) {
        error = format("unsupported campaign schemaVersion %llu",
                       (unsigned long long)meta["schemaVersion"].asU64());
        return false;
    }
    out.name = meta["name"].asString();
    out.cacheDir = meta["cacheDir"].asString();
    if (out.cacheDir.empty())
        out.cacheDir = (fs::path(dir) / "cache").string();

    auto jobs_bytes = readFile(fs::path(dir) / "campaign.jsonl");
    if (!jobs_bytes) {
        error = format("'%s' has no campaign.jsonl", dir.c_str());
        return false;
    }
    std::istringstream lines(*jobs_bytes);
    std::string line;
    size_t lineno = 0;
    while (std::getline(lines, line)) {
        lineno++;
        if (!expandSpecLine(line, out.jobs, error)) {
            error = format("campaign.jsonl line %zu: %s", lineno,
                           error.c_str());
            return false;
        }
    }
    if (out.jobs.empty()) {
        error = "campaign has no jobs";
        return false;
    }
    return true;
}

RunStats
runCampaign(const Campaign &c, const RunOptions &opt)
{
    ResultCache cache(c.cacheDir);
    std::error_code ec;
    fs::create_directories(fs::path(c.dir) / "done", ec);
    fs::create_directories(fs::path(c.dir) / "claims", ec);
    const std::string nonce = makeNonce();

    unsigned shards = opt.shardCount ? opt.shardCount : 1;
    std::vector<size_t> mine;
    for (size_t i = 0; i < c.jobs.size(); i++)
        if (i % shards == opt.shardIndex % shards)
            mine.push_back(i);

    RunStats stats;
    stats.total = mine.size();

    std::atomic<size_t> already{0}, started{0}, executed{0}, hits{0},
        busy{0}, failures{0};
    std::atomic<bool> stop{false}, aborted{false};

    std::vector<harness::SweepJob> sweep;
    sweep.reserve(mine.size());
    for (size_t i : mine) {
        sweep.push_back([&, i]() -> harness::ExperimentResult {
            harness::ExperimentResult r;
            r.workload = c.jobs[i].workload;
            r.design = c.jobs[i].design;
            r.skipped = true;
            if (stop.load(std::memory_order_relaxed))
                return r;
            if (fs::exists(donePath(c, i))) {
                already.fetch_add(1);
                return r;
            }
            if (tryClaim(c, i, nonce) != ClaimOutcome::Won) {
                busy.fetch_add(1);
                return r;
            }
            if (started.fetch_add(1) >= opt.abortAfter) {
                // Crash hook: walk away mid-claim (see RunOptions).
                stop.store(true, std::memory_order_relaxed);
                aborted.store(true, std::memory_order_relaxed);
                return r;
            }
            ScopedActiveCache bind(&cache);
            auto t0 = std::chrono::steady_clock::now();
            r = runSpec(c.jobs[i]);
            double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            executed.fetch_add(1);
            if (r.cacheHit)
                hits.fetch_add(1);
            if (!r.valid)
                failures.fetch_add(1);
            writeDoneRecord(c, i, r, wall_ms);
            std::error_code rec;
            fs::remove(claimPath(c, i), rec);
            return r;
        });
    }

    harness::runSweep(sweep, opt.threads);

    stats.alreadyDone = already.load();
    stats.executed = executed.load();
    stats.cacheHits = hits.load();
    stats.claimedElsewhere = busy.load();
    stats.failures = failures.load();
    stats.aborted = aborted.load();
    stats.placementsComputed = cache.placementsComputed();
    stats.placementsReused = cache.placementsReused();
    return stats;
}

CampaignStatus
campaignStatus(const Campaign &c)
{
    CampaignStatus st;
    st.total = c.jobs.size();
    st.jobs.resize(c.jobs.size(), JobState::Pending);
    for (size_t i = 0; i < c.jobs.size(); i++) {
        if (auto bytes = readFile(donePath(c, i))) {
            st.jobs[i] = JobState::Done;
            st.done++;
            JsonValue rec;
            std::string error;
            if (parseJson(*bytes, rec, error)) {
                if (rec["cacheHit"].asBool())
                    st.cacheHits++;
                if (!rec["valid"].asBool())
                    st.failures++;
                st.wallMs += rec["wallMs"].asDouble();
            }
        } else if (fs::exists(claimPath(c, i))) {
            st.jobs[i] = JobState::Claimed;
            st.claimed++;
        } else {
            st.pending++;
        }
    }
    return st;
}

std::string
campaignStatusJson(const Campaign &c)
{
    CampaignStatus st = campaignStatus(c);
    std::ostringstream os;
    {
        harness::JsonWriter w(os);
        w.beginObject();
        w.field("schemaVersion", kStatusSchemaVersion);
        w.field("name", c.name);
        w.field("dir", c.dir);
        w.field("cacheDir", c.cacheDir);
        w.field("total", uint64_t(st.total));
        w.field("done", uint64_t(st.done));
        w.field("claimed", uint64_t(st.claimed));
        w.field("pending", uint64_t(st.pending));
        w.field("cacheHits", uint64_t(st.cacheHits));
        w.field("failures", uint64_t(st.failures));
        w.field("wallMs", st.wallMs);
        w.key("jobs").beginArray();
        for (size_t i = 0; i < c.jobs.size(); i++) {
            w.beginObject();
            w.field("job", uint64_t(i));
            w.field("label", specLabel(c.jobs[i]));
            w.field("state", jobStateName(st.jobs[i]));
            if (st.jobs[i] == JobState::Done) {
                if (auto bytes = readFile(donePath(c, i))) {
                    JsonValue rec;
                    std::string error;
                    if (parseJson(*bytes, rec, error)) {
                        w.field("digest", rec["digest"].asString());
                        w.field("valid", rec["valid"].asBool());
                        w.field("cacheHit", rec["cacheHit"].asBool());
                        w.field("cycles", rec["cycles"].asU64());
                    }
                }
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    os << '\n';
    return os.str();
}

bool
mergeCampaign(const Campaign &c, const std::string &out_path,
              std::string &error)
{
    ResultCache cache(c.cacheDir);
    std::string merged = "{\"schemaVersion\":4,\"runs\":[";
    for (size_t i = 0; i < c.jobs.size(); i++) {
        auto bytes = readFile(donePath(c, i));
        if (!bytes) {
            error = format("job %zu (%s) has no completion record; "
                           "run the campaign to completion first",
                           i, specLabel(c.jobs[i]).c_str());
            return false;
        }
        JsonValue rec;
        if (!parseJson(*bytes, rec, error))
            return false;
        std::string digest = rec["digest"].asString();
        auto doc = cache.loadDoc(digest);
        if (!doc) {
            error = format("job %zu (%s): document %s is not in the "
                           "cache (gc'd?); re-run the campaign",
                           i, specLabel(c.jobs[i]).c_str(),
                           digest.substr(0, 16).c_str());
            return false;
        }
        merged += i ? ",\n" : "\n";
        merged += *doc;
    }
    merged += "\n]}\n";
    if (!atomicWrite(out_path, merged)) {
        error = format("cannot write '%s'", out_path.c_str());
        return false;
    }
    return true;
}

} // namespace asf::service

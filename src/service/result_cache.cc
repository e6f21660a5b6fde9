#include "service/result_cache.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "analysis/minimize.hh"
#include "fence/fence_kind.hh"
#include "harness/report.hh"
#include "service/fsio.hh"
#include "service/json.hh"
#include "service/sha256.hh"
#include "sim/logging.hh"
#include "sys/system.hh"

namespace fs = std::filesystem;

namespace asf::service
{

namespace
{

void
writeResultJson(harness::JsonWriter &w,
                const harness::ExperimentResult &r)
{
    w.beginObject();
    w.field("workload", r.workload);
    w.field("design", fenceDesignName(r.design));
    w.field("cores", r.cores);
    w.field("cycles", uint64_t(r.cycles));
    w.field("tasks", r.tasks);
    w.field("steals", r.steals);
    w.field("commits", r.commits);
    w.field("commitsRw", r.commitsRw);
    w.field("aborts", r.aborts);
    w.field("instrRetired", r.instrRetired);
    w.field("fencesStrong", r.fencesStrong);
    w.field("fencesWeak", r.fencesWeak);
    w.field("weeDemotions", r.weeDemotions);
    w.field("bouncedWrites", r.bouncedWrites);
    w.field("retriesPerBouncedWrite", r.retriesPerBouncedWrite);
    w.field("bsLinesPerWf", r.bsLinesPerWf);
    w.field("wPlusRecoveries", r.wPlusRecoveries);
    w.field("loadSquashes", r.loadSquashes);
    w.field("bytesBase", r.bytesBase);
    w.field("bytesRetry", r.bytesRetry);
    w.field("bytesGrt", r.bytesGrt);
    w.field("valid", r.valid);
    w.field("validationError", r.validationError);
    w.field("watchdogFired", r.watchdogFired);
    w.field("checkVerdict", r.checkVerdict);
    w.key("breakdown").beginObject();
    w.field("busy", r.breakdown.busy);
    w.field("fenceStall", r.breakdown.fenceStall);
    w.field("otherStall", r.breakdown.otherStall);
    w.field("idle", r.breakdown.idle);
    w.key("stall").beginArray();
    for (unsigned i = 0; i < numStallBuckets; i++)
        w.value(r.breakdown.stall[i]);
    w.endArray();
    w.endObject();
    w.endObject();
}

bool
readResultJson(const JsonValue &v, harness::ExperimentResult &r)
{
    if (!v.isObject())
        return false;
    r.workload = v["workload"].asString();
    auto design = tryParseFenceDesign(v["design"].asString());
    if (!design)
        return false;
    r.design = *design;
    r.cores = unsigned(v["cores"].asU64());
    r.cycles = Tick(v["cycles"].asU64());
    r.tasks = v["tasks"].asU64();
    r.steals = v["steals"].asU64();
    r.commits = v["commits"].asU64();
    r.commitsRw = v["commitsRw"].asU64();
    r.aborts = v["aborts"].asU64();
    r.instrRetired = v["instrRetired"].asU64();
    r.fencesStrong = v["fencesStrong"].asU64();
    r.fencesWeak = v["fencesWeak"].asU64();
    r.weeDemotions = v["weeDemotions"].asU64();
    r.bouncedWrites = v["bouncedWrites"].asU64();
    r.retriesPerBouncedWrite = v["retriesPerBouncedWrite"].asDouble();
    r.bsLinesPerWf = v["bsLinesPerWf"].asDouble();
    r.wPlusRecoveries = v["wPlusRecoveries"].asU64();
    r.loadSquashes = v["loadSquashes"].asU64();
    r.bytesBase = v["bytesBase"].asU64();
    r.bytesRetry = v["bytesRetry"].asU64();
    r.bytesGrt = v["bytesGrt"].asU64();
    r.valid = v["valid"].asBool();
    r.validationError = v["validationError"].asString();
    r.watchdogFired = v["watchdogFired"].asBool();
    r.checkVerdict = v["checkVerdict"].asString();
    const JsonValue &b = v["breakdown"];
    r.breakdown.busy = b["busy"].asU64();
    r.breakdown.fenceStall = b["fenceStall"].asU64();
    r.breakdown.otherStall = b["otherStall"].asU64();
    r.breakdown.idle = b["idle"].asU64();
    const auto &stall = b["stall"].items();
    if (stall.size() != numStallBuckets)
        return false;
    for (unsigned i = 0; i < numStallBuckets; i++)
        r.breakdown.stall[i] = stall[i].asU64();
    return !r.workload.empty();
}

} // namespace

ConfigKey
makePlacementKey(const std::string &kit,
                 const Placement &synthesized,
                 const analysis::MinimizeOptions &opt)
{
    ConfigKey key;
    key.canonical =
        format("asf-placement-key %u\nfingerprint %s\nkit %s\n",
               kPlacementSchemaVersion, binaryFingerprint().c_str(),
               kit.c_str()) +
        analysis::minimizeInputText(synthesized, opt);
    key.digest = sha256Hex(key.canonical);
    return key;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / "objects", ec);
    if (ec)
        warn("cache: cannot create '%s/objects': %s", dir_.c_str(),
             ec.message().c_str());
}

std::string
ResultCache::objectPath(const std::string &digest, const char *kind) const
{
    return (fs::path(dir_) / "objects" / (digest + kind)).string();
}

std::optional<ResultCache::Hit>
ResultCache::lookup(const ConfigKey &key) const
{
    if (!key.valid())
        return std::nullopt;
    auto manifest_bytes =
        readFile(objectPath(key.digest, ".manifest.json"));
    if (!manifest_bytes)
        return std::nullopt;
    JsonValue m;
    std::string error;
    if (!parseJson(*manifest_bytes, m, error)) {
        warn("cache: torn manifest for %s (%s); treating as a miss",
             key.shortDigest().c_str(), error.c_str());
        return std::nullopt;
    }
    if (m["schemaVersion"].asU64() != kManifestSchemaVersion ||
        m["digest"].asString() != key.digest)
        return std::nullopt;
    auto doc = readFile(objectPath(key.digest, ".doc.json"));
    if (!doc)
        return std::nullopt;
    if (sha256Hex(*doc) != m["docDigest"].asString()) {
        warn("cache: doc bytes for %s fail their integrity digest; "
             "treating as a miss", key.shortDigest().c_str());
        return std::nullopt;
    }
    Hit hit;
    if (!readResultJson(m["result"], hit.result))
        return std::nullopt;
    hit.result.cacheHit = true;
    hit.doc = std::move(*doc);
    hit.wallMsSaved = m["wallMs"].asDouble();
    return hit;
}

bool
ResultCache::contains(const ConfigKey &key) const
{
    std::error_code ec;
    return key.valid() &&
           fs::exists(objectPath(key.digest, ".manifest.json"), ec);
}

void
ResultCache::store(const ConfigKey &key,
                   const harness::ExperimentResult &r,
                   const std::string &doc, double wall_ms)
{
    if (!key.valid())
        return;
    if (!atomicWrite(objectPath(key.digest, ".doc.json"), doc))
        return;
    std::ostringstream os;
    {
        harness::JsonWriter w(os);
        w.beginObject();
        w.field("schemaVersion", kManifestSchemaVersion);
        w.field("digest", key.digest);
        w.field("fingerprint", binaryFingerprint());
        w.field("producedAt", uint64_t(::time(nullptr)));
        w.field("wallMs", wall_ms);
        w.field("docBytes", uint64_t(doc.size()));
        w.field("docDigest", sha256Hex(doc));
        w.field("canonical", key.canonical);
        w.key("result");
        writeResultJson(w, r);
        w.endObject();
    }
    atomicWrite(objectPath(key.digest, ".manifest.json"), os.str());
}

Placement
ResultCache::placement(const ConfigKey &key,
                       const analysis::SynthResult &synth,
                       const std::function<Placement()> &compute)
{
    std::shared_ptr<Flight> flight;
    {
        std::unique_lock<std::mutex> lock(flightsMu_);
        // Another caller is filing this placement: wait for it instead
        // of minimizing the same kit twice. If it threw, the first
        // waiter to wake up takes the computation over.
        for (auto it = flights_.find(key.digest); it != flights_.end();
             it = flights_.find(key.digest)) {
            std::shared_ptr<Flight> other = it->second;
            flightLanded_.wait(lock, [&] { return other->landed; });
            if (other->placement) {
                placementsReused_++;
                return *other->placement;
            }
        }
        flight = std::make_shared<Flight>();
        flights_.emplace(key.digest, flight);
    }
    // Land the flight on every way out, a throwing compute() included,
    // so no waiter hangs.
    struct Landing
    {
        ResultCache &cache;
        const std::string &digest;
        Flight &flight;

        ~Landing()
        {
            std::lock_guard<std::mutex> lock(cache.flightsMu_);
            flight.landed = true;
            cache.flights_.erase(digest);
            cache.flightLanded_.notify_all();
        }
    } landing{*this, key.digest, *flight};

    flight->placement = lookupPlacement(key, synth);
    if (flight->placement) {
        placementsReused_++;
    } else {
        flight->placement = compute();
        placementsComputed_++;
        storePlacement(key, *flight->placement);
    }
    return *flight->placement;
}

std::optional<Placement>
ResultCache::lookupPlacement(const ConfigKey &key,
                             const analysis::SynthResult &synth) const
{
    auto bytes = readFile(objectPath(key.digest, ".placement.json"));
    if (!bytes)
        return std::nullopt;
    JsonValue m;
    std::string error;
    Placement p;
    auto valid = [&] {
        if (!parseJson(*bytes, m, error))
            return false;
        if (m["schemaVersion"].asU64() != kPlacementSchemaVersion)
            error = "schema version differs";
        else if (m["digest"].asString() != key.digest)
            error = "digest differs";
        else if (m["canonical"].asString() != key.canonical)
            error = "canonical key text differs";
        else if (m["fingerprint"].asString() != binaryFingerprint())
            error = "fingerprint differs";
        else
            return analysis::readPlacement(m["fences"], synth, p, error);
        return false;
    };
    if (valid())
        return p;
    warn("cache: placement %s is malformed (%s); recomputing it",
         key.shortDigest().c_str(), error.c_str());
    return std::nullopt;
}

void
ResultCache::storePlacement(const ConfigKey &key, const Placement &p)
{
    std::ostringstream os;
    {
        harness::JsonWriter w(os);
        w.beginObject();
        w.field("schemaVersion", kPlacementSchemaVersion);
        w.field("digest", key.digest);
        w.field("fingerprint", binaryFingerprint());
        w.field("producedAt", uint64_t(::time(nullptr)));
        w.field("canonical", key.canonical);
        w.key("fences");
        analysis::writePlacement(w, p);
        w.endObject();
    }
    atomicWrite(objectPath(key.digest, ".placement.json"), os.str());
}

std::optional<std::string>
ResultCache::loadDoc(const std::string &digest) const
{
    return readFile(objectPath(digest, ".doc.json"));
}

ResultCache::GcStats
ResultCache::gc(const GcOptions &opt)
{
    GcStats stats;
    std::string fp = binaryFingerprint();
    double now = double(::time(nullptr));
    std::error_code ec;
    fs::path objects = fs::path(dir_) / "objects";

    auto size_of = [&](const fs::path &p) -> uint64_t {
        std::error_code sec;
        auto n = fs::file_size(p, sec);
        return sec ? 0 : uint64_t(n);
    };

    std::vector<fs::path> manifests, docs, placements, tmps;
    for (const auto &entry : fs::directory_iterator(objects, ec)) {
        std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            tmps.push_back(entry.path());
        else if (name.ends_with(".manifest.json"))
            manifests.push_back(entry.path());
        else if (name.ends_with(".doc.json"))
            docs.push_back(entry.path());
        else if (name.ends_with(".placement.json"))
            placements.push_back(entry.path());
    }

    // Abandoned temp files are always garbage.
    for (const auto &t : tmps) {
        stats.orphans++;
        stats.bytesFreed += size_of(t);
        fs::remove(t, ec);
    }

    // Manifests and placements both record their producer and age.
    auto expired = [&](const fs::path &p) {
        auto bytes = readFile(p);
        JsonValue m;
        std::string error;
        if (!bytes || !parseJson(*bytes, m, error))
            return true; // unreadable: a useless entry
        return (opt.currentFingerprintOnly &&
                m["fingerprint"].asString() != fp) ||
               (opt.maxAgeDays > 0.0 &&
                now - m["producedAt"].asDouble() >
                    opt.maxAgeDays * 86400.0);
    };

    std::vector<std::string> kept_digests;
    for (const auto &mp : manifests) {
        stats.scanned++;
        std::string digest = mp.filename().string();
        digest.resize(digest.size() - 14);
        fs::path dp = objects / (digest + ".doc.json");
        uint64_t entry_bytes = size_of(mp) + size_of(dp);
        if (expired(mp)) {
            stats.removed++;
            stats.bytesFreed += entry_bytes;
            fs::remove(mp, ec);
            fs::remove(dp, ec);
        } else {
            stats.bytesKept += entry_bytes;
            kept_digests.push_back(digest);
        }
    }

    for (const auto &pp : placements) {
        stats.scanned++;
        uint64_t entry_bytes = size_of(pp);
        if (expired(pp)) {
            stats.removed++;
            stats.bytesFreed += entry_bytes;
            fs::remove(pp, ec);
        } else {
            stats.bytesKept += entry_bytes;
        }
    }

    // Docs without a surviving manifest cannot be looked up again.
    for (const auto &dp : docs) {
        std::string digest = dp.filename().string();
        digest.resize(digest.size() - 9);
        if (std::find(kept_digests.begin(), kept_digests.end(),
                      digest) != kept_digests.end())
            continue;
        std::error_code sec;
        if (fs::exists(objects / (digest + ".manifest.json"), sec))
            continue;
        stats.orphans++;
        stats.bytesFreed += size_of(dp);
        fs::remove(dp, ec);
    }
    return stats;
}

// --- process-wide wiring ------------------------------------------------

namespace
{

thread_local ResultCache *tlsCache = nullptr;
thread_local bool tlsBound = false;

std::mutex globalCacheMu;
std::unique_ptr<ResultCache> globalCache;

} // namespace

ResultCache *
activeResultCache()
{
    if (tlsBound)
        return tlsCache;
    std::lock_guard<std::mutex> lock(globalCacheMu);
    return globalCache.get();
}

void
setGlobalResultCacheDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(globalCacheMu);
    globalCache =
        dir.empty() ? nullptr : std::make_unique<ResultCache>(dir);
}

ScopedActiveCache::ScopedActiveCache(ResultCache *cache)
    : prev_(tlsCache), prevBound_(tlsBound)
{
    tlsCache = cache;
    tlsBound = true;
}

ScopedActiveCache::~ScopedActiveCache()
{
    tlsCache = prev_;
    tlsBound = prevBound_;
}

} // namespace asf::service

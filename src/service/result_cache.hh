/**
 * @file
 * Content-addressed experiment result store. Each completed run is
 * filed under its ConfigKey digest as two objects in `<dir>/objects/`:
 *
 *   <digest>.doc.json       the run's stats-JSON document, the EXACT
 *                           bytes the harness would append to a
 *                           --stats-json log (cache hits splice them
 *                           back verbatim, so a warm log is
 *                           byte-identical to a cold one)
 *   <digest>.manifest.json  provenance + the serialized
 *                           ExperimentResult: producing binary
 *                           fingerprint, wall time, the canonical key
 *                           material, and a digest of the doc bytes
 *                           (integrity check on read)
 *
 * and, under a makePlacementKey digest instead of a run's,
 *
 *   <digest>.placement.json a synthesis kit's minimized fence
 *                           placement with its key material and
 *                           producing binary (see placement())
 *
 * Writes are atomic (unique temp file + rename), so concurrent worker
 * processes draining one campaign can share a cache directory without
 * locks: the worst case is the same result written twice.
 */

#ifndef ASF_SERVICE_RESULT_CACHE_HH
#define ASF_SERVICE_RESULT_CACHE_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "harness/experiment.hh"
#include "prog/rewrite.hh"
#include "service/config_key.hh"

namespace asf::analysis
{
struct MinimizeOptions;
struct SynthResult;
}

namespace asf::service
{

inline constexpr unsigned kManifestSchemaVersion = 1;
inline constexpr unsigned kPlacementSchemaVersion = 1;

/**
 * Identity of a kit's minimized fence placement: SHA-256 over the
 * placement schema version, the binary fingerprint, the kit name and
 * analysis::minimizeInputText(synthesized, opt). A run's fence design
 * is not part of it: the minimizer runs its own design matrix, so the
 * jobs of every design share one placement.
 */
ConfigKey makePlacementKey(const std::string &kit,
                           const Placement &synthesized,
                           const analysis::MinimizeOptions &opt);

class ResultCache
{
  public:
    /** Opens (and creates, on demand) the store under `dir`. */
    explicit ResultCache(std::string dir);

    const std::string &dir() const { return dir_; }

    struct Hit
    {
        harness::ExperimentResult result; ///< cacheHit flag already set
        std::string doc;                  ///< exact stats-JSON bytes
        double wallMsSaved = 0.0;         ///< producer's wall time
    };

    /**
     * Look up a configuration. Returns nullopt on a miss or on any
     * integrity problem (torn manifest, doc bytes not matching their
     * recorded digest) — a corrupt entry behaves like a miss and is
     * overwritten by the fresh run.
     */
    std::optional<Hit> lookup(const ConfigKey &key) const;

    /** File a completed run. `doc` must be the run's stats-JSON
     *  document; `wall_ms` the producer's measured wall time. */
    void store(const ConfigKey &key, const harness::ExperimentResult &r,
               const std::string &doc, double wall_ms);

    /** Raw doc bytes by digest (campaign merge). */
    std::optional<std::string> loadDoc(const std::string &digest) const;

    bool contains(const ConfigKey &key) const;

    /**
     * The minimized placement filed under `key` (a makePlacementKey)
     * when the stored object is valid for `synth`: its digest,
     * canonical key text and fingerprint match, and
     * analysis::readPlacement accepts its fences. Otherwise
     * `compute()`'s result, which is then filed; anything malformed
     * reads as a miss and is overwritten. Callers sharing this object
     * compute each missing placement once: a second caller for the same
     * key waits for the first, and computes it itself if the first
     * one's compute() throws. Only placements being computed are held
     * in memory; finished ones are read back from the directory, so a
     * fresh directory is always cold.
     */
    Placement
    placement(const ConfigKey &key, const analysis::SynthResult &synth,
              const std::function<Placement()> &compute);

    /** Placements placement() computed, and served without computing
     *  (stored, or from a concurrent caller). Host-side counts for
     *  campaign reports, kept out of stats documents and manifests. */
    size_t placementsComputed() const { return placementsComputed_; }
    size_t placementsReused() const { return placementsReused_; }

    struct GcOptions
    {
        /** Drop entries whose producing binary differs from this
         *  process ("" keeps all fingerprints). */
        bool currentFingerprintOnly = false;
        /** Drop entries older than this many days (0 = no age limit). */
        double maxAgeDays = 0.0;
    };

    struct GcStats
    {
        size_t scanned = 0;    ///< manifests + placements examined
        size_t removed = 0;    ///< entries dropped
        size_t orphans = 0;    ///< stray half-entries cleaned
        uint64_t bytesFreed = 0;
        uint64_t bytesKept = 0;
    };

    GcStats gc(const GcOptions &opt);

  private:
    std::string objectPath(const std::string &digest,
                           const char *kind) const;
    std::optional<Placement>
    lookupPlacement(const ConfigKey &key,
                    const analysis::SynthResult &synth) const;
    void storePlacement(const ConfigKey &key, const Placement &p);

    /** A placement one caller is computing; waiters keep it alive
     *  past its landing to read the outcome. */
    struct Flight
    {
        bool landed = false;
        std::optional<Placement> placement; ///< empty: threw
    };

    std::string dir_;
    std::mutex flightsMu_;
    std::condition_variable flightLanded_;
    std::map<std::string, std::shared_ptr<Flight>> flights_; ///< by digest
    std::atomic<size_t> placementsComputed_{0};
    std::atomic<size_t> placementsReused_{0};
};

// --- process-wide wiring ------------------------------------------------

/**
 * The result cache the experiment runners consult. Thread-scoped
 * binding (ScopedActiveCache) wins over the process-global one
 * (setGlobalResultCacheDir); null when neither is set. The campaign
 * runner binds per worker thread so two campaigns can coexist in one
 * process; the CLI flags (`--cache-dir`) set the global.
 */
ResultCache *activeResultCache();

/** Install the process-global cache (empty dir disables). */
void setGlobalResultCacheDir(const std::string &dir);

/** While alive, binds `cache` (may be null = "no cache") as the
 *  calling thread's active result cache. */
class ScopedActiveCache
{
  public:
    explicit ScopedActiveCache(ResultCache *cache);
    ~ScopedActiveCache();
    ScopedActiveCache(const ScopedActiveCache &) = delete;
    ScopedActiveCache &operator=(const ScopedActiveCache &) = delete;

  private:
    ResultCache *prev_;
    bool prevBound_;
};

} // namespace asf::service

#endif // ASF_SERVICE_RESULT_CACHE_HH

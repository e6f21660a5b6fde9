/**
 * @file
 * Experiment driver: builds a system with a given fence design and core
 * count, installs a workload, runs it, validates the functional result,
 * and collects the metrics the paper's figures and Table 4 report.
 */

#ifndef ASF_HARNESS_EXPERIMENT_HH
#define ASF_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "workloads/cilk_apps.hh"
#include "workloads/stamp.hh"
#include "workloads/ustm.hh"

namespace asf::harness
{

struct ExperimentResult
{
    std::string workload;
    FenceDesign design = FenceDesign::SPlus;
    unsigned cores = 0;

    /** Wall-clock cycles of the measured region. */
    Tick cycles = 0;
    CycleBreakdown breakdown;

    // Guest-visible progress.
    uint64_t tasks = 0;
    uint64_t steals = 0;
    uint64_t commits = 0;
    uint64_t commitsRw = 0;
    uint64_t aborts = 0;

    // Fence characterization (Table 4).
    uint64_t instrRetired = 0;
    uint64_t fencesStrong = 0;
    uint64_t fencesWeak = 0; ///< weak + wee-weak
    uint64_t weeDemotions = 0; ///< multi-module + watchdog demotions
    uint64_t bouncedWrites = 0;
    double retriesPerBouncedWrite = 0.0;
    double bsLinesPerWf = 0.0;
    uint64_t wPlusRecoveries = 0;
    uint64_t loadSquashes = 0;

    // Network traffic.
    uint64_t bytesBase = 0;
    uint64_t bytesRetry = 0;
    uint64_t bytesGrt = 0;

    bool valid = false;
    std::string validationError;

    /** True when the run was aborted by the livelock watchdog (also
     *  reflected in validationError; split out for sweep telemetry). */
    bool watchdogFired = false;

    /** Execution-checker verdict ("pass" / "violation" /
     *  "inconclusive"); empty when checking was off. */
    std::string checkVerdict;

    /** Host-side provenance, NEVER serialized into stats documents
     *  (which must stay byte-identical cold vs. warm): the run was
     *  served from the result cache without simulating a cycle. */
    bool cacheHit = false;

    /** Host-side: a campaign worker found this job already claimed or
     *  completed elsewhere and did not execute it. */
    bool skipped = false;

    /** Host-side: the run's canonical ConfigKey digest (the result
     *  cache object name / heartbeat configHash), when one was
     *  computed — i.e. whenever a cache or heartbeat was active. */
    std::string configDigest;

    double throughputTxnPerKcycle() const;
    double trafficOverheadPct() const;
    double fencesPer1000Instr(uint64_t count) const;
};

/** Run one Cilk app to completion. `stats_out`, if set, receives a
 *  full System::dumpStats() dump before the system is torn down. */
ExperimentResult runCilkExperiment(const workloads::CilkApp &app,
                                   FenceDesign design, unsigned cores,
                                   Tick max_cycles = 30'000'000,
                                   std::ostream *stats_out = nullptr);

/** Run one ustm microbenchmark for a fixed cycle budget (throughput). */
ExperimentResult runUstmExperiment(const workloads::TlrwBench &bench,
                                   FenceDesign design, unsigned cores,
                                   Tick run_cycles = 300'000,
                                   std::ostream *stats_out = nullptr);

/** Run one STAMP app to completion (fixed transactions per thread). */
ExperimentResult runStampExperiment(const workloads::StampApp &app,
                                    FenceDesign design, unsigned cores,
                                    Tick max_cycles = 30'000'000,
                                    std::ostream *stats_out = nullptr);

/**
 * Synthesize fences for one synthesis-corpus kit (see
 * analysis::corpusNames()), optionally minimize the placement with the
 * checker in the loop, then run the final fenced programs under
 * `design` with execution checking forced on. `valid` requires the run
 * to finish, the axiomatic checker to pass (full SC for
 * ScEquivalence-mode kits), and the kit's functional invariant to
 * hold. `max_cycles = 0` uses the kit's own budget. A cache-eligible
 * run (see the result cache) takes the minimized placement from the
 * bound cache, so the kit is minimized once for all five designs.
 */
ExperimentResult runSynthExperiment(const std::string &kit,
                                    FenceDesign design,
                                    bool minimize_placement = true,
                                    Tick max_cycles = 0,
                                    std::ostream *stats_out = nullptr);

/** Shared post-run stat harvesting (exposed for tests). */
void harvestStats(System &sys, ExperimentResult &r);

// --- observability ------------------------------------------------------
/**
 * Record a machine-readable stats document for every subsequent
 * experiment run in this process and write the accumulated log
 * (`{"schemaVersion":4,"runs":[...]}`) to `path`. The file is rewritten
 * after every run, so a partial log survives an aborted sweep. Pass an
 * empty string to disable. See README.md "Observability".
 */
void setStatsJsonPath(const std::string &path);

/** Path set by setStatsJsonPath, or empty when disabled. */
const std::string &statsJsonPath();

/**
 * Record Chrome trace_event JSON (fence stalls, write-buffer drains,
 * W+ squashes, directory nacks/bounces, NoC link occupancy) for every
 * subsequent experiment into `path`; each run becomes one process row.
 * Flushed at normal process exit.
 */
void setTracePath(const std::string &path);

/** Rewrite the stats-JSON log now. No-op when no path is set. */
void flushStatsJson();

// --- sweep support ------------------------------------------------------
/**
 * While alive, experiment runs on the *calling thread* append their
 * stats-JSON documents to `sink` instead of the global log (and skip the
 * per-run file rewrite). The sweep runner gives each job its own sink
 * and merges them in job order afterwards, so a parallel sweep's log is
 * byte-identical to a serial one.
 */
class ScopedRunCapture
{
  public:
    explicit ScopedRunCapture(std::vector<std::string> &sink);
    ~ScopedRunCapture();
    ScopedRunCapture(const ScopedRunCapture &) = delete;
    ScopedRunCapture &operator=(const ScopedRunCapture &) = delete;

  private:
    std::vector<std::string> *prev_;
};

/** Append captured run documents to the global log and rewrite the file
 *  once. Call from one thread only (the sweep merge step). If the
 *  calling thread itself has a ScopedRunCapture installed, the batch is
 *  redirected there instead (nested capture). */
void appendStatsJsonRuns(std::vector<std::string> docs);

/** True when the calling thread has a ScopedRunCapture installed. The
 *  sweep runner checks this to pick between capture-mode merging and
 *  incremental prefix flushing of the global log. */
bool runCaptureActive();

/**
 * Append documents to the global log and rewrite the file, ignoring
 * any capture sink on the calling thread. Thread-safe (internally
 * serialized) — the sweep runner calls this from worker threads to
 * flush completed jobs incrementally, so an aborted sweep still leaves
 * the finished prefix on disk.
 */
void appendStatsJsonRunsDirect(std::vector<std::string> docs);

/**
 * Process-wide default for SystemConfig::fastForward, consulted by the
 * experiment runners (on unless turned off). `--no-fast-forward` A/B
 * switch; simulated results are bit-identical either way.
 */
void setFastForwardEnabled(bool on);
bool fastForwardEnabled();

/**
 * Process-wide default for SystemConfig::directExec, consulted by the
 * experiment runners (on unless turned off). `--no-direct-exec` A/B
 * switch; simulated results are bit-identical either way.
 */
void setDirectExecEnabled(bool on);
bool directExecEnabled();

/**
 * Process-wide default for SystemConfig::watchdogCycles, consulted by
 * the experiment runners. 0 (library default) disables; the bench
 * binaries set a large value so a livelocked configuration aborts with
 * a diagnostic snapshot instead of burning the whole cycle budget.
 */
void setWatchdogCyclesDefault(Tick cycles);
Tick watchdogCyclesDefault();

/**
 * Append every subsequent run's raw per-fence lifecycle records to
 * `path` as JSON lines (`--fence-profile`; see README.md
 * "Observability"). The first write truncates the file. Empty string
 * disables. Implies SystemConfig::fenceProfileRaw for runs started
 * after the call.
 */
void setFenceProfilePath(const std::string &path);
const std::string &fenceProfilePath();

/**
 * Process-wide default for SystemConfig::checkExecution, consulted by
 * the experiment runners (`--check`). When on, every run records its
 * shared-memory events and the stats documents carry a `check` block
 * with the axiomatic verdict; ExperimentResult::checkVerdict summarizes
 * it. Observation-only: cycles and all other statistics are
 * bit-identical either way.
 */
void setCheckExecutionEnabled(bool on);
bool checkExecutionEnabled();

/**
 * Process-wide default for SystemConfig::statsInterval, consulted by
 * the experiment runners (`--stats-interval`). 0 (the default)
 * disables the interval time-series; any other value snapshots the
 * contention counters every N cycles into the stats documents'
 * `timeline` block. Observation-only: cycles and cumulative stats are
 * bit-identical with it on or off (tests/sim/test_interval_stats.cc).
 */
void setStatsIntervalDefault(Tick interval);
Tick statsIntervalDefault();

/**
 * Observability output directory (`--obs-dir`). When set, every
 * relative path later handed to setStatsJsonPath / setTracePath /
 * setFenceProfilePath / setHeartbeatPath is resolved under it (the
 * directory is created on demand); absolute paths pass through
 * untouched. Lets one flag co-locate an entire campaign's artifacts.
 */
void setObsDir(const std::string &dir);
const std::string &obsDir();

/** Apply the obs-dir policy above to `path` (exposed for the setters
 *  that live outside this file, e.g. setHeartbeatPath). */
std::string resolveObsPath(const std::string &path);

} // namespace asf::harness

#endif // ASF_HARNESS_EXPERIMENT_HH

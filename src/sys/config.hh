/**
 * @file
 * System configuration: the architecture parameters of Table 2 of the
 * paper, plus the fence-design selection and the tunables the paper
 * leaves implicit (retry backoff, W+ timeout, GRT re-check period).
 */

#ifndef ASF_SYS_CONFIG_HH
#define ASF_SYS_CONFIG_HH

#include <atomic>
#include <string>

#include "fence/fence_kind.hh"
#include "sim/types.hh"

namespace asf
{

/**
 * Memory consistency model (paper Section 2.1). TSO merges one write at
 * a time in program order; RC lets multiple writes merge concurrently.
 * Weak-fence designs are defined for TSO; under RC they fall back to
 * conventional fences (the paper leaves wf-under-RC as future work,
 * Section 5.2).
 */
enum class MemoryModel : uint8_t
{
    TSO,
    RC,
};

const char *memoryModelName(MemoryModel m);

struct SystemConfig
{
    /** 4-32 cores; 8 is the paper's default. */
    unsigned numCores = 8;

    /** Active fence design (S+, WS+, SW+, W+, Wee). */
    FenceDesign design = FenceDesign::SPlus;

    /** Memory consistency model. */
    MemoryModel memoryModel = MemoryModel::TSO;

    /** Concurrent write-buffer merges under RC (TSO always uses 1).
     *  Must stay below l1Assoc (in-flight upgrades pin their lines). */
    unsigned storeUnits = 3;

    // --- core ---------------------------------------------------------
    unsigned issueWidth = 4;
    unsigned robEntries = 140;  ///< documented bound; see DESIGN.md
    unsigned wbEntries = 64;    ///< write-buffer entries

    // --- caches -------------------------------------------------------
    unsigned l1SizeBytes = 32 * 1024;
    unsigned l1Assoc = 4;
    Tick l1HitLatency = 2;      ///< round trip
    unsigned l2BankSizeBytes = 128 * 1024;
    unsigned l2Assoc = 8;
    Tick l2HitLatency = 11;     ///< local-bank round trip
    Tick memLatency = 200;      ///< off-chip round trip
    Tick dirLookupLatency = 6;  ///< directory tag lookup before probes

    // --- network ------------------------------------------------------
    Tick hopLatency = 5;
    unsigned linkBytes = 32;    ///< 256-bit links

    // --- fence hardware -----------------------------------------------
    unsigned bsEntries = 32;    ///< Bypass Set capacity per core

    /** Linear backoff for bounced write retries. */
    Tick retryBackoffBase = 16;
    Tick retryBackoffStep = 8;
    Tick retryBackoffMax = 96;

    /** W+ deadlock-suspicion timeout (cycles of sustained two-way
     *  bouncing before checkpoint recovery). */
    Tick wPlusTimeout = 300;

    /** Wee watchdog: sustained two-way bouncing before the fence is
     *  demoted to strong behavior (false-sharing cycle escape). */
    Tick weeTimeout = 2000;

    /** Period of GRT re-check probes for Remote-PS-stalled accesses. */
    Tick grtRecheckInterval = 30;

    /**
     * WeeFence Private Access Filtering: pending pre-fence stores whose
     * line is held locally in M/E (no other sharer can observe them
     * early) are excluded from the Pending Set, as in the WeeFence
     * paper. Without it, private task data demotes most WeeFences to
     * conventional fences.
     */
    bool weePrivateFiltering = true;

    /** Store drain throughput on an L1 hit. */
    Tick storeDrainLatency = 2;

    /**
     * Per-core sleep and idle-cycle fast-forward: a core whose next
     * cycles would change nothing but statistics sleeps until its own
     * next deadline or a message to its node, and System::run ticks
     * only the cores that are due; when none is, the clock jumps to the
     * next event, wake or watchdog check. Host-side optimization only —
     * simulated timing and statistics are bit-identical either way
     * (enforced by tests/sys/test_fast_forward.cc and
     * test_core_sleep.cc). Off, every core ticks every cycle: the
     * reference for A/B checks.
     */
    bool fastForward = true;

    /**
     * Direct execution: compute-bound cores batch-interpret straight-line
     * runs of pure register ops, L1-hitting loads/stores, and compute
     * count-downs several cycles at a time (Core::directBurst), dropping
     * back to cycle-exact ticking at the first fence, RMW, cache miss, or
     * other coherence-visible action. Host-side optimization only —
     * simulated timing and statistics are bit-identical either way
     * (enforced by tests/sys/test_direct_exec.cc). TSO cores only; RC
     * cores always tick cycle-exactly. Off switch for A/B checks.
     */
    bool directExec = true;

    /**
     * Livelock/hang watchdog: if System::run observes no system-wide
     * forward progress (no retired instruction, drained store, or busy
     * cycle on any core) for this many cycles, it dumps a diagnostic
     * snapshot and returns RunResult::Watchdog instead of spinning to
     * the cycle budget. 0 disables (library default); the bench
     * binaries and asf_sim turn it on. The check runs once per window,
     * at the same ticks in every run-loop mode (jumps and bursts stop
     * there), so a hang is declared after between N and 2N quiet
     * cycles and a firing run's stats do not depend on fastForward or
     * directExec.
     */
    Tick watchdogCycles = 0;

    /**
     * Per-fence-instance lifecycle profiler (the `fenceProfile` object
     * of the stats JSON). Observation-only: simulated timing and every
     * other statistic are bit-identical with it on or off (enforced by
     * tests/cpu/test_cpi_stack.cc).
     */
    bool fenceProfile = true;

    /** Keep raw per-fence records for a --fence-profile JSONL dump. */
    bool fenceProfileRaw = false;

    /**
     * Record every shared-memory event and verify the execution against
     * the TSO + fence-group axioms (the stats `check` block; see
     * src/check/). Observation-only like fenceProfile: simulated timing
     * and every other statistic are bit-identical with it on or off
     * (enforced by tests/check/test_check_identity.cc). Off by default:
     * the event log grows with the execution. TSO only.
     */
    bool checkExecution = false;

    /**
     * Contention-observatory interval time-series: every N cycles
     * System::run snapshots deltas of the CPI buckets, fence issues,
     * directory bounces/NACKs, GRT activity, and per-link NoC flits
     * into a bounded ring (`timeline` stats block + Chrome trace
     * counter tracks). 0 disables (library default). Observation-only:
     * cycles and all cumulative statistics are bit-identical with it
     * on or off (enforced by tests/sim/test_interval_stats.cc).
     */
    Tick statsInterval = 0;

    /** Ring capacity of the interval time-series (oldest samples are
     *  dropped and counted once it is full). */
    unsigned statsIntervalRing = 512;

    /**
     * Per-line hot-spot attribution: a bounded Space-Saving top-K
     * tracker charging bounces, NACKs, contended sharer probes,
     * BS-insert conflicts, GRT deposits/blocks, and L2 misses to line
     * addresses (`hotLines` stats block). Observation-only like the
     * time-series (enforced by tests/mem/test_hotspot.cc).
     */
    bool hotLineTracking = true;

    /** Space-Saving table size: lines hotter than 1/K of all recorded
     *  contention events are guaranteed present. */
    unsigned hotLineEntries = 64;

    /**
     * Live-telemetry progress sink: when set, System::run stores the
     * current cycle into this atomic every `progressInterval` cycles
     * (host-side only; a Tick compare per loop iteration, same cost
     * class as the watchdog check). The sweep heartbeat points each
     * job's config here so multi-hour campaigns are observable
     * mid-flight. Never read by the simulation.
     */
    std::atomic<uint64_t> *progressSink = nullptr;
    Tick progressInterval = 10'000;

    /**
     * Checker mutation self-test: weaken every weak fence by dropping
     * its Bypass-Set insert (post-fence loads lose their invalidation
     * protection), so the checker must report a happens-before cycle.
     * Runtime-settable for the self-test; the ASF_MUTATE_WEAK_FENCE
     * build flag flips the default so a whole build runs mutated.
     */
#ifdef ASF_MUTATE_WEAK_FENCE
    bool mutateDropBsInsert = true;
#else
    bool mutateDropBsInsert = false;
#endif

    /** Seed for all simulator-level randomness. */
    uint64_t seed = 1;

    /** Sanity-check parameter combinations; fatal() on nonsense. */
    void validate() const;

    /** One-line description for reports. */
    std::string summary() const;
};

} // namespace asf

#endif // ASF_SYS_CONFIG_HH

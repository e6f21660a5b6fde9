/**
 * @file
 * The full simulated machine: cores, private L1s, shared banked L2,
 * distributed directory, GRT modules (for WeeFence), and the mesh, all
 * driven by one deterministic event calendar that also holds the cores'
 * wakes: each visited cycle runs its events, then ticks the cores due
 * at it. This is the library's primary public entry point.
 */

#ifndef ASF_SYS_SYSTEM_HH
#define ASF_SYS_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "check/recorder.hh"
#include "cpu/core.hh"
#include "cpu/cpi_stack.hh"
#include "fence/grt.hh"
#include "fence/profile.hh"
#include "mem/directory.hh"
#include "mem/hotspot.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_bank.hh"
#include "mem/memory_image.hh"
#include "noc/mesh.hh"
#include "prog/instr.hh"
#include "sim/event_queue.hh"
#include "sim/interval_stats.hh"
#include "sys/config.hh"

namespace asf
{

namespace harness
{
class JsonWriter;
}

/**
 * Aggregated per-core cycle classification: the coarse categories plus
 * the fine CPI-stack buckets (indexed by StallBucket; see
 * cpu/cpi_stack.hh). Invariants, asserted by System::breakdown():
 * the fence buckets sum to fenceStall, the other buckets to
 * otherStall — so sum(buckets) == active() exactly.
 */
struct CycleBreakdown
{
    uint64_t busy = 0;
    uint64_t fenceStall = 0;
    uint64_t otherStall = 0;
    uint64_t idle = 0;
    uint64_t stall[numStallBuckets] = {};

    uint64_t active() const { return busy + fenceStall + otherStall; }
    uint64_t total() const { return active() + idle; }

    uint64_t bucket(StallBucket b) const { return stall[unsigned(b)]; }
    /** Sum of the fence-category (resp. other-category) buckets. */
    uint64_t fenceSum() const;
    uint64_t otherSum() const;

    double busyFrac() const;
    double fenceFrac() const;
    double otherFrac() const;
};

class System
{
  public:
    explicit System(SystemConfig cfg);

    /** Bind a program to a core. The program is shared and kept alive. */
    void loadProgram(NodeId core, std::shared_ptr<const Program> prog,
                     uint64_t prng_seed = 0);

    enum class RunResult
    {
        AllDone,   ///< every thread halted and all buffers drained
        MaxCycles, ///< cycle budget exhausted
        Watchdog,  ///< livelock watchdog fired (no forward progress)
    };

    /** Advance up to max_cycles further cycles. */
    RunResult run(Tick max_cycles);

    /** The livelock watchdog fired during a run() call. */
    bool watchdogFired() const { return watchdogFired_; }

    /** The diagnostic snapshot the watchdog prints when it fires:
     *  per-core stall reason + PC + WB head, in-flight directory
     *  transactions, GRT contents. Callable any time. */
    void dumpWatchdogSnapshot(std::ostream &os) const;

    /** The fence-lifecycle profiler (nullptr when cfg.fenceProfile is
     *  off). */
    const FenceProfiler *fenceProfiler() const { return profiler_.get(); }

    /** The execution recorder (nullptr when cfg.checkExecution is off).
     *  Unlike the profiler it survives resetStats(): it holds execution
     *  history, not statistics, and the checker needs the warmup-phase
     *  writes to resolve post-warmup reads. */
    const check::ExecutionRecorder *executionRecorder() const
    {
        return recorder_.get();
    }

    /** The hot-line tracker (nullptr when cfg.hotLineTracking is off). */
    const HotLineTracker *hotLines() const { return hotspot_.get(); }

    /** The interval time-series (nullptr when cfg.statsInterval is 0). */
    const IntervalStats *intervalStats() const { return intervals_.get(); }

    /** Name the cache line containing `addr` so hot-line reports say
     *  `dekker.flag[1]` instead of a raw address. Workload setup code
     *  registers its shared variables here; labels are purely
     *  observational. */
    void labelLine(Addr addr, std::string name);

    /** The label registry (line address -> name). */
    const AddrLabels &addrLabels() const { return labels_; }

    Tick now() const { return eq_.now(); }

    /**
     * Cycles the clock jumped because every core slept and no event was
     * due (host-side metric; deliberately not part of the stats dump,
     * which stays identical with fast-forward on or off).
     */
    uint64_t fastForwardedCycles() const { return fastForwardedCycles_; }

    /**
     * Core::tick calls that simulated a cycle, summed over cores
     * (host-side metric like fastForwardedCycles): exactly cycles x
     * cores when fast-forward is off; per-core sleep keeps it below
     * that.
     */
    uint64_t tickedCoreCycles() const { return tickedCoreCycles_; }

    /** Always 0; ROADMAP item 1 deletes it together with perfbench's read. */
    uint64_t directExecutedCycles() const { return 0; }

    // --- component access ----------------------------------------------
    const SystemConfig &config() const { return cfg_; }
    unsigned numCores() const { return cfg_.numCores; }
    Core &core(NodeId id);
    Directory &directory(NodeId id);
    L1Cache &l1(NodeId id);
    Grt &grt(NodeId id);
    Mesh &mesh() { return *mesh_; }
    MemoryImage &memory() { return memory_; }
    EventQueue &eventQueue() { return eq_; }

    // --- results ---------------------------------------------------------
    /** Sum of one guest Mark counter over all cores. */
    uint64_t guestCounter(int64_t idx) const;

    /** Cycle breakdown summed over all cores. */
    CycleBreakdown breakdown() const;

    /** Total retired guest instructions over all cores. */
    uint64_t totalInstrRetired() const;

    /** Reset all statistics and guest counters (post-warmup). */
    void resetStats();

    /**
     * Coherent host-side read of a guest word: returns the value of the
     * most up-to-date copy (a Modified L1 line if one exists, otherwise
     * memory). For post-run validation; no timing side effects.
     */
    uint64_t debugReadWord(Addr addr) const;

    /** Dump every component's statistic counters, gem5-stats style:
     *  one `group.name value` line per nonzero scalar. */
    void dumpStats(std::ostream &os) const;

    /**
     * Serialize every component's statistics (scalars, averages,
     * histograms with percentiles), the cpiStack object, the
     * fenceProfile aggregates, the watchdog metadata, the execution
     * checker's `check` block (verdict + witness, when enabled), and
     * the per-link NoC heatmap to the machine-readable JSON report
     * (schemaVersion 4; see README.md "Observability").
     * `include_profile = false` omits the fenceProfile object,
     * `include_check = false` the check block, and
     * `include_observatory = false` the timeline and hotLines blocks —
     * used by the on/off bit-identity tests to compare the remainder
     * byte-for-byte.
     */
    void dumpStatsJson(std::ostream &os, bool include_profile = true,
                       bool include_check = true,
                       bool include_observatory = true);

  private:
    void dispatch(NodeId node, const Message &msg);
    void handleGrtRequest(NodeId node, const Message &msg);
    bool allDone() const;

    /** Replay core i's slept cycles up to and including tick t. */
    void catchUp(size_t i, Tick t);
    /** Bring every sleeper up to now, for a reader outside the loop. */
    void syncCores();
    /** A message reached core `node`: replay its slept cycles before
     *  the message changes its state, and make it due this tick. */
    void wakeCore(NodeId node);
    /** Tick core i at t, then put it to sleep if it may. */
    void tickCore(size_t i, Tick t);

    /** System-wide forward-progress metric for the watchdog: any
     *  retired instruction, drained store, or busy cycle counts. */
    uint64_t progressCount() const;

    /** Emit delta-based per-core CPI counter-track samples into the
     *  Chrome trace (no-op unless tracing is enabled). */
    void sampleCpiCounters();

    /** Current cumulative observatory counters, gathered from the live
     *  components (reads only; no simulated side effects). Returns the
     *  reused scratch buffer — valid until the next gather. */
    const IntervalCumulative &gatherIntervalCumulative() const;

    /** Close the pending interval at the current tick: store the delta
     *  sample in the ring and mirror it into Chrome trace counter
     *  tracks when tracing is on. */
    void sampleInterval();

    /** Serialize one interval sample as a JSON object. */
    void emitIntervalSample(harness::JsonWriter &w,
                            const IntervalSample &s) const;

    SystemConfig cfg_;
    EventQueue eq_;
    MemoryImage memory_;
    std::unique_ptr<Mesh> mesh_;
    std::vector<std::unique_ptr<L2Bank>> l2_;
    std::vector<std::unique_ptr<Directory>> dirs_;
    std::vector<std::unique_ptr<Grt>> grts_;
    std::vector<std::unique_ptr<L1Cache>> l1s_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::shared_ptr<const Program>> programs_;
    std::unique_ptr<FenceProfiler> profiler_;
    std::unique_ptr<check::ExecutionRecorder> recorder_;
    std::unique_ptr<HotLineTracker> hotspot_;
    std::unique_ptr<IntervalStats> intervals_;

    /** Lazily-bound read handle used by the interval gather: one null
     *  check per counter per sample instead of a string map lookup,
     *  without ever registering a counter the component never touched
     *  (the handle stays null, and reads as 0, until the stat exists;
     *  map nodes are stable so the bound pointer never dangles). */
    struct ObsHandle
    {
        const StatGroup *group = nullptr;
        const char *name = "";
        mutable const StatScalar *stat = nullptr;

        uint64_t value() const
        {
            if (!stat)
                stat = group->find(name);
            return stat ? stat->value() : 0;
        }
    };
    struct CoreObs
    {
        ObsHandle instr, strong, weak, wee;
    };
    struct DirObs
    {
        ObsHandle bounces, nackX, nackCO;
    };
    struct GrtObs
    {
        ObsHandle deposits, clears;
    };
    /** Built on the first gather (all groups exist by then). */
    mutable std::vector<CoreObs> obsCores_;
    mutable std::vector<DirObs> obsDirs_;
    mutable std::vector<GrtObs> obsGrts_;
    /** Reused across gathers so a dense sampling interval does not
     *  allocate a fresh per-link vector every sample. */
    mutable IntervalCumulative obsScratch_;

    AddrLabels labels_;
    bool watchdogFired_ = false;
    /** Next tick at/after which to publish live-telemetry progress
     *  (cfg.progressSink; host-side only). */
    Tick progressNextAt_ = 0;
    /** Next tick at/after which to emit CPI counter-track samples. */
    Tick traceNextCpiAt_ = 0;
    /** Previous sample per core, for delta-based counter values. */
    std::vector<CycleBreakdown> traceCpiPrev_;
    uint64_t fastForwardedCycles_ = 0;
    uint64_t tickedCoreCycles_ = 0;
    /** Last tick each core's statistics account for (host-side; the
     *  tick a core is next due lives in eq_ as its due mark). */
    std::vector<Tick> synced_;
};

} // namespace asf

#endif // ASF_SYS_SYSTEM_HH

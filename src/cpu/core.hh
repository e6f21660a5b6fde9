/**
 * @file
 * The core timing model. Executes one guest thread under TSO (or,
 * optionally, RC with parallel store merging - see SystemConfig):
 *
 *  - in-order issue of up to issueWidth non-memory ops per cycle;
 *  - retired stores enter the write buffer and drain one at a time
 *    under TSO, or through several concurrent store units under RC;
 *  - loads block the thread (interpreter semantics) but may *perform*
 *    while older fences are incomplete - whether the performed value may
 *    be *delivered* early is exactly what the fence designs differ on;
 *  - atomics (CAS/XCHG) drain the write buffer first (x86 LOCK
 *    semantics) and then acquire the line exclusively.
 *
 * Fence semantics implemented (paper Section 3):
 *  - sf: post-fence loads perform speculatively but deliver only when the
 *    fence completes; conflicting invalidations squash and re-perform.
 *  - wf: post-fence loads deliver (complete) immediately; their addresses
 *    enter the Bypass Set, which bounces conflicting invalidations until
 *    the fence completes.
 *  - WS+: bounced pre-wf writes retry as OrderWrites.
 *  - SW+: bounced pre-wf writes retry as CondOrderWrites (word masks).
 *  - W+: register checkpoint at the wf; two-way bounce sustained past a
 *    timeout triggers rollback-and-drain recovery.
 *  - Wee: Pending Set deposited in the home GRT module; fences whose PS
 *    spans multiple modules demote to sf; post-fence accesses stall on
 *    Remote-PS matches or non-home lines.
 */

#ifndef ASF_CPU_CORE_HH
#define ASF_CPU_CORE_HH

#include <deque>
#include <map>
#include <optional>

#include "cpu/cpi_stack.hh"
#include "cpu/write_buffer.hh"
#include "fence/bypass_set.hh"
#include "fence/fence_kind.hh"
#include "mem/hotspot.hh"
#include "mem/l1_cache.hh"
#include "noc/mesh.hh"
#include "prog/instr.hh"
#include "prog/thread_state.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sys/config.hh"

namespace asf
{

class FenceProfiler;
struct CycleBreakdown;

namespace check
{
class ExecutionRecorder;
}

class Core
{
  public:
    Core(NodeId id, const SystemConfig &cfg, L1Cache &l1, Mesh &mesh,
         EventQueue &eq);

    /** Bind the guest program; thread starts at pc 0. */
    void setProgram(const Program *prog, uint64_t prng_seed = 0);

    /** Pre-run register initialization (thread id, base addresses...). */
    void setReg(Reg r, uint64_t v);

    /** Advance one cycle. */
    void tick();

    /**
     * Sleep protocol (System::run asks right after this core's tick).
     * Returns true when, until a message reaches this core's L1 or GRT
     * port, tick() would change nothing but the cycle-classification
     * statistics at every cycle after now and before `wake`: the core
     * is stalled (or idle, or in a pure compute burst) with no internal
     * deadline before then. `wake` is set to the earliest absolute tick
     * at which the core may act on its own — backoff expiry, drain-port
     * availability, L1-hit readiness, GRT recheck, deadlock-watchdog
     * deadline, or compute-burst end — or maxTick when it only waits on
     * messages. Conservative: may report an inactive core as active
     * (costing speed), never the reverse (which would change simulated
     * timing).
     */
    bool quiescent(Tick &wake) const;

    /**
     * Replay the statistics of `n` slept cycles — exactly what n calls
     * to tick() would have recorded, given quiescent() returned true
     * and no message arrived in between. Also retires the slept portion
     * of a compute burst. Replays are additive: k calls replay the same
     * statistics as one call for their sum.
     */
    void skipCycles(uint64_t n);

    /** Thread halted and all buffered/in-flight work has drained. */
    bool done() const;
    bool threadHalted() const { return thread_.halted(); }

    NodeId id() const { return id_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Copy write-buffer bookkeeping (pushes, squashes, high-water mark)
     *  into the stat group; called before a stats dump. */
    void syncObservabilityStats();

    /** Reset statistics, including write-buffer occupancy accounting. */
    void resetStats();

    /** Add this core's cycle classification (coarse categories plus the
     *  fine CPI-stack buckets) into `b`, reading through the cached hot
     *  handles — no string lookups. */
    void addBreakdown(CycleBreakdown &b) const;

    /** Monotone forward-progress metric for the System livelock
     *  watchdog: grows whenever the core retires an instruction, drains
     *  a store, or counts a busy (compute) cycle. */
    uint64_t progressCount() const
    {
        return hot_.instrRetired.value() + hot_.storesDrained.value() +
               hot_.busyCycles.value();
    }

    /** Attach the per-System fence-lifecycle profiler (nullptr = off;
     *  observation-only either way). */
    void setProfiler(FenceProfiler *p) { profiler_ = p; }

    /** Attach the execution recorder (nullptr = off; observation-only
     *  either way: capture happens at commit points that never branch
     *  on it). */
    void setRecorder(check::ExecutionRecorder *rec) { recorder_ = rec; }

    /** Attach the hot-line tracker (nullptr = off; observation-only:
     *  Bypass-Set insert conflicts are charged to the refused line). */
    void setHotspot(HotLineTracker *h) { hotspot_ = h; }

    /** One-line-per-item diagnostic state dump (watchdog snapshot). */
    void debugDump(std::ostream &os) const;

    /** Guest Mark-instruction counters. */
    const std::map<int64_t, uint64_t> &markCounters() const
    {
        return markCounters_;
    }
    void clearMarkCounters() { markCounters_.clear(); }

    /** GRT replies routed here by the system dispatch. */
    void onGrtMessage(const Message &msg);

    /**
     * Privacy oracle for WeeFence Private Access Filtering: returns true
     * if the address lies in a region only this thread ever touches
     * (page-table-derived in the original; declared by the workload
     * here). Unset means nothing is private.
     */
    void setPrivateChecker(std::function<bool(Addr)> fn)
    {
        isPrivate_ = std::move(fn);
    }

    // Test access.
    ThreadState &thread() { return thread_; }
    const BypassSet &bypassSet() const { return bs_; }
    const WriteBuffer &writeBuffer() const { return wb_; }

  private:
    // --- pipeline stages, called in tick() order ----------------------
    void tickFences();
    void tickLoadUnit();
    void tickRmw();
    void tickExecute();
    void classifyCycle();

    // --- execution helpers --------------------------------------------
    /** Returns false when execution must block this cycle. */
    bool executeOne(unsigned &budget);
    void startLoad(const Instr &ins);
    void startFence(const Instr &ins);
    void startRmw(const Instr &ins);

    // --- fence helpers -------------------------------------------------
    struct FenceInstance
    {
        FenceKind kind;
        bool demoted = false;
        uint64_t id = 0; ///< per-core epoch; tags BS entries
        uint64_t lastPreStoreSeq = 0;
        Tick executedAt = 0;
        // W+ recovery support.
        bool hasCheckpoint = false;
        ThreadCheckpoint checkpoint;
        bool bouncedSomeone = false;
        bool timing = false;
        Tick timeoutStart = 0;
        // Wee support.
        bool grtPending = false;
        NodeId grtHome = invalidNode;
        std::vector<Addr> remotePs;
        /** FenceProfiler record id (0 when profiling is off). */
        uint64_t profileId = 0;

        bool isWeak() const { return kind != FenceKind::Strong && !demoted; }
    };

    FenceInstance *activeWeakFence();
    const FenceInstance *activeWeakFence() const
    {
        return const_cast<Core *>(this)->activeWeakFence();
    }
    void completeFence(FenceInstance &f);
    void checkDeadlockTimeout(FenceInstance &f);
    void recoverWPlus(FenceInstance &f);
    void demoteWee(FenceInstance &f);

    // --- load unit ------------------------------------------------------
    enum class LoadPhase
    {
        Inactive,
        WaitForward,   ///< same-address pre-fence store must drain first
        AccessPending, ///< (re)try the L1 access
        PerformWait,   ///< L1 hit; value captured at readyAt
        MissPending,   ///< GetS outstanding
        Performed,     ///< value in hand; delivery gate pending
        Held,          ///< gated by a fence design rule
    };

    enum class HoldReason
    {
        None,
        StrongFence, ///< an incomplete sf precedes the load
        BsFull,      ///< wf path, but the Bypass Set is full
        GrtPending,  ///< Wee: waiting for the GRT fetch reply
        NonHomeLine, ///< Wee: line outside the fence's GRT module
        RemotePs,    ///< Wee: line matches the Remote Pending Set
    };

    struct LoadOp
    {
        LoadPhase phase = LoadPhase::Inactive;
        HoldReason hold = HoldReason::None;
        Addr addr = 0;
        Addr line = 0;
        Reg rd = 0;
        uint64_t value = 0;
        uint64_t waitStoreSeq = 0; ///< WaitForward target
        Tick readyAt = 0;
        Tick nextGrtCheckAt = 0;
        bool inBs = false;
        /** Value forwarded from this core's own buffered store; such a
         *  value cannot be invalidated by remote writes. */
        bool forwarded = false;
        /** Forwarding store's write-buffer seq (checker metadata: makes
         *  the internal reads-from edge exact). 0 when not forwarded. */
        uint64_t fwdSeq = 0;
        /** A conflicting invalidation squashed a performed value at
         *  least once: refetch cycles classify as squash-refetch, not
         *  plain L1-miss. */
        bool squashed = false;
    };

    void loadAccess();
    void evaluateLoadGate();
    void deliverLoad();

    // --- store units ------------------------------------------------------
    /** One in-flight write transaction. TSO has a single unit draining
     *  the buffer head; RC runs several concurrently. */
    struct StoreTxn
    {
        bool active = false;
        Addr line = 0;
        Addr addr = 0;
        uint64_t value = 0;
        uint64_t seq = 0;
        bool pinned = false;
    };

    /** Per-store bounce/retry bookkeeping, keyed by store seq. */
    struct StoreRetryState
    {
        unsigned retries = 0;
        bool everNacked = false;
        bool coMode = false;
        Tick nextTryAt = 0;
    };

    void issueStores();
    void finishStore(WriteBuffer::Entry &entry);
    StoreTxn *txnForLine(Addr line);
    const StoreTxn *txnForLine(Addr line) const
    {
        return const_cast<Core *>(this)->txnForLine(line);
    }
    StoreTxn *freeStoreTxn();
    bool anyStoreBounced() const;
    Tick backoff(unsigned retries) const;

    // --- fast-forward mirrors (const, side-effect-free images of the
    //     corresponding tick stages; false = the stage would act) -----
    bool fencesQuiescent(Tick &wake) const;
    bool storesQuiescent(Tick &wake) const;
    bool loadQuiescent(Tick &wake) const;
    bool rmwQuiescent(Tick &wake) const;
    bool executeQuiescent(Tick &wake) const;
    HoldReason loadGateOutcome() const;

    // --- RMW unit --------------------------------------------------------
    enum class RmwPhase
    {
        Inactive,
        Drain,    ///< wait for fences + write buffer to empty
        Access,   ///< try local exclusive access / issue GetX
        WaitLine, ///< GetX outstanding
    };

    struct RmwOp
    {
        RmwPhase phase = RmwPhase::Inactive;
        Op op = Op::Cas;
        Addr addr = 0;
        Addr line = 0;
        Reg rd = 0;
        uint64_t expect = 0;
        uint64_t desired = 0;
        unsigned retries = 0;
        Tick nextTryAt = 0;
        bool pinned = false;
    };

    void performRmwLocal();

    // --- protocol plumbing -----------------------------------------------
    void onL1Reply(const Message &msg);
    void onLineInvalidated(Addr line);
    void onBsBounce(Addr line);
    BsMatch bsProbe(Addr line, WordMask words);

    // --- members ---------------------------------------------------------
    NodeId id_;
    const SystemConfig &cfg_;
    L1Cache &l1_;
    Mesh &mesh_;
    EventQueue &eq_;

    const Program *prog_ = nullptr;
    ThreadState thread_;

    WriteBuffer wb_;
    BypassSet bs_;
    std::deque<FenceInstance> fences_;
    LoadOp load_;
    std::vector<StoreTxn> storeTxns_;
    std::map<uint64_t, StoreRetryState> storeRetry_;
    Tick storeDrainFreeAt_ = 0;
    bool tsoOrder_ = true;
    RmwOp rmw_;

    bool getSOutstanding_ = false;
    uint64_t computeRemaining_ = 0;
    uint64_t nextFenceId_ = 0;
    bool recovering_ = false;
    std::function<bool(Addr)> isPrivate_;

    /**
     * CPI-stack classification: the one stall bucket this cycle's state
     * falls in. Precondition: nothing retired, the core is not done and
     * not idle-halted. Const and state-derived, so the tick and
     * fast-forward skip paths share it and stay bit-identical.
     */
    StallBucket stallBucket() const;

    /** Count `n` cycles against bucket `b` and its coarse category
     *  (fenceStallCycles / otherStallCycles). */
    void recordStallCycles(StallBucket b, uint64_t n);

    unsigned retiredThisCycle_ = 0;
    /** Set by startFence when a WeeFence serializes behind an earlier
     *  one — the only stall whose cause is not visible in end-of-cycle
     *  state. Transition-adjacent, so never reached by skipCycles. */
    bool weeSerializeStall_ = false;
    FenceProfiler *profiler_ = nullptr;
    check::ExecutionRecorder *recorder_ = nullptr;
    HotLineTracker *hotspot_ = nullptr;

    std::map<int64_t, uint64_t> markCounters_;
    /** Marks executed while a checkpointed (W+) weak fence was active:
     *  committed when the last weak fence completes. Each entry carries
     *  the epoch (id) of the youngest weak fence active when it was
     *  journaled; recovery to fence f discards exactly the entries with
     *  epoch >= f.id - the ones the rollback squashes. */
    std::vector<std::pair<uint64_t, int64_t>> journaledMarks_;
    StatGroup stats_;

    /**
     * Hot-path handles into stats_, bound once at construction (map
     * entries are reference-stable across inserts and resetAll). The
     * pre-registered headline counters bind eagerly; the rest bind
     * lazily so the report shape stays identical to the string-lookup
     * call sites they replace.
     */
    struct HotStats
    {
        HotStats(StatGroup &g, const SystemConfig &cfg)
            : busyCycles(g.scalar("busyCycles")),
              idleCycles(g.scalar("idleCycles")),
              otherStallCycles(g.scalar("otherStallCycles")),
              fenceStallCycles(g.scalar("fenceStallCycles")),
              instrRetired(g.scalar("instrRetired")),
              storesDrained(g.scalar("storesDrained")),
              wbOccupancy(
                  g.histogram("wbOccupancy", cfg.wbEntries + 1, 1.0)),
              loadsDelivered(g, "loadsDelivered"),
              loadsExecuted(g, "loadsExecuted"),
              storesExecuted(g, "storesExecuted")
        {
            // The CPI-stack buckets bind eagerly: pre-registering all
            // of them keeps the JSON report shape identical across
            // runs (and across fast-forward on/off).
            for (unsigned i = 0; i < numStallBuckets; i++)
                stall[i] = &g.scalar(
                    stallBucketStatName(StallBucket(i)));
        }

        StatScalar &busyCycles;
        StatScalar &idleCycles;
        StatScalar &otherStallCycles;
        StatScalar &fenceStallCycles;
        StatScalar &instrRetired;
        StatScalar &storesDrained;
        StatHistogram &wbOccupancy;
        LazyStatScalar loadsDelivered;
        LazyStatScalar loadsExecuted;
        LazyStatScalar storesExecuted;
        StatScalar *stall[numStallBuckets];
    };
    HotStats hot_;
};

// Inline: stallBucket classifies every non-retiring cycle of both the
// tick and sleep-replay paths, and anyStoreBounced is its hottest input
// (the retry map is empty whenever no store has missed).
inline bool
Core::anyStoreBounced() const
{
    for (const auto &[seq, rs] : storeRetry_)
        if (rs.everNacked)
            return true;
    return false;
}

inline StallBucket
Core::stallBucket() const
{
    if (recovering_)
        return StallBucket::FenceRecovering;
    if (load_.phase != LoadPhase::Inactive) {
        switch (load_.phase) {
          case LoadPhase::Held:
            switch (load_.hold) {
              case HoldReason::StrongFence:
                return StallBucket::FenceHeldStrong;
              case HoldReason::BsFull:
                return StallBucket::FenceHeldBsFull;
              case HoldReason::GrtPending:
              case HoldReason::NonHomeLine:
                return StallBucket::FenceGrtWait;
              case HoldReason::RemotePs:
                return StallBucket::FenceRemotePs;
              case HoldReason::None:
                break; // not a steady state; classify conservatively
            }
            return StallBucket::FenceHeldStrong;
          case LoadPhase::WaitForward:
            return StallBucket::FenceWaitForward;
          default:
            // AccessPending / PerformWait / MissPending / Performed:
            // the memory system is working on the load.
            return load_.squashed ? StallBucket::OtherSquashRefetch
                                  : StallBucket::OtherL1Miss;
        }
    }
    if (rmw_.phase != RmwPhase::Inactive)
        return rmw_.phase == RmwPhase::Drain ? StallBucket::OtherRmwDrain
                                             : StallBucket::OtherNocQueue;
    // Executable thread that could not act: a store stalled on a full
    // write buffer. With a bounced store among the blockers the fence
    // protocol is what keeps the buffer from draining.
    return anyStoreBounced() ? StallBucket::FenceBounceRetry
                             : StallBucket::OtherWbFull;
}

} // namespace asf

#endif // ASF_CPU_CORE_HH

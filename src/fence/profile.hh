/**
 * @file
 * Per-fence-instance lifecycle profiler. Every dynamic fence a core
 * executes gets a unique id (threaded through core -> GRT -> directory
 * messages) and a FenceRecord tracking its phases: issue, Pending-Set
 * deposit and reply, Bypass-Set growth, bounce/retry rounds, Remote-PS
 * holds, demotion, W+ squash/recovery, completion.
 *
 * Strictly observation-only: the profiler mutates no simulated state
 * and simulated timing is bit-identical with it on or off (tested).
 * Aggregates (phase-latency histograms with p50/p90/p99 and the top-N
 * slowest instances with their phase timelines) land in the stats JSON
 * as the `fenceProfile` object; the raw per-fence records go to the
 * optional `--fence-profile PATH` JSONL dump.
 */

#ifndef ASF_FENCE_PROFILE_HH
#define ASF_FENCE_PROFILE_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "fence/fence_kind.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace asf
{

namespace harness
{
class JsonWriter;
}

/** Lifecycle of one dynamic fence instance. */
struct FenceRecord
{
    uint64_t id = 0; ///< unique within a System; 0 is never issued
    NodeId core = invalidNode;
    FenceKind kind = FenceKind::Strong;
    bool instant = false; ///< completed at issue (empty write buffer)
    bool demoted = false; ///< fell back to strong (Wee multi-module /
                          ///< watchdog)
    // Phase timeline (absolute ticks; 0 = phase never entered).
    Tick issuedAt = 0;
    Tick completedAt = 0;
    Tick grtDepositAt = 0; ///< Wee Pending-Set deposit sent
    Tick grtReplyAt = 0;   ///< Remote-PS snapshot received
    // Event counts while active.
    uint64_t psLines = 0;       ///< deposited Pending-Set size
    uint64_t bsInserts = 0;     ///< post-fence accesses entering the BS
    uint64_t bounces = 0;       ///< invalidations bounced off our BS
    uint64_t storeNacks = 0;    ///< pre-fence store retry rounds
    uint64_t remotePsHolds = 0; ///< post-fence loads held on a Remote PS
    uint64_t recoveries = 0;    ///< W+ checkpoint rollbacks at this fence
    uint64_t squashedStores = 0;///< stores those rollbacks dropped

    Tick latency() const { return completedAt - issuedAt; }
    Tick grtWait() const
    {
        return grtReplyAt >= grtDepositAt ? grtReplyAt - grtDepositAt : 0;
    }
};

class FenceProfiler
{
  public:
    explicit FenceProfiler(bool keep_raw = false);

    /** A fence executed with pending stores; returns its unique id. */
    uint64_t onIssue(NodeId core, FenceKind kind, Tick now);
    /** An instant fence (empty write buffer) issues and completes in
     *  the same cycle. */
    void onInstant(NodeId core, FenceKind kind, Tick now);

    void onGrtDeposit(uint64_t id, uint64_t ps_lines, Tick now);
    void onGrtReply(uint64_t id, Tick now);
    void onBsInsert(uint64_t id);
    void onBounce(uint64_t id);
    void onStoreNack(uint64_t id);
    void onRemotePsHold(uint64_t id);
    void onDemote(uint64_t id);
    void onRecovery(uint64_t id, uint64_t squashed_stores);
    /** A younger fence was rolled back by a W+ recovery: it never
     *  architecturally happened, so it is dropped, not folded. */
    void onSquashed(uint64_t id);
    void onComplete(uint64_t id, Tick now);

    uint64_t issued() const { return issued_; }
    uint64_t completed() const { return completed_; }
    uint64_t instants() const { return instants_; }

    static constexpr size_t topN = 8;
    const std::vector<FenceRecord> &slowest() const { return slowest_; }
    const std::vector<FenceRecord> &raw() const { return raw_; }
    const StatHistogram &latencyHist() const { return latency_; }

    /** The stats-JSON `fenceProfile` object (aggregates + top-N). */
    void dumpJson(harness::JsonWriter &w) const;

    /** One JSON object per completed fence, in completion order. */
    void dumpRawJsonl(std::ostream &os) const;

  private:
    FenceRecord *find(uint64_t id);
    void fold(const FenceRecord &r);

    bool keepRaw_;
    uint64_t nextId_ = 0;
    uint64_t issued_ = 0;
    uint64_t completed_ = 0;
    uint64_t instants_ = 0;
    uint64_t demotions_ = 0;
    uint64_t recoveries_ = 0;
    uint64_t squashedFences_ = 0;
    uint64_t byKind_[3] = {0, 0, 0};
    std::vector<FenceRecord> active_; ///< in id (= issue) order
    std::vector<FenceRecord> slowest_;///< desc by latency, <= topN
    std::vector<FenceRecord> raw_;
    StatHistogram latency_;
    StatHistogram grtWait_;
    StatHistogram bounceRounds_;
    StatHistogram bsInserts_;
};

} // namespace asf

#endif // ASF_FENCE_PROFILE_HH

/**
 * @file
 * Interval time-series for the contention observatory: every N cycles
 * System::run snapshots the cumulative counters the scaling campaign
 * cares about (CPI buckets, fence issues, directory bounces/NACKs, GRT
 * deposits/clears, per-link NoC flits) and stores the *delta* against
 * the previous snapshot in a bounded ring buffer. The ring becomes the
 * `timeline` block of the stats JSON and a set of Chrome-trace counter
 * tracks, so a 10-cycle bounce storm is distinguishable from a uniform
 * trickle.
 *
 * Identity-preservation rules (DESIGN.md section 5g): the sampler only
 * *reads* counters that are maintained anyway, stores the results
 * host-side, and never schedules events or touches simulated state -
 * so cycles and all cumulative statistics are bit-identical with the
 * observatory on or off. Samples end where System::run lands: a
 * fast-forward jump or direct-execution round can cross several
 * interval boundaries at once, and the sampler then emits one merged
 * sample spanning the whole elapsed range (each sample records its
 * actual [start, end] cycles) rather than ticking cycle-by-cycle. So
 * sample boundaries depend on the execution mode and per-metric totals
 * do not; no golden file or digest pins a timeline.
 */

#ifndef ASF_SIM_INTERVAL_STATS_HH
#define ASF_SIM_INTERVAL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cpu/cpi_stack.hh"
#include "sim/types.hh"

namespace asf
{

/** Cumulative counter values at one instant, gathered by the caller
 *  (System) from the live components. */
struct IntervalCumulative
{
    uint64_t busy = 0;
    uint64_t idle = 0;
    uint64_t stall[numStallBuckets] = {};
    uint64_t instrRetired = 0;
    /** Strong + weak + wee fences issued. */
    uint64_t fencesIssued = 0;
    /** Directory invalidation bounces (BS hits). */
    uint64_t bounces = 0;
    /** Directory NACKs: getxNacked + coFailed. */
    uint64_t nacks = 0;
    uint64_t grtDeposits = 0;
    uint64_t grtClears = 0;
    /** Per directed mesh link: busy (flit) cycles, full enumeration
     *  (node * 4 + dir), stable across the run. */
    std::vector<uint64_t> linkBusy = {};
};

/** One ring slot: deltas over (start, end]. */
struct IntervalSample
{
    Tick start = 0;
    Tick end = 0;
    uint64_t busy = 0;
    uint64_t idle = 0;
    uint64_t stall[numStallBuckets] = {};
    uint64_t instrRetired = 0;
    uint64_t fencesIssued = 0;
    uint64_t bounces = 0;
    uint64_t nacks = 0;
    uint64_t grtDeposits = 0;
    uint64_t grtClears = 0;
    /** Total flit-cycles across all links this interval. */
    uint64_t flits = 0;
    /** Sparse nonzero per-link deltas: (link index, flit cycles). */
    std::vector<std::pair<uint32_t, uint64_t>> links = {};
};

class IntervalStats
{
  public:
    /** Snapshot every `interval` cycles, keep the last `capacity`
     *  samples (older ones are dropped and counted). */
    IntervalStats(Tick interval, size_t capacity);

    Tick interval() const { return interval_; }
    /** First tick at/after which the caller should sample(). */
    Tick nextAt() const { return nextAt_; }

    /** Close the interval ending at `now` with the cumulative counter
     *  values `cur`; stores cur - prev as a sample. A jump past several
     *  boundaries yields one merged sample covering the whole span. */
    void sample(Tick now, const IntervalCumulative &cur);

    /** Build (without storing) the sample covering the still-open
     *  interval (lastSampleAt, now]. Returns false when nothing has
     *  elapsed since the last stored sample. Const so stats dumps stay
     *  idempotent: dumping twice yields the same timeline. */
    bool tailSample(Tick now, const IntervalCumulative &cur,
                    IntervalSample &out) const;

    /** Re-baseline after a counter reset (System::resetStats): drops
     *  buffered samples and restarts the deltas at `now` against the
     *  post-reset cumulative values `cur` (some feeds, like the raw
     *  per-link flit counters, are not cleared by resetStats). */
    void reset(Tick now, const IntervalCumulative &cur);

    size_t size() const { return ring_.size(); }
    size_t capacity() const { return capacity_; }
    /** Samples evicted from the ring (total taken = size + dropped). */
    uint64_t dropped() const { return dropped_; }
    /** Oldest-first access: at(0) is the earliest retained sample. */
    const IntervalSample &at(size_t i) const;

  private:
    IntervalSample makeSample(Tick now, const IntervalCumulative &cur) const;

    Tick interval_;
    size_t capacity_;
    Tick nextAt_;
    uint64_t dropped_ = 0;
    IntervalCumulative prev_ = {};
    Tick prevAt_ = 0;
    /** Ring buffer: head_ is the oldest element once full. */
    std::vector<IntervalSample> ring_;
    size_t head_ = 0;
};

} // namespace asf

#endif // ASF_SIM_INTERVAL_STATS_HH

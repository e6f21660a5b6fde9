/**
 * @file
 * Per-line hot-spot attribution: a bounded top-K frequency tracker
 * (the Space-Saving sketch of Metwally et al.) that charges contention
 * events - invalidation bounces, directory NACKs, contended sharer
 * probes, Bypass-Set insert conflicts, GRT deposits and blocked checks,
 * and L2 misses - to concrete cache-line addresses without ever growing
 * a per-address map.
 *
 * Space-Saving keeps exactly K counters. A hit increments the line's
 * counter; a miss on a full table evicts the minimum-count entry and
 * the newcomer *inherits* that count as its overestimation `error`
 * (true count is within [count - error, count]). Any line whose true
 * frequency exceeds N/K is guaranteed to be present, which is exactly
 * the hot-line question: a handful of contended flags against a long
 * tail of one-touch lines. A min-heap over the entries finds the
 * eviction victim in O(log K).
 *
 * Observation-only by construction: the tracker is fed from statistics
 * hook sites and never feeds anything back, so simulated cycles and all
 * other statistics are bit-identical with it on or off (enforced by
 * tests/mem/test_hotspot.cc).
 */

#ifndef ASF_MEM_HOTSPOT_HH
#define ASF_MEM_HOTSPOT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/line_table.hh"
#include "sim/types.hh"

namespace asf
{

/** Contention event kinds the tracker attributes to lines. */
enum class HotEvent : uint8_t
{
    Bounce,     ///< invalidation probe answered `bounced` (BS hit)
    NackX,      ///< GetX transaction NACKed after a bounce
    NackCO,     ///< conditional OrderWrite failed on true sharing
    SharerProbe,///< directory txn that had to probe remote sharers
    BsConflict, ///< Bypass-Set insert refused (BS full)
    GrtDeposit, ///< line deposited into a GRT pending set
    GrtBlock,   ///< GRT check answered "blocked" for this line
    L2Miss,     ///< L2 bank miss (off-chip fill)
};

constexpr unsigned numHotEvents = 8;

const char *hotEventName(HotEvent e);

class HotLineTracker
{
  public:
    struct Entry
    {
        Addr line = 0;
        /** Space-Saving count (upper bound on the true event count). */
        uint64_t count = 0;
        /** Overestimation bound inherited at eviction; the true count
         *  is within [count - error, count]. */
        uint64_t error = 0;
        /** Per-kind attribution since this line (re)entered the table.
         *  Unlike `count` these do not inherit the evictee's history. */
        uint64_t byEvent[numHotEvents] = {};
        /** Largest sharer set a directory transaction probed. */
        unsigned sharerPeak = 0;
    };

    explicit HotLineTracker(unsigned capacity = 64);

    /** Charge one event (weight `w`) against `line`. */
    void record(Addr line, HotEvent ev, uint64_t w = 1);

    /** Record a sharer-count observation: counts as one SharerProbe
     *  event and updates the entry's peak. */
    void recordSharers(Addr line, unsigned sharers);

    /** Entries sorted by count descending (ties: lower address first,
     *  so the order is deterministic). */
    std::vector<Entry> top() const;

    unsigned capacity() const { return capacity_; }
    size_t size() const { return entries_.size(); }
    /** Total events recorded (all kinds, all lines, incl. evicted). */
    uint64_t totalRecorded() const { return totalRecorded_; }
    /** Misses that evicted a minimum entry (table was full). */
    uint64_t evictions() const { return evictions_; }

    /** Forget everything (post-warmup resetStats). */
    void reset();

  private:
    /** One heap position: an entry's eviction key, kept in step with
     *  the entry, so sifts never read entries_. */
    struct HeapSlot
    {
        uint64_t count;
        Addr line;
        uint32_t entry; ///< index into entries_
    };

    Entry &touch(Addr line, uint64_t w);

    /** Eviction order: lower count first, then lower address. Lines
     *  are unique, so the victim (the minimum) is too. */
    static bool
    evictsBefore(const HeapSlot &a, const HeapSlot &b)
    {
        return a.count != b.count ? a.count < b.count : a.line < b.line;
    }
    void siftUp(size_t pos);
    void siftDown(size_t pos);
    void place(size_t pos, const HeapSlot &slot);

    unsigned capacity_;
    uint64_t totalRecorded_ = 0;
    uint64_t evictions_ = 0;
    std::vector<Entry> entries_;
    /** line -> index into entries_. Bounded by capacity_. */
    LineTable<uint32_t> index_;
    /** The entries as a binary min-heap in eviction order: heap_[0]
     *  is the Space-Saving victim. heapPos_[i] is where entry i sits
     *  in heap_. */
    std::vector<HeapSlot> heap_;
    std::vector<uint32_t> heapPos_;
};

/**
 * Address-to-name registry so hot-line reports say `dekker.flag[1]`
 * instead of a raw address. Labels are registered at line granularity
 * by workload setup code (System::labelLine); lookups align down.
 */
class AddrLabels
{
  public:
    void label(Addr line, std::string name);
    /** Label for the line containing `addr`, or "" when unknown. */
    const std::string &lookup(Addr addr) const;
    bool empty() const { return labels_.empty(); }
    void clear() { labels_.clear(); }

  private:
    std::map<Addr, std::string> labels_;
};

} // namespace asf

#endif // ASF_MEM_HOTSPOT_HH

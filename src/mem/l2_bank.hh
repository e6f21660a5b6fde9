/**
 * @file
 * One bank of the shared L2 at a home node. The bank acts as a latency
 * filter between the directory and off-chip memory: an access that hits
 * in the bank's tags costs the L2 round trip (11 cycles), a miss costs
 * the off-chip round trip (200 cycles) and allocates the tag. Data
 * authority lives in the MemoryImage (dirty writebacks land there
 * immediately), so the bank only tracks tags.
 *
 * Each set is one row of line addresses in most-recently-used order:
 * way 0 is the MRU line, the last way the LRU victim. A hit moves its
 * line to the front; a miss shifts the row back one way and inserts at
 * the front, pushing out the last way. Nothing invalidates an L2 line,
 * so empty ways only ever sit at a row's tail, and this is exactly
 * true-LRU replacement. An 8-way row is 64 bytes, one host cache line.
 */

#ifndef ASF_MEM_L2_BANK_HH
#define ASF_MEM_L2_BANK_HH

#include <memory>
#include <new>

#include "mem/hotspot.hh"
#include "mem/message.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace asf
{

class L2Bank
{
  public:
    L2Bank(NodeId node, unsigned size_bytes, unsigned assoc,
           Tick hit_latency, Tick mem_latency);

    /**
     * Account one access to line_addr: returns the storage latency
     * (hit or miss+fill) and allocates the tag on a miss. Panics on an
     * address that is not line-aligned.
     */
    Tick access(Addr line_addr);

    /** Tag presence without side effects (tests). */
    bool contains(Addr line_addr) const;

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Attach the hot-line tracker (observation only: misses are
     *  charged to their line; never affects latency decisions). */
    void setHotspot(HotLineTracker *h) { hotspot_ = h; }

  private:
    /** Tag of an empty way. It is not line-aligned, so no line has it. */
    static constexpr Addr emptyWay = ~Addr(0);
    static constexpr std::align_val_t rowAlign{64};

    struct AlignedDelete
    {
        void operator()(Addr *p) const { ::operator delete[](p, rowAlign); }
    };

    Addr *row(Addr line_addr) const
    {
        size_t set = size_t((line_addr / lineBytes) & (numSets_ - 1));
        return tags_.get() + set * assoc_;
    }

    unsigned assoc_;
    unsigned numSets_;
    /** numSets_ rows of assoc_ line addresses, MRU first. */
    std::unique_ptr<Addr[], AlignedDelete> tags_;
    Tick hitLatency_;
    Tick memLatency_;
    HotLineTracker *hotspot_ = nullptr;
    StatGroup stats_;
    // Hot-path handles into stats_ (lazily bound; see LazyStatScalar).
    LazyStatScalar statHits_;
    LazyStatScalar statMisses_;
    LazyStatScalar statEvictions_;
};

} // namespace asf

#endif // ASF_MEM_L2_BANK_HH

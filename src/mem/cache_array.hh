/**
 * @file
 * A set-associative tag/data array with true-LRU replacement, used for the
 * private L1s (tags + MESI state + data) and for the shared L2 banks
 * (tags only, as a latency filter in front of memory).
 */

#ifndef ASF_MEM_CACHE_ARRAY_HH
#define ASF_MEM_CACHE_ARRAY_HH

#include <functional>
#include <vector>

#include "mem/message.hh"
#include "sim/types.hh"

namespace asf
{

enum class MesiState : uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

const char *mesiName(MesiState s);

struct CacheLine
{
    Addr addr = 0;
    MesiState state = MesiState::Invalid;
    LineData data{};
    uint64_t lruStamp = 0;

    bool valid() const { return state != MesiState::Invalid; }
    bool dirty() const { return state == MesiState::Modified; }
};

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     */
    CacheArray(unsigned size_bytes, unsigned assoc);

    /** Find a valid line; nullptr on miss. Does not touch LRU. */
    CacheLine *find(Addr line_addr);
    const CacheLine *find(Addr line_addr) const;

    /** Mark a line most-recently-used. */
    void touch(CacheLine &line);

    /**
     * Pick the insertion slot for line_addr: an invalid way if one exists,
     * else the LRU way (whose previous content the caller must evict).
     * Returns the slot; `victim_valid` reports whether it held a line.
     * A line whose address equals `exclude` is never chosen (used to pin
     * a line with an outstanding upgrade); there must be at least two
     * ways for the exclusion to be satisfiable.
     */
    CacheLine &victimFor(Addr line_addr, bool &victim_valid,
                         Addr exclude = ~Addr(0));

    /** Predicate form: any line for which `excluded` returns true is
     *  never chosen (multiple in-flight upgrades pin several lines). */
    CacheLine &victimFor(Addr line_addr, bool &victim_valid,
                         const std::function<bool(Addr)> &excluded);

    /** Install a line into a slot previously obtained from victimFor. */
    void install(CacheLine &slot, Addr line_addr, MesiState state,
                 const LineData &data);

    /** Invalidate a line if present; returns true if it was valid. */
    bool invalidate(Addr line_addr);

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** Count of valid lines (tests/debug). */
    unsigned validCount() const;

  private:
    unsigned setIndex(Addr line_addr) const;

    unsigned assoc_;
    unsigned numSets_;
    std::vector<CacheLine> lines_;
    /** lines_[i].addr, packed so find() scans a set's tags in one row;
     *  install() is the only writer of either. */
    std::vector<Addr> tags_;
    uint64_t lruClock_ = 0;
};

} // namespace asf

#endif // ASF_MEM_CACHE_ARRAY_HH

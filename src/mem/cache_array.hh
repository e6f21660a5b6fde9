/**
 * @file
 * A set-associative tag/data array with true-LRU replacement: the
 * private L1s' tags, MESI state and data. (The shared L2 banks keep
 * tags only, in their own most-recently-used rows; see l2_bank.hh.)
 */

#ifndef ASF_MEM_CACHE_ARRAY_HH
#define ASF_MEM_CACHE_ARRAY_HH

#include <concepts>
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
    /** The victimFor() predicate that excludes no line. */
    struct ExcludeNone
    {
        bool operator()(Addr) const { return false; }
    };

    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     */
    CacheArray(unsigned size_bytes, unsigned assoc);

    /** Find a valid line; nullptr on miss. Does not touch LRU. */
    CacheLine *
    find(Addr line_addr)
    {
        size_t base = size_t(setIndex(line_addr)) * assoc_;
        for (size_t i = base; i < base + assoc_; i++) {
            // An invalid way may keep a stale tag: keep scanning past it.
            if (tags_[i] == line_addr && lines_[i].valid())
                return &lines_[i];
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->find(line_addr);
    }

    /** Mark a line most-recently-used. */
    void touch(CacheLine &line) { line.lruStamp = ++lruClock_; }

    /**
     * Pick the insertion slot for line_addr: an invalid way if one exists,
     * else the LRU way (whose previous content the caller must evict).
     * Returns the slot; `victim_valid` reports whether it held a line.
     * A line for which `excluded` returns true is never chosen (used to
     * pin lines with an outstanding upgrade); at least one way of the
     * set must stay eligible.
     */
    template <typename F = ExcludeNone>
        requires std::predicate<const F &, Addr>
    CacheLine &
    victimFor(Addr line_addr, bool &victim_valid, const F &excluded = {})
    {
        size_t base = size_t(setIndex(line_addr)) * assoc_;
        CacheLine *best = nullptr;
        for (size_t i = base; i < base + assoc_; i++) {
            CacheLine &l = lines_[i];
            if (!l.valid()) {
                victim_valid = false;
                return l;
            }
            if (excluded(l.addr))
                continue;
            if (!best || l.lruStamp < best->lruStamp)
                best = &l;
        }
        if (!best)
            allExcluded();
        victim_valid = true;
        return *best;
    }

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
    unsigned
    setIndex(Addr line_addr) const
    {
        return unsigned((line_addr / lineBytes) & (numSets_ - 1));
    }

    [[noreturn]] void allExcluded() const;

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

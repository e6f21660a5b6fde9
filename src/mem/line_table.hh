/**
 * @file
 * A hash table keyed by cache-line address, for the per-line bookkeeping
 * on the coherence hot path: directory entries, the hot-line index and
 * the memory image. Open addressing with linear probing over a
 * power-of-two slot array, Fibonacci hashing, and at most three quarters
 * of the slots in use. Erase shifts the rest of its probe chain back
 * into the hole, so there are no tombstones and every lookup ends at the
 * first free slot. The table allocates only when it doubles, never per
 * line.
 *
 * Growth moves every value and erase moves some: a reference returned
 * by find() or operator[] lasts only until the next insertion of a new
 * key or the next erase.
 */

#ifndef ASF_MEM_LINE_TABLE_HH
#define ASF_MEM_LINE_TABLE_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace asf
{

template <typename V>
class LineTable
{
  public:
    /** Key of a free slot. It is not line-aligned, so no line has it. */
    static constexpr Addr freeKey = ~Addr(0);

    LineTable() { allocate(minSlots); }

    /** The value stored under `line`, or nullptr. */
    V *
    find(Addr line)
    {
        for (size_t i = homeSlot(line);; i = (i + 1) & mask_) {
            if (slots_[i].key == line)
                return &slots_[i].value;
            if (slots_[i].key == freeKey)
                return nullptr;
        }
    }

    const V *
    find(Addr line) const
    {
        return const_cast<LineTable *>(this)->find(line);
    }

    /** The value stored under `line`; a value-initialized one is
     *  inserted first if the line is absent. */
    V &
    operator[](Addr line)
    {
        assert(line != freeKey);
        size_t i = homeSlot(line);
        for (; slots_[i].key != freeKey; i = (i + 1) & mask_) {
            if (slots_[i].key == line)
                return slots_[i].value;
        }
        if (4 * (size_ + 1) > 3 * slots_.size()) {
            grow();
            i = freeSlotFor(line);
        }
        size_++;
        slots_[i].key = line;
        slots_[i].value = V{};
        return slots_[i].value;
    }

    /** Remove `line`; returns false if it was absent. */
    bool
    erase(Addr line)
    {
        size_t hole = homeSlot(line);
        for (; slots_[hole].key != line; hole = (hole + 1) & mask_) {
            if (slots_[hole].key == freeKey)
                return false;
        }
        // Walk the rest of the chain. An entry may move back into the
        // hole only if its home slot is not in (hole, j]: otherwise a
        // lookup starting at its home would stop at the hole.
        for (size_t j = (hole + 1) & mask_; slots_[j].key != freeKey;
             j = (j + 1) & mask_) {
            size_t home = homeSlot(slots_[j].key);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].key = freeKey;
        size_--;
        return true;
    }

    /** Drop every entry; the slot array keeps its size. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = freeKey;
        size_ = 0;
    }

    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }

    /** Slot where the probe for `line` starts (tests use it to build
     *  chains that collide or wrap past the last slot). */
    size_t
    homeSlot(Addr line) const
    {
        return size_t((line * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

  private:
    static constexpr size_t minSlots = 16;

    struct Slot
    {
        Addr key = freeKey;
        V value{};
    };

    void
    allocate(size_t slots)
    {
        slots_.assign(slots, Slot{});
        mask_ = slots - 1;
        shift_ = 64 - unsigned(std::countr_zero(slots));
        size_ = 0;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        allocate(2 * old.size());
        for (Slot &s : old) {
            if (s.key == freeKey)
                continue;
            slots_[freeSlotFor(s.key)] = std::move(s);
            size_++;
        }
    }

    /** First free slot of the probe for `line` (which must be absent). */
    size_t
    freeSlotFor(Addr line) const
    {
        size_t i = homeSlot(line);
        while (slots_[i].key != freeKey)
            i = (i + 1) & mask_;
        return i;
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    unsigned shift_ = 0;
    size_t size_ = 0;
};

} // namespace asf

#endif // ASF_MEM_LINE_TABLE_HH

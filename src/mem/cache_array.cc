#include "mem/cache_array.hh"

#include "mem/address.hh"
#include "sim/logging.hh"

namespace asf
{

const char *
mesiName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid: return "I";
      case MesiState::Shared: return "S";
      case MesiState::Exclusive: return "E";
      case MesiState::Modified: return "M";
    }
    return "?";
}

CacheArray::CacheArray(unsigned size_bytes, unsigned assoc) : assoc_(assoc)
{
    if (assoc == 0 || size_bytes == 0)
        fatal("cache with zero capacity or associativity");
    unsigned num_lines = size_bytes / lineBytes;
    if (num_lines % assoc != 0)
        fatal("cache size %u not divisible into %u-way sets", size_bytes,
              assoc);
    numSets_ = num_lines / assoc;
    if ((numSets_ & (numSets_ - 1)) != 0)
        fatal("cache set count %u not a power of two", numSets_);
    lines_.resize(num_lines);
    tags_.resize(num_lines);
}

unsigned
CacheArray::setIndex(Addr line_addr) const
{
    return unsigned((line_addr / lineBytes) & (numSets_ - 1));
}

CacheLine *
CacheArray::find(Addr line_addr)
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
CacheArray::find(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->find(line_addr);
}

void
CacheArray::touch(CacheLine &line)
{
    line.lruStamp = ++lruClock_;
}

CacheLine &
CacheArray::victimFor(Addr line_addr, bool &victim_valid, Addr exclude)
{
    return victimFor(line_addr, victim_valid,
                     [exclude](Addr a) { return a == exclude; });
}

CacheLine &
CacheArray::victimFor(Addr line_addr, bool &victim_valid,
                      const std::function<bool(Addr)> &excluded)
{
    unsigned set = setIndex(line_addr);
    CacheLine *best = nullptr;
    for (unsigned w = 0; w < assoc_; w++) {
        CacheLine &l = lines_[size_t(set) * assoc_ + w];
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
        panic("victimFor: every way excluded (assoc %u)", assoc_);
    victim_valid = true;
    return *best;
}

void
CacheArray::install(CacheLine &slot, Addr line_addr, MesiState state,
                    const LineData &data)
{
    if (!isLineAligned(line_addr))
        panic("install: unaligned %#llx", (unsigned long long)line_addr);
    slot.addr = line_addr;
    tags_[size_t(&slot - lines_.data())] = line_addr;
    slot.state = state;
    slot.data = data;
    touch(slot);
}

bool
CacheArray::invalidate(Addr line_addr)
{
    CacheLine *l = find(line_addr);
    if (!l)
        return false;
    l->state = MesiState::Invalid;
    return true;
}

unsigned
CacheArray::validCount() const
{
    unsigned n = 0;
    for (const auto &l : lines_)
        if (l.valid())
            n++;
    return n;
}

} // namespace asf

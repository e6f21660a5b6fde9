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

CacheArray::CacheArray(unsigned size_bytes, unsigned assoc)
    : assoc_(assoc), numSets_(cacheSetCount(size_bytes, assoc)),
      lines_(size_t(numSets_) * assoc), tags_(size_t(numSets_) * assoc)
{
}

void
CacheArray::allExcluded() const
{
    panic("victimFor: every way excluded (assoc %u)", assoc_);
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

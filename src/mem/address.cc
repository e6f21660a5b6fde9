#include "mem/address.hh"

#include "sim/logging.hh"

namespace asf
{

Addr
lineAlign(Addr addr)
{
    return addr & ~Addr(lineBytes - 1);
}

bool
isLineAligned(Addr addr)
{
    return (addr & (lineBytes - 1)) == 0;
}

bool
isWordAligned(Addr addr)
{
    return (addr & (wordBytes - 1)) == 0;
}

unsigned
wordInLine(Addr addr)
{
    return unsigned((addr & (lineBytes - 1)) / wordBytes);
}

WordMask
wordMaskFor(Addr addr)
{
    return WordMask(1u << wordInLine(addr));
}

WordMask
fullLineMask()
{
    return WordMask((1u << wordsPerLine) - 1);
}

NodeId
homeNode(Addr addr, unsigned num_nodes)
{
    if (num_nodes == 0)
        panic("homeNode with zero nodes");
    return NodeId((addr / homeGranuleBytes) % num_nodes);
}

unsigned
cacheSetCount(unsigned size_bytes, unsigned assoc)
{
    if (assoc == 0 || size_bytes == 0)
        fatal("cache with zero capacity or associativity");
    unsigned num_lines = size_bytes / lineBytes;
    if (num_lines % assoc != 0)
        fatal("cache size %u not divisible into %u-way sets", size_bytes,
              assoc);
    unsigned num_sets = num_lines / assoc;
    if (num_sets == 0 || (num_sets & (num_sets - 1)) != 0)
        fatal("cache set count %u not a power of two", num_sets);
    return num_sets;
}

} // namespace asf

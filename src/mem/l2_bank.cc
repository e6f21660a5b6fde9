#include "mem/l2_bank.hh"

#include <algorithm>

#include "mem/address.hh"
#include "sim/logging.hh"

namespace asf
{

L2Bank::L2Bank(NodeId node, unsigned size_bytes, unsigned assoc,
               Tick hit_latency, Tick mem_latency)
    : assoc_(assoc), numSets_(cacheSetCount(size_bytes, assoc)),
      tags_(new (rowAlign) Addr[size_t(numSets_) * assoc]),
      hitLatency_(hit_latency), memLatency_(mem_latency),
      stats_(format("l2bank%d", node)), statHits_(stats_, "hits"),
      statMisses_(stats_, "misses"), statEvictions_(stats_, "evictions")
{
    std::fill_n(tags_.get(), size_t(numSets_) * assoc_, emptyWay);
}

Tick
L2Bank::access(Addr line_addr)
{
    // Checked first: emptyWay is itself unaligned and must never hit.
    if (!isLineAligned(line_addr))
        panic("L2 access: unaligned %#llx", (unsigned long long)line_addr);
    Addr *ways = row(line_addr);
    for (unsigned w = 0; w < assoc_; w++) {
        if (ways[w] == line_addr) {
            std::copy_backward(ways, ways + w, ways + w + 1);
            ways[0] = line_addr;
            statHits_.inc();
            return hitLatency_;
        }
    }
    statMisses_.inc();
    if (hotspot_)
        hotspot_->record(line_addr, HotEvent::L2Miss);
    if (ways[assoc_ - 1] != emptyWay)
        statEvictions_.inc();
    std::copy_backward(ways, ways + assoc_ - 1, ways + assoc_);
    ways[0] = line_addr;
    return memLatency_;
}

bool
L2Bank::contains(Addr line_addr) const
{
    if (line_addr == emptyWay)
        return false;
    const Addr *ways = row(line_addr);
    return std::find(ways, ways + assoc_, line_addr) != ways + assoc_;
}

} // namespace asf

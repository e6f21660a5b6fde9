/**
 * @file
 * Private L1 data cache controller. Besides the usual fill/evict/probe
 * duties, this is where the paper's Bypass Set hooks in: every incoming
 * invalidating probe is checked against the core's BS (via hooks the
 * core installs), and may be bounced, turned into a monitored
 * invalidation (Order), or answered with true/false-sharing information
 * (Conditional Order). Dirty/exclusive evictions of lines in the BS ask
 * the directory to keep this node as a sharer so the BS keeps observing
 * future writes (paper Section 5.1).
 */

#ifndef ASF_MEM_L1_CACHE_HH
#define ASF_MEM_L1_CACHE_HH

#include <functional>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/message.hh"
#include "noc/mesh.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace asf
{

class L1Cache
{
  public:
    L1Cache(NodeId node, unsigned num_nodes, Mesh &mesh,
            unsigned size_bytes, unsigned assoc);

    // --- hooks installed by the core ----------------------------------
    /** Match an incoming request against the Bypass Set. */
    std::function<BsMatch(Addr line, WordMask words)> bsMatch;
    /** An invalidation actually happened (or targets an absent line). */
    std::function<void(Addr line)> onLineInvalidated;
    /** Our BS bounced an external request (W+ deadlock detection). */
    std::function<void(Addr line)> onBsBounce;
    /** Protocol reply for this core (Data / Ack / Nack messages). */
    std::function<void(const Message &)> onReply;

    // --- core-facing operations ---------------------------------------
    /** Lookup without LRU side effects. */
    CacheLine *find(Addr line_addr) { return array_.find(line_addr); }
    const CacheLine *find(Addr line_addr) const
    {
        return array_.find(line_addr);
    }

    /** Read a word on a hit (touches LRU). Returns false on miss. */
    bool readWord(Addr addr, uint64_t &value);

    /** Write a word if we hold M/E (E upgrades to M silently). */
    bool writeWordExclusive(Addr addr, uint64_t value);

    /** True if we hold the line in Shared state. */
    bool hasShared(Addr line_addr) const;

    /** Issue a read miss. */
    void sendGetS(Addr line_addr);

    /**
     * Issue a write request: GetX, OrderWrite or CondOrderWrite.
     * For Order/CO the word update travels in the message; `fence_id`
     * tags it with the ordering fence's profiler id and `store_seq`
     * with the carried store's execution-checker id (observability
     * only, never affects timing).
     */
    void sendWriteReq(MsgType type, Addr addr, uint64_t value,
                      bool req_has_line, TrafficClass tc,
                      uint64_t fence_id = 0, uint64_t store_seq = 0);

    /** Pin a line against eviction while its upgrade is outstanding.
     *  Several lines may be pinned at once (RC store units, RMW). */
    void pin(Addr line_addr);
    void unpin(Addr line_addr);

    /** Entry point for mesh messages addressed to this L1. */
    void handle(const Message &msg);

    StatGroup &stats() { return stats_; }

  private:
    void handleFill(const Message &msg, MesiState state);
    void handleInv(const Message &msg);
    void handleDwngr(const Message &msg);

    /** Allocate a slot for line_addr, evicting as needed. */
    CacheLine &allocate(Addr line_addr);
    void evict(CacheLine &victim);

    NodeId node_;
    unsigned numNodes_;
    Mesh &mesh_;
    CacheArray array_;
    std::vector<Addr> pinned_;
    StatGroup stats_;
    // Hot-path handles into stats_ (lazily bound so the report shape
    // stays identical to the string-lookup call sites they replace).
    LazyStatScalar statLoadHits_;
    LazyStatScalar statLoadMisses_;
    LazyStatScalar statStoreHits_;
    LazyStatScalar statEvictions_;
    LazyStatScalar statFills_;
    LazyStatScalar statInvsBounced_;
    LazyStatScalar statInvsServiced_;
    LazyStatScalar statDowngrades_;
};

} // namespace asf

#endif // ASF_MEM_L1_CACHE_HH

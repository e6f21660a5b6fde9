/**
 * @file
 * One slice of the distributed full-map MESI directory (one per node,
 * lines interleaved by address). Directory-centric 4-hop protocol with
 * per-line transaction serialization: a request for a line with an active
 * transaction queues behind it.
 *
 * Paper-specific behavior implemented here:
 *  - an invalidation probe answered with `bounced` (Bypass Set hit at the
 *    target) aborts the transaction and NACKs the requester, who retries;
 *  - OrderWrite: invalidate sharers but keep BS-matching ones in the
 *    sharer list, merge the carried word update into memory, leave the
 *    requester a Sharer (the store completes without ownership);
 *  - CondOrderWrite: like OrderWrite, but fails (NackCO, update
 *    discarded) if any probed BS reports true sharing;
 *  - PutM/PutE with keepSharer: evicted-but-monitoring caches stay in the
 *    sharer list so their BS keeps seeing future invalidations.
 *
 * Sharer lists are conservative: Shared-state evictions are silent, so a
 * listed sharer may no longer hold the line; probing it is harmless.
 *
 * Bookkeeping is flat: sharer sets are 64-bit masks (so a slice serves
 * at most 64 nodes), every line's state sits in one LineTable, and a
 * busy line's transaction, with the requests queued behind it, sits in
 * a pooled slot that the line's entry points to.
 */

#ifndef ASF_MEM_DIRECTORY_HH
#define ASF_MEM_DIRECTORY_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "mem/hotspot.hh"
#include "mem/l2_bank.hh"
#include "mem/line_table.hh"
#include "mem/memory_image.hh"
#include "mem/message.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace asf
{

namespace check
{
class ExecutionRecorder;
}

class Directory
{
  public:
    Directory(NodeId node, unsigned num_nodes, Mesh &mesh, EventQueue &eq,
              MemoryImage &memory, L2Bank &l2, Tick lookup_latency = 6);

    /** Entry point for every directory-bound message at this node. */
    void handle(const Message &msg);

    StatGroup &stats() { return stats_; }

    /** Attach the execution recorder (observation only: Order-merge
     *  coherence stamping; never affects protocol decisions). */
    void setRecorder(check::ExecutionRecorder *rec) { recorder_ = rec; }

    /** Attach the hot-line tracker (observation only: bounces, NACKs,
     *  and contended probe fan-outs are charged to their line; never
     *  affects protocol decisions). */
    void setHotspot(HotLineTracker *h) { hotspot_ = h; }

    // --- introspection for tests --------------------------------------
    bool isSharer(Addr line, NodeId node) const;
    bool isExclusive(Addr line, NodeId owner) const;
    bool lineBusy(Addr line) const;
    size_t queuedRequests(Addr line) const;

    /** In-flight transactions and queued requests, one line each
     *  (watchdog diagnostic snapshot). Silent when idle. */
    void debugDump(std::ostream &os) const;

  private:
    /** Marks a line with no active transaction. */
    static constexpr uint32_t noTxn = ~uint32_t(0);

    struct Entry
    {
        /** Conservative sharer set, bit n for node n (includes the
         *  owner when exclusive). */
        uint64_t sharers = 0;
        /** The node granted E or M rights, or invalidNode. */
        NodeId owner = invalidNode;
        /** Index into txns_ of the line's active transaction. */
        uint32_t txn = noTxn;
    };

    struct Txn
    {
        Message req;
        bool storageReady = false;
        unsigned pendingAcks = 0;
        bool anyBounce = false;
        bool anyTrueShare = false;
        uint64_t keepAsSharers = 0;
        uint64_t invalidated = 0;
    };

    /** A busy line's transaction and the requests queued behind it. */
    struct TxnSlot
    {
        Txn txn;
        /** Requests that arrived while the line was busy, in arrival
         *  order from waitHead; the next one restarts this slot when
         *  `txn` finishes. */
        std::vector<Message> waiting;
        size_t waitHead = 0;
    };

    /** The entry of a line that has an active transaction. */
    Entry &busyEntry(Addr line, const char *what);
    void startTxn(Entry &entry, const Message &req);
    void issueTxn(Addr line);
    void onProbeAck(const Message &ack);
    void tryFinalize(Entry &entry);
    void finalize(Txn &txn, Entry &entry);
    void finishLine(Entry &entry);

    void finalizeGetS(Txn &txn, Entry &entry);
    void finalizeGetX(Txn &txn, Entry &entry);
    void finalizeOrder(Txn &txn, Entry &entry);

    void handlePut(const Message &msg);

    void reply(const Txn &txn, MsgType type, bool with_data,
               TrafficClass tc = TrafficClass::Base);
    void sendProbe(NodeId target, const Message &req, MsgType type,
                   bool order_bit, WordMask mask);

    NodeId node_;
    unsigned numNodes_;
    Mesh &mesh_;
    EventQueue &eq_;
    MemoryImage &memory_;
    L2Bank &l2_;
    Tick lookupLatency_;
    check::ExecutionRecorder *recorder_ = nullptr;
    HotLineTracker *hotspot_ = nullptr;
    LineTable<Entry> entries_;
    /** Transaction slots; freeTxns_ lists the idle ones. */
    std::vector<TxnSlot> txns_;
    std::vector<uint32_t> freeTxns_;
    StatGroup stats_;
    // Hot-path handles into stats_: references for the pre-registered
    // counters, lazy handles for the rest (orderCompleted, and the
    // per-request counters indexed by MsgType) so untouched counters
    // stay out of the report.
    StatScalar &statQueued_;
    StatScalar &statProbes_;
    StatScalar &statBounces_;
    StatScalar &statGetxNacked_;
    StatScalar &statCoFailed_;
    LazyStatScalar statOrderCompleted_;
    std::vector<LazyStatScalar> statByType_;
};

} // namespace asf

#endif // ASF_MEM_DIRECTORY_HH

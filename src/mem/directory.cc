#include "mem/directory.hh"

#include <algorithm>
#include <bit>

#include "check/recorder.hh"
#include "mem/address.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace asf
{

namespace
{

uint64_t
nodeBit(NodeId n)
{
    return uint64_t(1) << n;
}

} // namespace

Directory::Directory(NodeId node, unsigned num_nodes, Mesh &mesh,
                     EventQueue &eq, MemoryImage &memory, L2Bank &l2,
                     Tick lookup_latency)
    : node_(node), numNodes_(num_nodes), mesh_(mesh), eq_(eq),
      memory_(memory), l2_(l2), lookupLatency_(lookup_latency),
      stats_(format("dir%d", node)),
      statQueued_(stats_.scalar("queued")),
      statProbes_(stats_.scalar("probes")),
      statBounces_(stats_.scalar("bounces")),
      // Stable JSON-report shape: the bounce/Nack counters exist even
      // for runs that never contend.
      statGetxNacked_(stats_.scalar("getxNacked")),
      statCoFailed_(stats_.scalar("coFailed")),
      statOrderCompleted_(stats_, "orderCompleted")
{
    if (num_nodes > 64)
        fatal("directory %d: %u nodes do not fit a 64-bit sharer mask",
              node, num_nodes);
    statByType_.reserve(numMsgTypes);
    for (unsigned t = 0; t < numMsgTypes; t++)
        statByType_.emplace_back(stats_, msgTypeName(MsgType(t)));
    ASF_TRACE(threadName(1000 + uint32_t(node_),
                         format("dir%d", node_)));
}

bool
Directory::isSharer(Addr line, NodeId node) const
{
    const Entry *e = entries_.find(line);
    return e && (e->sharers & nodeBit(node)) != 0;
}

bool
Directory::isExclusive(Addr line, NodeId owner) const
{
    const Entry *e = entries_.find(line);
    return e && e->owner != invalidNode && e->owner == owner;
}

bool
Directory::lineBusy(Addr line) const
{
    const Entry *e = entries_.find(line);
    return e && e->txn != noTxn;
}

size_t
Directory::queuedRequests(Addr line) const
{
    const Entry *e = entries_.find(line);
    if (!e || e->txn == noTxn)
        return 0;
    const TxnSlot &slot = txns_[e->txn];
    return slot.waiting.size() - slot.waitHead;
}

void
Directory::debugDump(std::ostream &os) const
{
    std::vector<bool> idle(txns_.size());
    for (uint32_t t : freeTxns_)
        idle[t] = true;
    std::vector<const TxnSlot *> busy;
    for (size_t t = 0; t < txns_.size(); t++)
        if (!idle[t])
            busy.push_back(&txns_[t]);
    if (busy.empty())
        return;
    std::sort(busy.begin(), busy.end(),
              [](const TxnSlot *a, const TxnSlot *b) {
                  return a->txn.req.addr < b->txn.req.addr;
              });
    os << "dir" << unsigned(node_) << ":\n";
    for (const TxnSlot *slot : busy) {
        const Txn &txn = slot->txn;
        os << "  txn line=0x" << std::hex << txn.req.addr << std::dec << " "
           << msgTypeName(txn.req.type) << " from core"
           << unsigned(txn.req.src) << " fenceId=" << txn.req.fenceId
           << " storageReady=" << txn.storageReady
           << " pendingAcks=" << txn.pendingAcks
           << " anyBounce=" << txn.anyBounce << "\n";
    }
    for (const TxnSlot *slot : busy) {
        if (slot->waiting.empty())
            continue;
        os << "  queued line=0x" << std::hex << slot->txn.req.addr
           << std::dec << " [";
        for (size_t i = slot->waitHead; i < slot->waiting.size(); i++) {
            const Message &q = slot->waiting[i];
            os << (i > slot->waitHead ? "," : "") << msgTypeName(q.type)
               << ":core" << unsigned(q.src);
        }
        os << "]\n";
    }
}

void
Directory::handle(const Message &msg)
{
    if (traceEnabledFor(msg.addr))
        traceEvent(eq_.now(), format("dir%d", node_).c_str(), "recv %s",
                   msg.toString().c_str());
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::OrderWrite:
      case MsgType::CondOrderWrite: {
        Entry &entry = entries_[msg.addr];
        if (entry.txn == noTxn) {
            startTxn(entry, msg);
            break;
        }
        TxnSlot &slot = txns_[entry.txn];
        // Reuse the served prefix before the queue would reallocate, so
        // a line that never drains keeps a bounded queue.
        if (slot.waitHead > 0 &&
            slot.waiting.size() == slot.waiting.capacity()) {
            slot.waiting.erase(slot.waiting.begin(),
                               slot.waiting.begin() + slot.waitHead);
            slot.waitHead = 0;
        }
        slot.waiting.push_back(msg);
        statQueued_.inc();
        break;
      }
      case MsgType::PutM:
      case MsgType::PutE:
        handlePut(msg);
        break;
      case MsgType::InvAck:
      case MsgType::DwngrAck:
        onProbeAck(msg);
        break;
      default:
        panic("directory %d: unexpected message %s", node_,
              msg.toString().c_str());
    }
}

Directory::Entry &
Directory::busyEntry(Addr line, const char *what)
{
    Entry *e = entries_.find(line);
    if (!e || e->txn == noTxn)
        panic("directory %d: %s for line %#llx with no transaction", node_,
              what, (unsigned long long)line);
    return *e;
}

void
Directory::startTxn(Entry &entry, const Message &req)
{
    if (entry.txn == noTxn) {
        if (freeTxns_.empty()) {
            entry.txn = uint32_t(txns_.size());
            txns_.emplace_back();
        } else {
            entry.txn = freeTxns_.back();
            freeTxns_.pop_back();
        }
    }
    txns_[entry.txn].txn = Txn{req};
    statByType_[unsigned(req.type)].inc();
    // The directory looks the line up before anything goes out.
    Addr line = req.addr;
    eq_.scheduleIn(lookupLatency_, [this, line]() { issueTxn(line); });
}

void
Directory::issueTxn(Addr line)
{
    Entry &entry = busyEntry(line, "issueTxn");
    Txn &txn = txns_[entry.txn].txn;
    const Message &req = txn.req;

    // Storage (L2 hit or off-chip memory) proceeds in parallel with the
    // probes; the transaction finalizes when both are done.
    Tick lat = l2_.access(line);
    eq_.scheduleIn(lat, [this, line]() {
        Entry &e = busyEntry(line, "storage callback");
        txns_[e.txn].txn.storageReady = true;
        tryFinalize(e);
    });

    // Issue probes.
    switch (req.type) {
      case MsgType::GetS:
        if (entry.owner != invalidNode && entry.owner != req.src) {
            sendProbe(entry.owner, req, MsgType::Dwngr, false, 0);
            txn.pendingAcks = 1;
        }
        break;
      case MsgType::GetX:
      case MsgType::OrderWrite:
      case MsgType::CondOrderWrite: {
        bool order = req.type != MsgType::GetX;
        WordMask mask =
            req.type == MsgType::CondOrderWrite ? req.wordMask : 0;
        // Lowest node first, so probes claim mesh links in node order.
        for (uint64_t m = entry.sharers & ~nodeBit(req.src); m;
             m &= m - 1) {
            sendProbe(NodeId(std::countr_zero(m)), req, MsgType::Inv,
                      order, mask);
            txn.pendingAcks++;
        }
        break;
      }
      default:
        panic("startTxn on %s", msgTypeName(req.type));
    }

    // Contended line: the transaction had to invalidate or downgrade
    // remote copies. This is the ping-pong signature (a spin lock
    // bounces between two caches via 1-ack probes every iteration),
    // while cold misses probe nobody and stream through without
    // touching the sketch.
    if (hotspot_ && txn.pendingAcks >= 1)
        hotspot_->recordSharers(line, txn.pendingAcks);

    tryFinalize(entry);
}

void
Directory::sendProbe(NodeId target, const Message &req, MsgType type,
                     bool order_bit, WordMask mask)
{
    Message probe;
    probe.type = type;
    probe.src = node_;
    probe.dst = target;
    probe.addr = req.addr;
    probe.requester = req.src;
    probe.orderBit = order_bit;
    probe.wordMask = mask;
    probe.trafficClass = req.trafficClass;
    mesh_.send(std::move(probe));
    statProbes_.inc();
}

void
Directory::onProbeAck(const Message &ack)
{
    Entry &entry = busyEntry(ack.addr, "probe ack");
    Txn &txn = txns_[entry.txn].txn;
    if (txn.pendingAcks == 0)
        panic("directory %d: unexpected extra ack", node_);
    txn.pendingAcks--;

    // Dirty data travels back with the ack and is merged into memory
    // right away; by per-(src,dst) FIFO delivery, any writeback racing
    // with the probe has already arrived, so memory is always current by
    // finalize time.
    if (ack.hasData)
        memory_.writeLine(ack.addr, ack.data);

    if (ack.bounced) {
        txn.anyBounce = true;
        statBounces_.inc();
        if (hotspot_)
            hotspot_->record(ack.addr, HotEvent::Bounce);
        ASF_TRACE(instant(
            eq_.now(), 1000 + uint32_t(node_), "dir", "bounce",
            format("{\"line\":%llu,\"by\":%d,\"for\":%d,\"fenceId\":%llu}",
                   (unsigned long long)ack.addr, ack.src, txn.req.src,
                   (unsigned long long)txn.req.fenceId)));
    } else if (ack.type == MsgType::InvAck) {
        if (ack.keepSharer)
            txn.keepAsSharers |= nodeBit(ack.src);
        else
            txn.invalidated |= nodeBit(ack.src);
        if (ack.bsMatch == BsMatch::TrueShare)
            txn.anyTrueShare = true;
    }
    // DwngrAck: the owner keeps a Shared copy; nothing to record.

    tryFinalize(entry);
}

void
Directory::tryFinalize(Entry &entry)
{
    Txn &txn = txns_[entry.txn].txn;
    if (!txn.storageReady || txn.pendingAcks != 0)
        return;
    finalize(txn, entry);
    finishLine(entry);
}

void
Directory::finalize(Txn &txn, Entry &entry)
{
    switch (txn.req.type) {
      case MsgType::GetS:
        finalizeGetS(txn, entry);
        break;
      case MsgType::GetX:
        finalizeGetX(txn, entry);
        break;
      case MsgType::OrderWrite:
      case MsgType::CondOrderWrite:
        finalizeOrder(txn, entry);
        break;
      default:
        panic("finalize on %s", msgTypeName(txn.req.type));
    }
}

void
Directory::finalizeGetS(Txn &txn, Entry &entry)
{
    NodeId req = txn.req.src;
    // Any owner was downgraded (or its writeback already arrived).
    entry.owner = invalidNode;
    bool grant_exclusive = entry.sharers == 0;
    entry.sharers |= nodeBit(req);
    if (grant_exclusive) {
        entry.owner = req;
        reply(txn, MsgType::DataE, true);
    } else {
        reply(txn, MsgType::DataS, true);
    }
}

void
Directory::finalizeGetX(Txn &txn, Entry &entry)
{
    NodeId req = txn.req.src;
    // Sharers that acknowledged invalidation leave the list; bouncing
    // sharers stay (they still hold the line).
    entry.sharers &= ~(txn.invalidated | txn.keepAsSharers);

    if (txn.anyBounce) {
        statGetxNacked_.inc();
        if (hotspot_)
            hotspot_->record(txn.req.addr, HotEvent::NackX);
        ASF_TRACE(instant(
            eq_.now(), 1000 + uint32_t(node_), "dir", "NackX",
            format("{\"line\":%llu,\"to\":%d,\"fenceId\":%llu}",
                   (unsigned long long)txn.req.addr, txn.req.src,
                   (unsigned long long)txn.req.fenceId)));
        reply(txn, MsgType::NackX, false, TrafficClass::Retry);
        return;
    }

    bool was_sharer = (entry.sharers & nodeBit(req)) != 0;
    entry.sharers = nodeBit(req);
    entry.owner = req;

    if (txn.req.reqHasLine && was_sharer)
        reply(txn, MsgType::AckX, false);
    else
        reply(txn, MsgType::DataX, true);
}

void
Directory::finalizeOrder(Txn &txn, Entry &entry)
{
    NodeId req = txn.req.src;
    bool conditional = txn.req.type == MsgType::CondOrderWrite;

    // All probed caches invalidated their copies; BS-matching ones stay
    // in the sharer list so they keep seeing future writes.
    entry.sharers &= ~txn.invalidated;
    entry.owner = invalidNode;

    if (conditional && txn.anyTrueShare) {
        // CO fails: discard the update, requester retries as CO.
        statCoFailed_.inc();
        if (hotspot_)
            hotspot_->record(txn.req.addr, HotEvent::NackCO);
        ASF_TRACE(instant(
            eq_.now(), 1000 + uint32_t(node_), "dir", "NackCO",
            format("{\"line\":%llu,\"to\":%d,\"fenceId\":%llu}",
                   (unsigned long long)txn.req.addr, txn.req.src,
                   (unsigned long long)txn.req.fenceId)));
        reply(txn, MsgType::NackCO, false, TrafficClass::Retry);
        return;
    }

    // Complete as an Order transaction: merge the word update into
    // memory and leave the requester with a Shared copy.
    memory_.mergeWord(txn.req.addr, txn.req.updateWord, txn.req.updateValue);
    // The merge is the store's global serialization point (the
    // directory orders all writes to this line): coherence-stamp it.
    if (recorder_ && txn.req.storeSeq)
        recorder_->onStoreMerged(req, txn.req.storeSeq);
    entry.sharers |= nodeBit(req);
    statOrderCompleted_.inc();
    reply(txn, MsgType::AckOrder, true);
}

void
Directory::finishLine(Entry &entry)
{
    TxnSlot &slot = txns_[entry.txn];
    if (slot.waiting.empty()) {
        freeTxns_.push_back(entry.txn);
        entry.txn = noTxn;
        return;
    }
    Message next = std::move(slot.waiting[slot.waitHead++]);
    if (slot.waitHead == slot.waiting.size()) {
        slot.waiting.clear();
        slot.waitHead = 0;
    }
    // Start the next transaction synchronously: deferring would let a
    // newly arriving request jump the queue, which breaks per-line
    // request ordering (and with it the FIFO reply order cores rely on).
    startTxn(entry, next);
}

void
Directory::handlePut(const Message &msg)
{
    Entry &entry = entries_[msg.addr];
    statByType_[unsigned(msg.type)].inc();

    if (msg.type == MsgType::PutM) {
        if (!msg.hasData)
            panic("PutM without data");
        memory_.writeLine(msg.addr, msg.data);
        // The writeback allocates in the home L2 bank (no one waits on
        // this latency).
        l2_.access(msg.addr);
    }
    if (entry.owner == msg.src)
        entry.owner = invalidNode;
    if (msg.keepSharer)
        entry.sharers |= nodeBit(msg.src);
    else
        entry.sharers &= ~nodeBit(msg.src);
}

void
Directory::reply(const Txn &txn, MsgType type, bool with_data,
                 TrafficClass tc)
{
    if (traceEnabledFor(txn.req.addr))
        traceEvent(eq_.now(), format("dir%d", node_).c_str(),
                   "reply %s to %d%s", msgTypeName(type), txn.req.src,
                   with_data ? " +data" : "");
    Message m;
    m.type = type;
    m.src = node_;
    m.dst = txn.req.src;
    m.addr = txn.req.addr;
    m.requester = txn.req.src;
    m.trafficClass = tc == TrafficClass::Base ? txn.req.trafficClass : tc;
    if (with_data) {
        m.hasData = true;
        m.data = memory_.readLine(txn.req.addr);
    }
    mesh_.send(std::move(m));
}

} // namespace asf

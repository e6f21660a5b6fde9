#include "cpu/core.hh"

#include <algorithm>

#include "check/recorder.hh"
#include "fence/profile.hh"
#include "mem/address.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "sys/system.hh"

namespace asf
{

Core::Core(NodeId id, const SystemConfig &cfg, L1Cache &l1, Mesh &mesh,
           EventQueue &eq)
    : id_(id), cfg_(cfg), l1_(l1), mesh_(mesh), eq_(eq),
      wb_(cfg.wbEntries), bs_(cfg.bsEntries),
      stats_(format("core%d", id)), hot_(stats_, cfg)
{
    tsoOrder_ = cfg_.memoryModel == MemoryModel::TSO;
    storeTxns_.resize(tsoOrder_ ? 1 : cfg_.storeUnits);
    l1_.bsMatch = [this](Addr line, WordMask words) {
        return bsProbe(line, words);
    };
    l1_.onLineInvalidated = [this](Addr line) { onLineInvalidated(line); };
    l1_.onBsBounce = [this](Addr line) { onBsBounce(line); };
    l1_.onReply = [this](const Message &msg) { onL1Reply(msg); };

    // Pre-register the headline counters so the JSON report has a
    // stable shape even for runs that never touch them (zero-valued
    // scalars are still filtered from the text dump).
    for (const char *name :
         {"busyCycles", "idleCycles", "otherStallCycles",
          "fenceStallCycles", "instrRetired", "fencesStrong",
          "fencesWeak", "fencesWee", "bouncedWrites", "wPlusRecoveries",
          "loadSquashes", "storesDrained", "wbSquashedStores"})
        stats_.scalar(name);
    stats_.average("fenceLatency");
    stats_.histogram("wbOccupancy", cfg.wbEntries + 1, 1.0);
    ASF_TRACE(threadName(uint32_t(id_), format("core%d", id_)));
}

void
Core::setProgram(const Program *prog, uint64_t prng_seed)
{
    prog_ = prog;
    thread_.reset(0, prng_seed ? prng_seed
                               : 0x9e3779b97f4a7c15ULL + uint64_t(id_));
}

void
Core::setReg(Reg r, uint64_t v)
{
    thread_.setReg(r, v);
}

void
Core::syncObservabilityStats()
{
    stats_.scalar("wbPushes").set(wb_.totalPushes());
    stats_.scalar("wbSquashedStores").set(wb_.totalDropped());
    stats_.scalar("wbHighWater").set(wb_.highWater());
}

void
Core::resetStats()
{
    stats_.resetAll();
    wb_.resetCounters();
}

bool
Core::done() const
{
    for (const auto &t : storeTxns_)
        if (t.active)
            return false;
    return (!prog_ || thread_.halted()) && wb_.empty() &&
           load_.phase == LoadPhase::Inactive &&
           rmw_.phase == RmwPhase::Inactive && fences_.empty() &&
           !getSOutstanding_;
}

// ---------------------------------------------------------------------
// Per-cycle pipeline
// ---------------------------------------------------------------------

void
Core::tick()
{
    retiredThisCycle_ = 0;
    weeSerializeStall_ = false;

    if (done()) {
        hot_.idleCycles.inc();
        return;
    }
    hot_.wbOccupancy.sample(double(wb_.size()));

    tickFences();
    issueStores();
    tickRmw();
    tickLoadUnit();
    tickExecute();
    classifyCycle();
}

void
Core::classifyCycle()
{
    if (retiredThisCycle_ > 0) {
        hot_.busyCycles.inc();
        return;
    }
    // A halted thread draining its write buffer is not stalled - nothing
    // is waiting on those cycles.
    if (thread_.halted() && load_.phase == LoadPhase::Inactive &&
        rmw_.phase == RmwPhase::Inactive) {
        hot_.idleCycles.inc();
        return;
    }
    recordStallCycles(weeSerializeStall_ ? StallBucket::FenceSerialize
                                         : stallBucket(),
                      1);
}

void
Core::recordStallCycles(StallBucket b, uint64_t n)
{
    hot_.stall[unsigned(b)]->inc(n);
    if (stallBucketIsFence(b))
        hot_.fenceStallCycles.inc(n);
    else
        hot_.otherStallCycles.inc(n);
}

void
Core::addBreakdown(CycleBreakdown &b) const
{
    b.busy += hot_.busyCycles.value();
    b.fenceStall += hot_.fenceStallCycles.value();
    b.otherStall += hot_.otherStallCycles.value();
    b.idle += hot_.idleCycles.value();
    for (unsigned i = 0; i < numStallBuckets; i++)
        b.stall[i] += hot_.stall[i]->value();
}

// ---------------------------------------------------------------------
// Per-core sleep: quiescence mirrors
//
// Each *Quiescent() helper is a const, side-effect-free image of the
// corresponding tick stage: it returns false whenever the stage would
// change any simulated state (beyond statistics), and lowers `wake` to
// the earliest absolute tick at which the stage could act on its own.
// Every time-gated condition contributes its deadline to `wake` rather
// than returning false, so System::run can wake the core precisely.
// ---------------------------------------------------------------------

bool
Core::fencesQuiescent(Tick &wake) const
{
    if (!fences_.empty() &&
        wb_.drainedUpTo(fences_.front().lastPreStoreSeq))
        return false; // a fence would complete
    if (recovering_ && !activeWeakFence())
        return false; // recovery would end
    const FenceInstance *f = activeWeakFence();
    if (!f)
        return true;
    // Mirror of checkDeadlockTimeout.
    bool watched =
        (cfg_.design == FenceDesign::WPlus &&
         f->kind == FenceKind::Weak) ||
        (cfg_.design == FenceDesign::Wee &&
         f->kind == FenceKind::WeeWeak && !f->demoted);
    if (!watched)
        return true;
    bool being_bounced = anyStoreBounced() && !wb_.empty();
    if (being_bounced && f->bouncedSomeone) {
        if (!f->timing)
            return false; // the watchdog would start timing
        Tick limit = cfg_.design == FenceDesign::WPlus ? cfg_.wPlusTimeout
                                                       : cfg_.weeTimeout;
        wake = std::min(wake, f->timeoutStart + limit);
    } else if (f->timing) {
        return false; // the watchdog would stop timing
    }
    return true;
}

bool
Core::storesQuiescent(Tick &wake) const
{
    // Mirror of issueStores. storeRetry_ entries the real tick would
    // default-construct read as {nextTryAt = 0} here; creating them is
    // the one tick side effect this mirror tolerates skipping, because
    // a default entry is behaviorally inert (no backoff, never nacked)
    // and the first real tick recreates it.
    uint64_t max_seq =
        fences_.empty() ? ~uint64_t(0) : fences_.front().lastPreStoreSeq;
    uint64_t after = 0;
    for (;;) {
        const WriteBuffer::Entry *e =
            wb_.nextIssuable(tsoOrder_, max_seq, after);
        if (!e)
            return true;
        after = e->seq;
        Tick next_try = 0;
        if (auto it = storeRetry_.find(e->seq); it != storeRetry_.end())
            next_try = it->second.nextTryAt;
        if (eq_.now() < next_try) {
            wake = std::min(wake, next_try);
            if (tsoOrder_)
                return true;
            continue;
        }
        const CacheLine *l = l1_.find(lineAlign(e->addr));
        bool exclusive_hit = l && (l->state == MesiState::Modified ||
                                   l->state == MesiState::Exclusive);
        if (exclusive_hit) {
            if (eq_.now() < storeDrainFreeAt_) {
                wake = std::min(wake, storeDrainFreeAt_);
                return true; // drain port busy blocks both models
            }
            return false; // the store would drain locally
        }
        bool free_txn = false;
        for (const auto &t : storeTxns_)
            if (!t.active)
                free_txn = true;
        if (!free_txn) {
            if (tsoOrder_)
                return true;
            continue;
        }
        return false; // a write request would go out
    }
}

bool
Core::rmwQuiescent(Tick &wake) const
{
    switch (rmw_.phase) {
      case RmwPhase::Inactive:
      case RmwPhase::WaitLine:
        return true;
      case RmwPhase::Drain:
        return !(wb_.empty() && fences_.empty());
      case RmwPhase::Access:
        if (eq_.now() < rmw_.nextTryAt) {
            wake = std::min(wake, rmw_.nextTryAt);
            return true;
        }
        return false; // the access attempt itself mutates state
    }
    return false;
}

Core::HoldReason
Core::loadGateOutcome() const
{
    // Mirror of evaluateLoadGate's fence walk, with one extra escape:
    // the lazy GRT-binding branch sends a message, which the sentinel
    // HoldReason::None (never a steady-state gate outcome while Held)
    // reports as "would act".
    for (const auto &f : fences_) {
        if (!f.isWeak())
            return HoldReason::StrongFence;
        if (f.kind == FenceKind::Weak)
            continue;
        if (cfg_.weePrivateFiltering && isPrivate_ &&
            isPrivate_(load_.line))
            continue;
        if (f.grtHome == invalidNode)
            return HoldReason::None; // lazy binding would send a deposit
        if (f.grtPending)
            return HoldReason::GrtPending;
        if (homeNode(load_.line, cfg_.numCores) != f.grtHome)
            return HoldReason::NonHomeLine;
        if (std::find(f.remotePs.begin(), f.remotePs.end(), load_.line) !=
            f.remotePs.end())
            return HoldReason::RemotePs;
    }
    // No holding fence: the needs-bs / delivery paths all mutate state
    // except the full-BS hold, which the caller detects itself.
    return HoldReason::BsFull;
}

bool
Core::loadQuiescent(Tick &wake) const
{
    switch (load_.phase) {
      case LoadPhase::Inactive:
      case LoadPhase::MissPending:
        return true;
      case LoadPhase::WaitForward:
        return !wb_.drainedUpTo(load_.waitStoreSeq);
      case LoadPhase::AccessPending:
        if (l1_.find(load_.line))
            return false; // the access would hit
        if (txnForLine(load_.line) != nullptr ||
            (rmw_.phase == RmwPhase::WaitLine &&
             rmw_.line == load_.line))
            return true; // waiting on the in-flight write grant
        return getSOutstanding_; // else a GetS would go out
      case LoadPhase::PerformWait:
        wake = std::min(wake, load_.readyAt);
        return true;
      case LoadPhase::Performed:
        return false; // the delivery gate runs (and may deliver)
      case LoadPhase::Held: {
        HoldReason hr = loadGateOutcome();
        if (hr == HoldReason::None)
            return false; // lazy GRT binding would act
        if (hr == HoldReason::BsFull) {
            // Not fence-held: the gate would retry the BS insert (or
            // deliver). Only a still-full BS keeps the state unchanged,
            // and only without a counted hold transition.
            if (!bs_.full() || load_.inBs ||
                load_.hold != HoldReason::BsFull)
                return false;
            return true;
        }
        if (hr != load_.hold)
            return false; // the hold reason (a stat key) would change
        if (hr == HoldReason::RemotePs) {
            // The gate re-sends a GrtCheck once the recheck timer
            // expires.
            wake = std::min(wake, load_.nextGrtCheckAt);
        }
        return true;
      }
    }
    return false;
}

bool
Core::executeQuiescent(Tick &wake) const
{
    if (recovering_)
        return true; // pure fence stall
    if (computeRemaining_ > 0) {
        // A compute burst is pure count-down: skippable, with the first
        // post-burst instruction due once the counter hits zero.
        wake = std::min(wake, eq_.now() + computeRemaining_ + 1);
        return true;
    }
    if (load_.phase != LoadPhase::Inactive ||
        rmw_.phase != RmwPhase::Inactive)
        return true; // execution just stalls behind the active unit
    if (thread_.halted())
        return true;
    // The thread would execute: only a store stuck on a full write
    // buffer leaves every bit of simulated state untouched.
    const Instr &ins = prog_->at(thread_.pc());
    return ins.op == Op::St && wb_.full();
}

bool
Core::quiescent(Tick &wake) const
{
    wake = maxTick;
    if (done())
        return true; // idle until an (impossible) external wake
    // Check order is free (pure conjunction); executeQuiescent goes
    // first because an actively-computing core fails it immediately,
    // keeping the per-cycle cost near zero on busy workloads.
    return executeQuiescent(wake) && loadQuiescent(wake) &&
           storesQuiescent(wake) && fencesQuiescent(wake) &&
           rmwQuiescent(wake);
}

void
Core::skipCycles(uint64_t n)
{
    // Replay exactly what n quiescent tick() calls would have recorded:
    // done -> idle; compute -> busy; halted with inactive units -> idle;
    // otherwise the shared stallBucket() classification — the same
    // function classifyCycle uses, which is what keeps tick and skip
    // bit-identical. (The Wee serialize marker is a transition state:
    // executeQuiescent returns false at a fence instruction, so skips
    // never span it.)
    if (!n)
        return;
    if (done()) {
        hot_.idleCycles.inc(n);
        return;
    }
    hot_.wbOccupancy.sampleN(double(wb_.size()), n);
    if (!recovering_) {
        if (computeRemaining_ > 0) {
            if (n > computeRemaining_)
                panic("core %d: slept past compute-burst end", id_);
            computeRemaining_ -= n;
            hot_.busyCycles.inc(n);
            return;
        }
        if (thread_.halted() && load_.phase == LoadPhase::Inactive &&
            rmw_.phase == RmwPhase::Inactive) {
            hot_.idleCycles.inc(n);
            return;
        }
    }
    recordStallCycles(stallBucket(), n);
}

// ---------------------------------------------------------------------
// Fences
// ---------------------------------------------------------------------

Core::FenceInstance *
Core::activeWeakFence()
{
    for (auto &f : fences_)
        if (f.isWeak())
            return &f;
    return nullptr;
}

void
Core::tickFences()
{
    while (!fences_.empty() &&
           wb_.drainedUpTo(fences_.front().lastPreStoreSeq)) {
        completeFence(fences_.front());
        fences_.pop_front();
    }
    if (recovering_ && !activeWeakFence())
        recovering_ = false;
    if (FenceInstance *wf = activeWeakFence())
        checkDeadlockTimeout(*wf);
}

void
Core::completeFence(FenceInstance &f)
{
    stats_.scalar("fencesCompleted").inc();
    stats_.average("fenceLatency").sample(double(eq_.now() - f.executedAt));
    ASF_TRACE(complete(f.executedAt, eq_.now() - f.executedAt,
                       uint32_t(id_), "fence", fenceKindName(f.kind),
                       format("{\"id\":%llu,\"demoted\":%s}",
                              (unsigned long long)f.id,
                              f.demoted ? "true" : "false")));
    unsigned weak_left = 0;
    for (const auto &g : fences_)
        if (g.isWeak() && &g != &f)
            weak_left++;
    if (weak_left == 0) {
        // No rollback point remains: journaled guest marks are final.
        for (const auto &[epoch, m] : journaledMarks_)
            markCounters_[m]++;
        journaledMarks_.clear();
    }
    if (f.isWeak() || f.demoted) {
        // Drop exactly this fence's BS entries (epoch-tagged); entries
        // of younger, still-active weak fences stay armed.
        stats_.average("bsLinesPerWf").sample(double(bs_.lineCount()));
        bs_.clearUpTo(f.id);
    }
    if (f.kind == FenceKind::WeeWeak && f.grtHome != invalidNode) {
        Message m;
        m.type = MsgType::GrtClear;
        m.src = id_;
        m.dst = f.grtHome;
        m.requester = id_;
        m.trafficClass = TrafficClass::Grt;
        m.fenceId = f.profileId;
        mesh_.send(std::move(m));
    }
    if (profiler_ && f.profileId)
        profiler_->onComplete(f.profileId, eq_.now());
}

void
Core::checkDeadlockTimeout(FenceInstance &f)
{
    bool watched =
        (cfg_.design == FenceDesign::WPlus && f.kind == FenceKind::Weak) ||
        (cfg_.design == FenceDesign::Wee && f.kind == FenceKind::WeeWeak &&
         !f.demoted);
    if (!watched)
        return;

    bool being_bounced = anyStoreBounced() && !wb_.empty();
    bool bouncing = f.bouncedSomeone;
    if (being_bounced && bouncing) {
        if (!f.timing) {
            f.timing = true;
            f.timeoutStart = eq_.now();
        } else {
            Tick limit = cfg_.design == FenceDesign::WPlus
                             ? cfg_.wPlusTimeout
                             : cfg_.weeTimeout;
            if (eq_.now() - f.timeoutStart >= limit) {
                if (cfg_.design == FenceDesign::WPlus)
                    recoverWPlus(f);
                else
                    demoteWee(f);
            }
        }
    } else {
        f.timing = false;
    }
}

void
Core::recoverWPlus(FenceInstance &f)
{
    if (!f.hasCheckpoint)
        panic("core %d: W+ recovery without checkpoint", id_);
    // An atomic can be mid-drain behind the fence (e.g. a spinlock XCHG
    // after a TLRW read barrier). Draining has no side effects, so the
    // instruction simply re-executes from the checkpoint. Later phases
    // are impossible: they require the fence to have completed.
    if (rmw_.phase != RmwPhase::Inactive &&
        rmw_.phase != RmwPhase::Drain)
        panic("core %d: RMW past drain during W+ recovery", id_);
    rmw_ = RmwOp{};

    stats_.scalar("wPlusRecoveries").inc();
    thread_ = f.checkpoint;
    unsigned squashed = wb_.dropYoungerThan(f.lastPreStoreSeq);
    if (profiler_)
        profiler_->onRecovery(f.profileId, squashed);
    if (recorder_)
        recorder_->onRecovery(id_, f.id, f.lastPreStoreSeq);
    ASF_TRACE(instant(eq_.now(), uint32_t(id_), "fence", "W+ recovery",
                      format("{\"fence\":%llu,\"squashedStores\":%u}",
                             (unsigned long long)f.id, squashed)));
    std::erase_if(storeRetry_, [&f](const auto &kv) {
        return kv.first > f.lastPreStoreSeq;
    });
    bs_.clear();
    load_ = LoadOp{}; // a pending GetS reply, if any, will be ignored
    computeRemaining_ = 0;
    // Only marks from the squashed region (journaled at or after this
    // fence's epoch) are discarded; older overlapped-fence marks stand.
    std::erase_if(journaledMarks_, [&f](const auto &e) {
        return e.first >= f.id;
    });
    f.bouncedSomeone = false;
    f.timing = false;
    // Every younger fence was executed by squashed post-checkpoint code.
    while (!fences_.empty() && &fences_.back() != &f) {
        if (profiler_ && fences_.back().profileId)
            profiler_->onSquashed(fences_.back().profileId);
        fences_.pop_back();
    }
    // Stall at the fence until the pre-fence stores drain; then the same
    // deadlock is no longer possible.
    recovering_ = true;
}

void
Core::demoteWee(FenceInstance &f)
{
    // Watchdog escape for false-sharing-induced bounce cycles: the fence
    // falls back to strong behavior and stops protecting new accesses.
    stats_.scalar("weeWatchdogDemotions").inc();
    f.demoted = true;
    f.timing = false;
    bs_.clear();
    if (profiler_)
        profiler_->onDemote(f.profileId);
}

// ---------------------------------------------------------------------
// Store unit
// ---------------------------------------------------------------------

Tick
Core::backoff(unsigned retries) const
{
    Tick b = cfg_.retryBackoffBase + Tick(retries) * cfg_.retryBackoffStep;
    return std::min(b, cfg_.retryBackoffMax);
}

Core::StoreTxn *
Core::txnForLine(Addr line)
{
    for (auto &t : storeTxns_)
        if (t.active && t.line == line)
            return &t;
    return nullptr;
}

Core::StoreTxn *
Core::freeStoreTxn()
{
    for (auto &t : storeTxns_)
        if (!t.active)
            return &t;
    return nullptr;
}

void
Core::issueStores()
{
    // Post-fence stores may not merge before the (oldest incomplete)
    // fence completes - automatic under TSO's in-order drain, explicit
    // under RC.
    uint64_t max_seq =
        fences_.empty() ? ~uint64_t(0) : fences_.front().lastPreStoreSeq;

    uint64_t after = 0;
    for (;;) {
        WriteBuffer::Entry *e = wb_.nextIssuable(tsoOrder_, max_seq, after);
        if (!e)
            return;
        after = e->seq;
        StoreRetryState &rs = storeRetry_[e->seq];
        if (eq_.now() < rs.nextTryAt) {
            if (tsoOrder_)
                return;
            continue; // RC: a backing-off entry does not block younger ones
        }

        Addr line = lineAlign(e->addr);
        CacheLine *l = l1_.find(line);
        bool exclusive_hit = l && (l->state == MesiState::Modified ||
                                   l->state == MesiState::Exclusive);
        if (exclusive_hit) {
            // Drains against the local line; the single drain port
            // limits hit throughput.
            if (eq_.now() < storeDrainFreeAt_)
                return;
            if (!l1_.writeWordExclusive(e->addr, e->value))
                panic("core %d: exclusive hit raced away", id_);
            storeDrainFreeAt_ = eq_.now() + cfg_.storeDrainLatency;
            // The local write to an E/M line is globally visible at
            // once: this is the store's serialization point.
            if (recorder_)
                recorder_->onStoreMerged(id_, e->seq);
            finishStore(*e);
            continue;
        }

        StoreTxn *txn = freeStoreTxn();
        if (!txn) {
            if (tsoOrder_)
                return;
            continue; // RC: younger exclusive hits can still drain
        }

        MsgType type = MsgType::GetX;
        TrafficClass tc = TrafficClass::Base;
        uint64_t order_fence_id = 0;
        if (rs.everNacked) {
            tc = TrafficClass::Retry;
            // "If the core then executes a wf, the hardware sets the O
            // bit of all currently-bouncing requests": any active weak
            // fence younger than this store qualifies it.
            bool wf_after = false;
            for (const auto &f : fences_)
                if (f.kind == FenceKind::Weak && !f.demoted &&
                    f.lastPreStoreSeq >= e->seq) {
                    wf_after = true;
                    if (!order_fence_id)
                        order_fence_id = f.profileId;
                }
            if (wf_after && cfg_.design == FenceDesign::WSPlus)
                type = MsgType::OrderWrite;
            else if (wf_after && cfg_.design == FenceDesign::SWPlus)
                type = MsgType::CondOrderWrite;
        }

        bool has_shared = l1_.hasShared(line);
        txn->active = true;
        txn->line = line;
        txn->addr = e->addr;
        txn->value = e->value;
        txn->seq = e->seq;
        txn->pinned = type == MsgType::GetX && has_shared;
        if (txn->pinned)
            l1_.pin(line);
        e->issued = true;
        l1_.sendWriteReq(type, e->addr, e->value,
                         type == MsgType::GetX && has_shared, tc,
                         type != MsgType::GetX ? order_fence_id : 0,
                         recorder_ ? e->seq : 0);
        if (type != MsgType::GetX)
            stats_.scalar("orderRequests").inc();
    }
}

void
Core::finishStore(WriteBuffer::Entry &entry)
{
    auto it = storeRetry_.find(entry.seq);
    if (it != storeRetry_.end()) {
        if (it->second.everNacked) {
            stats_.scalar("bouncedWrites").inc();
            stats_.average("retriesPerBouncedWrite")
                .sample(double(it->second.retries));
        }
        storeRetry_.erase(it);
    }
    ASF_TRACE(instant(eq_.now(), uint32_t(id_), "wb", "drain",
                      format("{\"addr\":%llu,\"seq\":%llu}",
                             (unsigned long long)entry.addr,
                             (unsigned long long)entry.seq)));
    wb_.complete(entry);
    hot_.storesDrained.inc();
}

// ---------------------------------------------------------------------
// Load unit
// ---------------------------------------------------------------------

void
Core::tickLoadUnit()
{
    switch (load_.phase) {
      case LoadPhase::Inactive:
      case LoadPhase::MissPending:
        return;
      case LoadPhase::WaitForward:
        if (wb_.drainedUpTo(load_.waitStoreSeq))
            load_.phase = LoadPhase::AccessPending;
        else
            return;
        [[fallthrough]];
      case LoadPhase::AccessPending:
        loadAccess();
        return;
      case LoadPhase::PerformWait:
        if (eq_.now() >= load_.readyAt) {
            uint64_t v;
            if (l1_.readWord(load_.addr, v)) {
                load_.value = v;
                load_.phase = LoadPhase::Performed;
                evaluateLoadGate();
            } else {
                // Line disappeared between issue and perform: retry.
                load_.phase = LoadPhase::AccessPending;
            }
        }
        return;
      case LoadPhase::Performed:
      case LoadPhase::Held:
        evaluateLoadGate();
        return;
    }
}

void
Core::loadAccess()
{
    if (l1_.find(load_.line)) {
        load_.phase = LoadPhase::PerformWait;
        load_.readyAt = eq_.now() + cfg_.l1HitLatency;
        return;
    }
    // MSHR-style merge: while a write request for this line is in
    // flight, wait for it instead of racing it with a read request -
    // the write grant will make the access a local hit.
    if (txnForLine(load_.line) != nullptr ||
        (rmw_.phase == RmwPhase::WaitLine && rmw_.line == load_.line))
        return;
    if (!getSOutstanding_) {
        if (traceEnabledFor(load_.line))
            traceEvent(eq_.now(), format("core%d", id_).c_str(),
                       "load miss pc=%llu addr=%#llx",
                       (unsigned long long)thread_.pc(),
                       (unsigned long long)load_.addr);
        l1_.sendGetS(load_.line);
        getSOutstanding_ = true;
        load_.phase = LoadPhase::MissPending;
        stats_.scalar("loadMissesIssued").inc();
    }
    // Else a stale GetS for some line is still in flight; wait for it.
}

void
Core::evaluateLoadGate()
{
    HoldReason hr = HoldReason::None;
    bool needs_bs = false;
    uint64_t epoch = 0;
    uint64_t epoch_profile = 0;
    FenceInstance *wee = nullptr;

    for (auto &f : fences_) {
        if (!f.isWeak()) {
            hr = HoldReason::StrongFence;
            break;
        }
        if (f.kind == FenceKind::Weak) {
            needs_bs = true;
            epoch = f.id;
            epoch_profile = f.profileId;
            continue;
        }
        // WeeFence rules. Private Access Filtering first: no other
        // thread ever touches a private line, so this load cannot close
        // a cycle and needs no Remote-PS consultation.
        if (cfg_.weePrivateFiltering && isPrivate_ &&
            isPrivate_(load_.line)) {
            needs_bs = true;
            epoch = f.id;
            epoch_profile = f.profileId;
            continue;
        }
        if (f.grtHome == invalidNode) {
            // Lazy binding (empty filtered PS): adopt this load's home
            // as the fence's GRT module and fetch its Remote PS.
            f.grtHome = homeNode(load_.line, cfg_.numCores);
            f.grtPending = true;
            if (profiler_)
                profiler_->onGrtDeposit(f.profileId, 0, eq_.now());
            Message m;
            m.type = MsgType::GrtDeposit;
            m.src = id_;
            m.dst = f.grtHome;
            m.requester = id_;
            m.trafficClass = TrafficClass::Grt;
            m.fenceId = f.profileId;
            mesh_.send(std::move(m));
            hr = HoldReason::GrtPending;
            break;
        }
        if (f.grtPending) {
            hr = HoldReason::GrtPending;
            break;
        }
        if (homeNode(load_.line, cfg_.numCores) != f.grtHome) {
            hr = HoldReason::NonHomeLine;
            break;
        }
        if (std::find(f.remotePs.begin(), f.remotePs.end(), load_.line) !=
            f.remotePs.end()) {
            hr = HoldReason::RemotePs;
            wee = &f;
            break;
        }
        needs_bs = true;
        epoch = f.id;
        epoch_profile = f.profileId;
    }

    if (hr == HoldReason::None && needs_bs && !load_.inBs) {
        // Seeded fence-group bug (checker mutation self-test): claim
        // BS protection without inserting the address, so conflicting
        // invalidations are never bounced and post-fence loads can be
        // architecturally stale.
        if (cfg_.mutateDropBsInsert) {
            load_.inBs = true;
        } else if (bs_.insert(load_.addr, epoch)) {
            load_.inBs = true;
            if (profiler_ && epoch_profile)
                profiler_->onBsInsert(epoch_profile);
        } else {
            hr = HoldReason::BsFull;
            // Transition-counted (like bsFullHolds): one conflict per
            // refused insert, not one per held cycle.
            if (load_.hold != HoldReason::BsFull) {
                stats_.scalar("bsFullHolds").inc();
                if (hotspot_)
                    hotspot_->record(load_.addr, HotEvent::BsConflict);
            }
        }
    }

    if (hr == HoldReason::None) {
        deliverLoad();
        return;
    }

    // Count Remote-PS holds on the transition (like bsFullHolds above),
    // not per re-evaluation cycle.
    if (profiler_ && hr == HoldReason::RemotePs &&
        (load_.phase != LoadPhase::Held ||
         load_.hold != HoldReason::RemotePs))
        profiler_->onRemotePsHold(wee->profileId);

    load_.phase = LoadPhase::Held;
    load_.hold = hr;
    if (hr == HoldReason::RemotePs && eq_.now() >= load_.nextGrtCheckAt) {
        Message m;
        m.type = MsgType::GrtCheck;
        m.src = id_;
        m.dst = wee->grtHome;
        m.addr = load_.line;
        m.requester = id_;
        m.trafficClass = TrafficClass::Grt;
        m.fenceId = wee->profileId;
        mesh_.send(std::move(m));
        load_.nextGrtCheckAt = eq_.now() + cfg_.grtRecheckInterval;
    }
}

void
Core::deliverLoad()
{
    if (recorder_)
        recorder_->onLoad(id_, thread_.pc(), load_.addr, load_.value,
                          load_.forwarded ? load_.fwdSeq : 0, eq_.now());
    thread_.setReg(load_.rd, load_.value);
    thread_.setPc(thread_.pc() + 1);
    load_ = LoadOp{};
    retiredThisCycle_++;
    hot_.instrRetired.inc();
    hot_.loadsDelivered.inc();
}

// ---------------------------------------------------------------------
// RMW unit
// ---------------------------------------------------------------------

void
Core::tickRmw()
{
    switch (rmw_.phase) {
      case RmwPhase::Inactive:
      case RmwPhase::WaitLine:
        return;
      case RmwPhase::Drain:
        if (wb_.empty() && fences_.empty())
            rmw_.phase = RmwPhase::Access;
        else
            return;
        [[fallthrough]];
      case RmwPhase::Access: {
        if (eq_.now() < rmw_.nextTryAt)
            return;
        CacheLine *l = l1_.find(rmw_.line);
        if (l && (l->state == MesiState::Modified ||
                  l->state == MesiState::Exclusive)) {
            performRmwLocal();
            return;
        }
        bool has_shared = l1_.hasShared(rmw_.line);
        rmw_.pinned = has_shared;
        if (has_shared)
            l1_.pin(rmw_.line);
        l1_.sendWriteReq(MsgType::GetX, rmw_.addr, 0, has_shared,
                         TrafficClass::Base);
        rmw_.phase = RmwPhase::WaitLine;
        return;
      }
    }
}

void
Core::performRmwLocal()
{
    CacheLine *l = l1_.find(rmw_.line);
    if (!l || (l->state != MesiState::Modified &&
               l->state != MesiState::Exclusive))
        panic("core %d: RMW without exclusive line", id_);
    l->state = MesiState::Modified;
    unsigned w = wordInLine(rmw_.addr);
    uint64_t old = l->data[w];
    if (rmw_.op == Op::Cas) {
        if (old == rmw_.expect)
            l->data[w] = rmw_.desired;
    } else {
        l->data[w] = rmw_.desired;
    }
    if (recorder_)
        recorder_->onRmw(id_, thread_.pc(), rmw_.addr, old,
                         rmw_.desired,
                         rmw_.op != Op::Cas || old == rmw_.expect,
                         eq_.now());
    if (rmw_.pinned) {
        l1_.unpin(rmw_.line);
        rmw_.pinned = false;
    }
    thread_.setReg(rmw_.rd, old);
    thread_.setPc(thread_.pc() + 1);
    rmw_ = RmwOp{};
    retiredThisCycle_++;
    hot_.instrRetired.inc();
    stats_.scalar("rmwsExecuted").inc();
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

void
Core::tickExecute()
{
    // Cycle classification moved wholesale to classifyCycle/stallBucket
    // (end-of-tick state): this stage only advances execution.
    if (recovering_)
        return;
    if (computeRemaining_ > 0) {
        computeRemaining_--;
        // Compute cycles count as busy via a synthetic retire credit.
        retiredThisCycle_++;
        return;
    }
    if (load_.phase != LoadPhase::Inactive ||
        rmw_.phase != RmwPhase::Inactive)
        return; // execution stalls behind the active unit
    if (thread_.halted())
        return;

    unsigned budget = cfg_.issueWidth;
    while (budget > 0 && executeOne(budget)) {
    }
}

bool
Core::executeOne(unsigned &budget)
{
    const Instr &ins = prog_->at(thread_.pc());
    switch (ins.op) {
      case Op::Ld:
        startLoad(ins);
        return false;
      case Op::St: {
        if (wb_.full())
            return false; // classifies as bounce-retry / wb-full

        Addr addr = thread_.reg(ins.ra) + uint64_t(ins.imm);
        if (!isWordAligned(addr))
            fatal("core %d: unaligned store to %#llx (pc %llu)", id_,
                  (unsigned long long)addr,
                  (unsigned long long)thread_.pc());
        uint64_t seq = wb_.push(addr, thread_.reg(ins.rb));
        if (recorder_)
            recorder_->onStore(id_, thread_.pc(), addr,
                               thread_.reg(ins.rb), seq, eq_.now());
        thread_.setPc(thread_.pc() + 1);
        retiredThisCycle_++;
        budget--;
        hot_.instrRetired.inc();
        hot_.storesExecuted.inc();
        return true;
      }
      case Op::Fence:
        startFence(ins);
        return false;
      case Op::Cas:
      case Op::Xchg:
        startRmw(ins);
        return false;
      case Op::Compute:
        computeRemaining_ = uint64_t(ins.imm);
        thread_.setPc(thread_.pc() + 1);
        retiredThisCycle_++;
        hot_.instrRetired.inc();
        return false;
      case Op::Mark: {
        FenceInstance *oldest = activeWeakFence();
        if (oldest && oldest->hasCheckpoint) {
            uint64_t epoch = oldest->id;
            for (const auto &f : fences_)
                if (f.isWeak())
                    epoch = std::max(epoch, f.id);
            journaledMarks_.emplace_back(epoch, ins.imm);
        } else {
            markCounters_[ins.imm]++;
        }
        thread_.setPc(thread_.pc() + 1);
      }
        retiredThisCycle_++;
        budget--;
        hot_.instrRetired.inc();
        return true;
      case Op::Halt:
        thread_.executeNonMem(ins);
        retiredThisCycle_++;
        hot_.instrRetired.inc();
        return false;
      default:
        thread_.executeNonMem(ins);
        retiredThisCycle_++;
        budget--;
        hot_.instrRetired.inc();
        return true;
    }
}

void
Core::startLoad(const Instr &ins)
{
    Addr addr = thread_.reg(ins.ra) + uint64_t(ins.imm);
    if (!isWordAligned(addr))
        fatal("core %d: unaligned load of %#llx (pc %llu)", id_,
              (unsigned long long)addr, (unsigned long long)thread_.pc());

    load_ = LoadOp{};
    load_.addr = addr;
    load_.line = lineAlign(addr);
    load_.rd = ins.rd;
    hot_.loadsExecuted.inc();

    if (const WriteBuffer::Entry *e = wb_.forwardLookup(addr)) {
        // A *strong* fence between the store and the load forbids the
        // load from completing before the fence (mfence semantics). A
        // weak fence does not: completing post-fence accesses early is
        // its whole point, and forwarding our own pre-fence store is the
        // benign case - the delivery gate below still BS-protects it.
        bool strong_between = false;
        for (const auto &f : fences_)
            if (f.lastPreStoreSeq >= e->seq && !f.isWeak())
                strong_between = true;
        if (strong_between) {
            load_.phase = LoadPhase::WaitForward;
            load_.waitStoreSeq = e->seq;
            stats_.scalar("forwardsBlockedByFence").inc();
            return;
        }
        load_.value = e->value;
        load_.forwarded = true; // own-store value: immune to squash
        load_.fwdSeq = e->seq;
        load_.phase = LoadPhase::Performed;
        stats_.scalar("loadsForwarded").inc();
        evaluateLoadGate();
        return;
    }

    load_.phase = LoadPhase::AccessPending;
    loadAccess();
}

void
Core::startFence(const Instr &ins)
{
    FenceKind kind = resolveFenceKind(cfg_.design, ins.role);

    // Weak fences are defined for TSO; under RC they fall back to
    // conventional fences (wf-under-RC is the paper's future work,
    // Section 5.2).
    if (cfg_.memoryModel == MemoryModel::RC &&
        kind != FenceKind::Strong) {
        kind = FenceKind::Strong;
        stats_.scalar("rcFenceDemotions").inc();
    }

    // Nothing pending before the fence: it completes immediately.
    if (wb_.empty()) {
        switch (kind) {
          case FenceKind::Strong:
            stats_.scalar("fencesStrong").inc();
            break;
          case FenceKind::Weak:
            stats_.scalar("fencesWeak").inc();
            break;
          case FenceKind::WeeWeak:
            stats_.scalar("fencesWee").inc();
            break;
        }
        stats_.scalar("fencesInstant").inc();
        if (profiler_)
            profiler_->onInstant(id_, kind, eq_.now());
        if (recorder_)
            recorder_->onFence(id_, thread_.pc(), kind, true, 0,
                               eq_.now());
        thread_.setPc(thread_.pc() + 1);
        retiredThisCycle_++;
        hot_.instrRetired.inc();
        return;
    }

    if (kind == FenceKind::WeeWeak && activeWeakFence()) {
        // The GRT holds a single Pending Set per core, so WeeFences
        // serialize. Plain weak fences may overlap: the BS simply stays
        // armed until the youngest one completes.
        weeSerializeStall_ = true;
        return;
    }

    FenceInstance f;
    f.kind = kind;
    f.id = ++nextFenceId_;
    f.lastPreStoreSeq = wb_.lastSeq();
    f.executedAt = eq_.now();
    if (profiler_)
        f.profileId = profiler_->onIssue(id_, kind, eq_.now());
    if (recorder_)
        recorder_->onFence(id_, thread_.pc(), kind, false, f.id,
                           eq_.now());

    thread_.setPc(thread_.pc() + 1);

    switch (kind) {
      case FenceKind::Strong:
        stats_.scalar("fencesStrong").inc();
        break;
      case FenceKind::Weak:
        stats_.scalar("fencesWeak").inc();
        if (cfg_.design == FenceDesign::WPlus) {
            f.checkpoint = thread_;
            f.hasCheckpoint = true;
        }
        break;
      case FenceKind::WeeWeak: {
        stats_.scalar("fencesWee").inc();
        std::vector<Addr> ps = wb_.pendingLines(f.lastPreStoreSeq);
        if (cfg_.weePrivateFiltering && isPrivate_) {
            // Private Access Filtering: a store to a thread-private
            // region cannot participate in a cross-thread cycle.
            std::erase_if(ps,
                          [this](Addr line) { return isPrivate_(line); });
        }
        if (ps.empty()) {
            // Every pending store is private: nothing to deposit. The
            // GRT module is bound lazily to the first post-fence load's
            // home (the Remote PS must still be consulted for loads).
            f.grtHome = invalidNode;
            f.grtPending = false;
            break;
        }
        NodeId home = homeNode(ps.front(), cfg_.numCores);
        bool single_module = true;
        for (Addr a : ps)
            if (homeNode(a, cfg_.numCores) != home)
                single_module = false;
        if (!single_module) {
            // PS spans directory modules: fall back to a conventional
            // fence (paper Section 2.3).
            f.demoted = true;
            stats_.scalar("weeMultiModuleDemotions").inc();
            if (profiler_)
                profiler_->onDemote(f.profileId);
        } else {
            f.grtHome = home;
            f.grtPending = true;
            if (profiler_)
                profiler_->onGrtDeposit(f.profileId, ps.size(),
                                        eq_.now());
            Message m;
            m.type = MsgType::GrtDeposit;
            m.src = id_;
            m.dst = home;
            m.requester = id_;
            m.addrSet = std::move(ps);
            m.trafficClass = TrafficClass::Grt;
            m.fenceId = f.profileId;
            mesh_.send(std::move(m));
        }
        break;
      }
    }

    fences_.push_back(std::move(f));
    retiredThisCycle_++;
    hot_.instrRetired.inc();
}

void
Core::startRmw(const Instr &ins)
{
    Addr addr = thread_.reg(ins.ra) + uint64_t(ins.imm);
    if (!isWordAligned(addr))
        fatal("core %d: unaligned RMW at %#llx", id_,
              (unsigned long long)addr);
    rmw_ = RmwOp{};
    rmw_.phase = RmwPhase::Drain;
    rmw_.op = ins.op;
    rmw_.addr = addr;
    rmw_.line = lineAlign(addr);
    rmw_.rd = ins.rd;
    if (ins.op == Op::Cas) {
        rmw_.expect = thread_.reg(ins.rb);
        rmw_.desired = thread_.reg(ins.rc);
    } else {
        rmw_.desired = thread_.reg(ins.rb);
    }
}

// ---------------------------------------------------------------------
// Protocol plumbing
// ---------------------------------------------------------------------

BsMatch
Core::bsProbe(Addr line, WordMask words)
{
    // Only SW+ keeps (and compares) word-granularity BS information;
    // every other design matches at line granularity.
    WordMask m = cfg_.design == FenceDesign::SWPlus ? words : WordMask(0);
    return bs_.match(line, m);
}

void
Core::onBsBounce(Addr line)
{
    (void)line;
    stats_.scalar("bsBounces").inc();
    if (FenceInstance *wf = activeWeakFence()) {
        wf->bouncedSomeone = true;
        if (profiler_ && wf->profileId)
            profiler_->onBounce(wf->profileId);
    }
}

void
Core::onLineInvalidated(Addr line)
{
    if ((load_.phase == LoadPhase::Performed ||
         load_.phase == LoadPhase::Held) &&
        load_.line == line && !load_.forwarded) {
        // Conflicting invalidation squashes the speculative load; it
        // re-performs (and will observe the new value).
        load_.phase = LoadPhase::AccessPending;
        load_.inBs = false;
        load_.squashed = true;
        stats_.scalar("loadSquashes").inc();
        ASF_TRACE(instant(eq_.now(), uint32_t(id_), "cpu", "load squash",
                          format("{\"line\":%llu}",
                                 (unsigned long long)line)));
    }
}

void
Core::onL1Reply(const Message &msg)
{
    switch (msg.type) {
      case MsgType::DataE:
      case MsgType::DataS:
        getSOutstanding_ = false;
        if (load_.phase == LoadPhase::MissPending &&
            load_.line == msg.addr) {
            uint64_t v;
            if (!l1_.readWord(load_.addr, v))
                panic("core %d: fill did not install line", id_);
            load_.value = v;
            load_.phase = LoadPhase::Performed;
        }
        return;

      case MsgType::DataX:
      case MsgType::AckX:
      case MsgType::AckOrder:
        if (StoreTxn *txn = txnForLine(msg.addr)) {
            WriteBuffer::Entry *e = wb_.issuedEntryForLine(msg.addr);
            if (!e)
                panic("core %d: store grant with no issued entry", id_);
            if (msg.type != MsgType::AckOrder) {
                if (!l1_.writeWordExclusive(txn->addr, txn->value))
                    panic("core %d: store grant without writable line",
                          id_);
                // Ownership grant: the store serializes here. (Order
                // stores were already stamped at the directory merge.)
                if (recorder_)
                    recorder_->onStoreMerged(id_, e->seq);
            }
            // AckOrder installed a Shared line with the update already
            // merged by the directory.
            if (txn->pinned)
                l1_.unpin(txn->line);
            txn->active = false;
            finishStore(*e);
        } else if (rmw_.phase == RmwPhase::WaitLine &&
                   rmw_.line == msg.addr) {
            performRmwLocal();
        } else {
            panic("core %d: unmatched write grant %s", id_,
                  msg.toString().c_str());
        }
        return;

      case MsgType::NackX:
      case MsgType::NackCO:
        if (StoreTxn *txn = txnForLine(msg.addr)) {
            WriteBuffer::Entry *e = wb_.issuedEntryForLine(msg.addr);
            if (!e)
                panic("core %d: store nack with no issued entry", id_);
            e->issued = false;
            StoreRetryState &rs = storeRetry_[e->seq];
            rs.retries++;
            rs.everNacked = true;
            if (msg.type == MsgType::NackCO)
                rs.coMode = true;
            rs.nextTryAt = eq_.now() + backoff(rs.retries);
            if (txn->pinned)
                l1_.unpin(txn->line);
            txn->active = false;
            stats_.scalar("storeNacks").inc();
            if (profiler_) {
                // Attribute the bounce round to the oldest fence the
                // nacked store is pending under.
                for (const auto &f : fences_)
                    if (f.profileId && f.lastPreStoreSeq >= e->seq) {
                        profiler_->onStoreNack(f.profileId);
                        break;
                    }
            }
        } else if (rmw_.phase == RmwPhase::WaitLine &&
                   rmw_.line == msg.addr) {
            if (rmw_.pinned) {
                l1_.unpin(rmw_.line);
                rmw_.pinned = false;
            }
            rmw_.phase = RmwPhase::Access;
            rmw_.retries++;
            rmw_.nextTryAt = eq_.now() + backoff(rmw_.retries);
            stats_.scalar("rmwNacks").inc();
        } else {
            panic("core %d: unmatched nack %s", id_,
                  msg.toString().c_str());
        }
        return;

      default:
        panic("core %d: unexpected L1 reply %s", id_,
              msg.toString().c_str());
    }
}

void
Core::onGrtMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::GrtFetchReply:
        for (auto &f : fences_) {
            if (f.kind == FenceKind::WeeWeak && f.grtPending &&
                f.grtHome == msg.src) {
                f.remotePs = msg.addrSet;
                f.grtPending = false;
                if (profiler_ && f.profileId)
                    profiler_->onGrtReply(f.profileId, eq_.now());
                return;
            }
        }
        return; // fence already completed; stale reply
      case MsgType::GrtCheckReply:
        if (!msg.blocked) {
            for (auto &f : fences_) {
                if (f.kind != FenceKind::WeeWeak)
                    continue;
                auto it = std::find(f.remotePs.begin(), f.remotePs.end(),
                                    msg.addr);
                if (it != f.remotePs.end())
                    f.remotePs.erase(it);
            }
        }
        return;
      default:
        panic("core %d: unexpected GRT message %s", id_,
              msg.toString().c_str());
    }
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

namespace
{

const char *
loadPhaseName(int p)
{
    static const char *names[] = {"Inactive",    "WaitForward",
                                  "AccessPending", "PerformWait",
                                  "MissPending", "Performed", "Held"};
    return names[p];
}

const char *
holdReasonName(int h)
{
    static const char *names[] = {"None",       "StrongFence", "BsFull",
                                  "GrtPending", "NonHomeLine",
                                  "RemotePs"};
    return names[h];
}

const char *
rmwPhaseName(int p)
{
    static const char *names[] = {"Inactive", "Drain", "Access",
                                  "WaitLine"};
    return names[p];
}

} // namespace

void
Core::debugDump(std::ostream &os) const
{
    os << "core" << unsigned(id_) << ": pc=" << thread_.pc()
       << (thread_.halted() ? " halted" : "")
       << (recovering_ ? " RECOVERING" : "");
    if (!done() && retiredThisCycle_ == 0 &&
        !(thread_.halted() && load_.phase == LoadPhase::Inactive &&
          rmw_.phase == RmwPhase::Inactive))
        os << " stall=" << stallBucketStatName(stallBucket());
    os << "\n";
    if (load_.phase != LoadPhase::Inactive) {
        os << "  load: phase=" << loadPhaseName(int(load_.phase))
           << " hold=" << holdReasonName(int(load_.hold)) << " addr=0x"
           << std::hex << load_.addr << std::dec
           << (load_.squashed ? " squashed" : "")
           << (load_.inBs ? " inBs" : "") << "\n";
    }
    if (rmw_.phase != RmwPhase::Inactive)
        os << "  rmw: phase=" << rmwPhaseName(int(rmw_.phase))
           << " addr=0x" << std::hex << rmw_.addr << std::dec
           << " retries=" << rmw_.retries << " nextTryAt="
           << rmw_.nextTryAt << "\n";
    os << "  wb: " << wb_.size() << "/" << wb_.capacity() << " entries";
    if (!wb_.empty()) {
        const WriteBuffer::Entry &e = wb_.front();
        os << "; head seq=" << e.seq << " addr=0x" << std::hex << e.addr
           << std::dec << (e.issued ? " issued" : "")
           << (e.done ? " done" : "");
        if (auto it = storeRetry_.find(e.seq); it != storeRetry_.end())
            os << " retries=" << it->second.retries
               << (it->second.everNacked ? " nacked" : "")
               << " nextTryAt=" << it->second.nextTryAt;
    }
    os << "\n";
    for (const auto &f : fences_)
        os << "  fence: kind=" << fenceKindName(f.kind) << " id=" << f.id
           << " profileId=" << f.profileId
           << " lastPreStoreSeq=" << f.lastPreStoreSeq
           << (f.demoted ? " demoted" : "")
           << (f.grtPending ? " grtPending" : "")
           << (f.timing ? " timing" : "")
           << (f.bouncedSomeone ? " bouncedSomeone" : "")
           << " executedAt=" << f.executedAt << "\n";
    if (bs_.lineCount() > 0)
        os << "  bs: " << bs_.lineCount() << " lines\n";
}

} // namespace asf

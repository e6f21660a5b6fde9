#include "sys/system.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iostream>

#include "check/axioms.hh"
#include "harness/report.hh"
#include "mem/address.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace asf
{

uint64_t
CycleBreakdown::fenceSum() const
{
    uint64_t sum = 0;
    for (unsigned i = 0; i < numFenceStallBuckets; i++)
        sum += stall[i];
    return sum;
}

uint64_t
CycleBreakdown::otherSum() const
{
    uint64_t sum = 0;
    for (unsigned i = numFenceStallBuckets; i < numStallBuckets; i++)
        sum += stall[i];
    return sum;
}

double
CycleBreakdown::busyFrac() const
{
    return active() ? double(busy) / double(active()) : 0.0;
}

double
CycleBreakdown::fenceFrac() const
{
    return active() ? double(fenceStall) / double(active()) : 0.0;
}

double
CycleBreakdown::otherFrac() const
{
    return active() ? double(otherStall) / double(active()) : 0.0;
}

System::System(SystemConfig cfg) : cfg_(cfg)
{
    cfg_.validate();
    if (cfg_.fenceProfile)
        profiler_ =
            std::make_unique<FenceProfiler>(cfg_.fenceProfileRaw);
    if (cfg_.checkExecution)
        recorder_ =
            std::make_unique<check::ExecutionRecorder>(cfg_.numCores);
    if (cfg_.hotLineTracking)
        hotspot_ =
            std::make_unique<HotLineTracker>(cfg_.hotLineEntries);
    if (cfg_.statsInterval)
        intervals_ = std::make_unique<IntervalStats>(
            cfg_.statsInterval, cfg_.statsIntervalRing);
    mesh_ = std::make_unique<Mesh>(eq_, cfg_.numCores, cfg_.hopLatency,
                                   cfg_.linkBytes);
    for (unsigned i = 0; i < cfg_.numCores; i++) {
        NodeId id = NodeId(i);
        l2_.push_back(std::make_unique<L2Bank>(
            id, cfg_.l2BankSizeBytes, cfg_.l2Assoc, cfg_.l2HitLatency,
            cfg_.memLatency));
        dirs_.push_back(std::make_unique<Directory>(
            id, cfg_.numCores, *mesh_, eq_, memory_, *l2_[i],
            cfg_.dirLookupLatency));
        grts_.push_back(std::make_unique<Grt>(id));
        l1s_.push_back(std::make_unique<L1Cache>(
            id, cfg_.numCores, *mesh_, cfg_.l1SizeBytes, cfg_.l1Assoc));
        cores_.push_back(
            std::make_unique<Core>(id, cfg_, *l1s_[i], *mesh_, eq_));
        cores_.back()->setProfiler(profiler_.get());
        cores_.back()->setRecorder(recorder_.get());
        cores_.back()->setHotspot(hotspot_.get());
        dirs_.back()->setRecorder(recorder_.get());
        dirs_.back()->setHotspot(hotspot_.get());
        l2_.back()->setHotspot(hotspot_.get());
        mesh_->setSink(id, [this, id](const Message &msg) {
            dispatch(id, msg);
        });
    }
    synced_.resize(cfg_.numCores);
}

Core &
System::core(NodeId id)
{
    if (id < 0 || unsigned(id) >= cores_.size())
        panic("bad core id %d", id);
    return *cores_[id];
}

Directory &
System::directory(NodeId id)
{
    return *dirs_.at(size_t(id));
}

L1Cache &
System::l1(NodeId id)
{
    return *l1s_.at(size_t(id));
}

Grt &
System::grt(NodeId id)
{
    return *grts_.at(size_t(id));
}

void
System::loadProgram(NodeId core_id, std::shared_ptr<const Program> prog,
                    uint64_t prng_seed)
{
    core(core_id).setProgram(prog.get(), prng_seed);
    programs_.push_back(std::move(prog));
}

void
System::dispatch(NodeId node, const Message &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::OrderWrite:
      case MsgType::CondOrderWrite:
      case MsgType::PutM:
      case MsgType::PutE:
      case MsgType::InvAck:
      case MsgType::DwngrAck:
        dirs_[node]->handle(msg);
        return;
      case MsgType::DataE:
      case MsgType::DataS:
      case MsgType::DataX:
      case MsgType::AckX:
      case MsgType::AckOrder:
      case MsgType::NackX:
      case MsgType::NackCO:
      case MsgType::Inv:
      case MsgType::Dwngr:
        wakeCore(node);
        l1s_[node]->handle(msg);
        return;
      case MsgType::GrtDeposit:
      case MsgType::GrtClear:
      case MsgType::GrtCheck:
        handleGrtRequest(node, msg);
        return;
      case MsgType::GrtFetchReply:
      case MsgType::GrtCheckReply:
        wakeCore(node);
        cores_[node]->onGrtMessage(msg);
        return;
    }
    panic("unroutable message %s", msg.toString().c_str());
}

void
System::labelLine(Addr addr, std::string name)
{
    labels_.label(addr, std::move(name));
}

void
System::handleGrtRequest(NodeId node, const Message &msg)
{
    Grt &grt = *grts_[node];
    switch (msg.type) {
      case MsgType::GrtDeposit: {
        if (hotspot_)
            for (Addr a : msg.addrSet)
                hotspot_->record(a, HotEvent::GrtDeposit);
        grt.deposit(msg.src, msg.addrSet, msg.fenceId);
        Message reply;
        reply.type = MsgType::GrtFetchReply;
        reply.src = node;
        reply.dst = msg.src;
        reply.requester = msg.src;
        reply.addrSet = grt.remotePendingSet(msg.src);
        reply.trafficClass = TrafficClass::Grt;
        reply.fenceId = msg.fenceId;
        mesh_->send(std::move(reply));
        return;
      }
      case MsgType::GrtClear:
        grt.clear(msg.src);
        return;
      case MsgType::GrtCheck: {
        Message reply;
        reply.type = MsgType::GrtCheckReply;
        reply.src = node;
        reply.dst = msg.src;
        reply.addr = msg.addr;
        reply.requester = msg.src;
        reply.blocked = grt.blocks(msg.src, msg.addr);
        if (hotspot_ && reply.blocked)
            hotspot_->record(msg.addr, HotEvent::GrtBlock);
        reply.trafficClass = TrafficClass::Grt;
        mesh_->send(std::move(reply));
        return;
      }
      default:
        panic("bad GRT request %s", msg.toString().c_str());
    }
}

bool
System::allDone() const
{
    if (!eq_.empty())
        return false;
    for (const auto &c : cores_)
        if (!c->done())
            return false;
    return true;
}

void
System::catchUp(size_t i, Tick t)
{
    if (synced_[i] < t) {
        cores_[i]->skipCycles(uint64_t(t - synced_[i]));
        synced_[i] = t;
    }
}

void
System::syncCores()
{
    for (size_t i = 0; i < cores_.size(); i++)
        catchUp(i, eq_.now());
}

void
System::wakeCore(NodeId node)
{
    // Replay before the message lands, even when the core is due this
    // tick anyway: the slept cycles charge the pre-message state.
    catchUp(size_t(node), eq_.now() - 1);
    eq_.setDue(unsigned(node), eq_.now());
}

void
System::tickCore(size_t i, Tick t)
{
    catchUp(i, t - 1);
    Core &c = *cores_[i];
    c.tick();
    tickedCoreCycles_++;
    synced_[i] = t;
    Tick w = maxTick;
    Tick due = t + 1;
    // A sleep past the calendar's wheel is cut at its edge: the core
    // ticks there (as it would in the reference mode), finds itself
    // still quiescent and sleeps on.
    if (cfg_.fastForward && c.quiescent(w) && w > t + 1)
        due = w == maxTick ? w : std::min(w, t + EventQueue::span - 1);
    eq_.setDue(unsigned(i), due);
}

System::RunResult
System::run(Tick max_cycles)
{
    const Tick end = eq_.now() + max_cycles;
    // Every core starts due: between run() calls the caller may have
    // changed a sleeper's program, registers or memory.
    for (unsigned i = 0; i < cores_.size(); i++)
        eq_.setDue(i, eq_.now() + 1);
    // Livelock watchdog: declare a hang when a full window of
    // watchdogCycles passes without any core making forward progress.
    // Every jump stops at the next check tick, so checks land on the
    // same ticks in both modes and a hang is declared after between N
    // and 2N quiet cycles.
    const Tick wd = cfg_.watchdogCycles;
    uint64_t wd_progress = wd ? progressCount() : 0;
    Tick wd_check_at = wd ? eq_.now() + wd : maxTick;
    RunResult result = RunResult::MaxCycles;
    while (eq_.now() < end) {
        if (allDone()) {
            result = RunResult::AllDone;
            break;
        }
        if (eq_.now() >= wd_check_at) {
            syncCores();
            uint64_t p = progressCount();
            if (p == wd_progress) {
                watchdogFired_ = true;
                std::cerr << "asf: watchdog: no forward progress in "
                          << wd << " cycles (now " << eq_.now()
                          << "); state snapshot:\n";
                dumpWatchdogSnapshot(std::cerr);
                return RunResult::Watchdog;
            }
            wd_progress = p;
            wd_check_at = eq_.now() + wd;
        }
        // Contention observatory: close any interval boundary the clock
        // reached (a jump across several boundaries yields one merged
        // sample). Read-only and host-side, like the watchdog check
        // above.
        if (intervals_ && eq_.now() >= intervals_->nextAt()) {
            syncCores();
            sampleInterval();
        }
        // Live telemetry: publish the current cycle to the heartbeat
        // sink (a relaxed atomic store; nothing simulated reads it).
        if (cfg_.progressSink && eq_.now() >= progressNextAt_) {
            cfg_.progressSink->store(eq_.now(),
                                     std::memory_order_relaxed);
            progressNextAt_ =
                eq_.now() + std::max<Tick>(cfg_.progressInterval, 1);
        }

        // Run-loop arbitration (DESIGN.md "Run-loop arbitration"). Core
        // wakes share the event calendar as due marks: a core sleeps
        // while its cycles can only charge a stall bucket (tickCore),
        // and only the cores due at a tick tick. With nothing due at
        // the next tick, the clock jumps to the first tick where
        // anything can happen. Both are host-side only: simulated
        // timing and statistics are bit-identical to ticking through.
        Tick next = eq_.now() + 1;
        if (cfg_.fastForward) {
            Tick target = std::min({eq_.nextTick(), end, wd_check_at});
            if (target > next) {
                fastForwardedCycles_ += target - next;
                next = target;
            }
        }

        // Events first (they may wake sleepers), then the due cores in
        // index order.
        eq_.runUntil(next);
        for (uint64_t due = eq_.takeDue(); due; due &= due - 1)
            tickCore(size_t(std::countr_zero(due)), next);
        if (Trace::get().enabled() && eq_.now() >= traceNextCpiAt_) {
            syncCores();
            sampleCpiCounters();
        }
    }
    syncCores();
    if (result == RunResult::MaxCycles && allDone())
        result = RunResult::AllDone;
    return result;
}

uint64_t
System::progressCount() const
{
    uint64_t sum = 0;
    for (const auto &c : cores_)
        sum += c->progressCount();
    return sum;
}

void
System::sampleCpiCounters()
{
    // Per-core CPI counter tracks for the Chrome trace: the cycles each
    // bucket gained since the last sample, rendered by the viewer as a
    // stacked where-do-cycles-go chart. Trace-only observability; never
    // touches simulated state.
    constexpr Tick interval = 1024;
    if (traceCpiPrev_.empty())
        traceCpiPrev_.resize(cores_.size());
    for (size_t i = 0; i < cores_.size(); i++) {
        CycleBreakdown cur;
        cores_[i]->addBreakdown(cur);
        const CycleBreakdown &prev = traceCpiPrev_[i];
        std::string args = format("{\"busy\":%llu,\"idle\":%llu",
                                  (unsigned long long)(cur.busy - prev.busy),
                                  (unsigned long long)(cur.idle - prev.idle));
        for (unsigned b = 0; b < numStallBuckets; b++) {
            uint64_t d = cur.stall[b] - prev.stall[b];
            if (d)
                args += format(",\"%s\":%llu",
                               stallBucketJsonKey(StallBucket(b)),
                               (unsigned long long)d);
        }
        args += "}";
        Trace::get().counter(eq_.now(), uint32_t(i),
                             format("core%zu cpi", i), std::move(args));
        traceCpiPrev_[i] = cur;
    }
    traceNextCpiAt_ = eq_.now() + interval;
}

const IntervalCumulative &
System::gatherIntervalCumulative() const
{
    // First gather: bind the per-component counter handles. A dense
    // sampling interval makes this a hot path, so the steady state
    // must not pay a string map lookup per counter per sample.
    if (obsCores_.empty()) {
        for (const auto &core : cores_) {
            const StatGroup &s = core->stats();
            obsCores_.push_back({{&s, "instrRetired"},
                                 {&s, "fencesStrong"},
                                 {&s, "fencesWeak"},
                                 {&s, "fencesWee"}});
        }
        for (const auto &d : dirs_) {
            const StatGroup &s = d->stats();
            obsDirs_.push_back(
                {{&s, "bounces"}, {&s, "getxNacked"}, {&s, "coFailed"}});
        }
        for (const auto &g : grts_) {
            const StatGroup &s = g->stats();
            obsGrts_.push_back({{&s, "deposits"}, {&s, "clears"}});
        }
    }

    IntervalCumulative &c = obsScratch_;
    c.instrRetired = c.fencesIssued = 0;
    c.bounces = c.nacks = c.grtDeposits = c.grtClears = 0;
    CycleBreakdown b;
    for (const auto &core : cores_)
        core->addBreakdown(b); // cached hot handles
    c.busy = b.busy;
    c.idle = b.idle;
    for (unsigned i = 0; i < numStallBuckets; i++)
        c.stall[i] = b.stall[i];
    for (const CoreObs &o : obsCores_) {
        c.instrRetired += o.instr.value();
        c.fencesIssued += o.strong.value() + o.weak.value() +
                          o.wee.value();
    }
    for (const DirObs &o : obsDirs_) {
        c.bounces += o.bounces.value();
        c.nacks += o.nackX.value() + o.nackCO.value();
    }
    for (const GrtObs &o : obsGrts_) {
        c.grtDeposits += o.deposits.value();
        c.grtClears += o.clears.value();
    }
    c.linkBusy = mesh_->linkBusyRaw();
    return c;
}

void
System::sampleInterval()
{
    intervals_->sample(eq_.now(), gatherIntervalCumulative());
    if (!Trace::get().enabled())
        return;
    // Mirror the sample into Chrome counter tracks (one "observatory"
    // row): per-cycle rates are left to the viewer; raw deltas keep the
    // track identical to the timeline block.
    const IntervalSample &s =
        intervals_->at(intervals_->size() - 1);
    Trace::get().counter(
        eq_.now(), 2000, "observatory",
        format("{\"fences\":%llu,\"bounces\":%llu,\"nacks\":%llu,"
               "\"grtDeposits\":%llu,\"flits\":%llu,\"instr\":%llu}",
               (unsigned long long)s.fencesIssued,
               (unsigned long long)s.bounces,
               (unsigned long long)s.nacks,
               (unsigned long long)s.grtDeposits,
               (unsigned long long)s.flits,
               (unsigned long long)s.instrRetired));
}

uint64_t
System::guestCounter(int64_t idx) const
{
    uint64_t sum = 0;
    for (const auto &c : cores_) {
        auto it = c->markCounters().find(idx);
        if (it != c->markCounters().end())
            sum += it->second;
    }
    return sum;
}

CycleBreakdown
System::breakdown() const
{
    CycleBreakdown b;
    for (const auto &c : cores_)
        c->addBreakdown(b); // cached hot handles; no string lookups
    // The CPI-stack invariant: every stall cycle lands in exactly one
    // fine bucket and its coarse category, so the buckets re-add to the
    // categories and sum(buckets) == active().
    assert(b.fenceSum() == b.fenceStall &&
           "fence CPI buckets must sum to fenceStall");
    assert(b.otherSum() == b.otherStall &&
           "other CPI buckets must sum to otherStall");
    return b;
}

uint64_t
System::totalInstrRetired() const
{
    uint64_t sum = 0;
    for (const auto &c : cores_)
        sum += c->stats().get("instrRetired");
    return sum;
}

uint64_t
System::debugReadWord(Addr addr) const
{
    // Youngest buffered (retired but unmerged) store wins; for data
    // protected by a lock at most one write buffer can hold one.
    for (const auto &c : cores_)
        if (const auto *e = c->writeBuffer().forwardLookup(addr))
            return e->value;
    Addr line = lineAlign(addr);
    for (const auto &l1 : l1s_) {
        // find() is non-const but has no observable side effects here.
        const CacheLine *l = const_cast<L1Cache &>(*l1).find(line);
        if (l && l->state == MesiState::Modified)
            return l->data[wordInLine(addr)];
    }
    return memory_.readWord(addr);
}

void
System::dumpStats(std::ostream &os) const
{
    auto dump_group = [&os](const StatGroup &g) {
        for (const auto &[name, value] : g.dumpScalars())
            if (value != 0)
                os << g.name() << '.' << name << ' ' << value << '\n';
    };
    for (const auto &c : cores_) {
        c->syncObservabilityStats();
        dump_group(c->stats());
    }
    for (const auto &l : l1s_)
        dump_group(l->stats());
    for (const auto &d : dirs_)
        dump_group(d->stats());
    for (const auto &g : grts_)
        dump_group(g->stats());
    dump_group(mesh_->stats());
}

void
System::emitIntervalSample(harness::JsonWriter &w,
                           const IntervalSample &s) const
{
    w.beginObject();
    w.field("start", uint64_t(s.start));
    w.field("end", uint64_t(s.end));
    w.field("busy", s.busy);
    w.field("idle", s.idle);
    // Nonzero buckets only: quiet intervals stay one line.
    w.key("stall").beginObject();
    for (unsigned b = 0; b < numStallBuckets; b++)
        if (s.stall[b])
            w.field(stallBucketJsonKey(StallBucket(b)), s.stall[b]);
    w.endObject();
    w.field("instrRetired", s.instrRetired);
    w.field("fencesIssued", s.fencesIssued);
    w.field("bounces", s.bounces);
    w.field("nacks", s.nacks);
    w.field("grtDeposits", s.grtDeposits);
    w.field("grtClears", s.grtClears);
    w.field("flits", s.flits);
    // Sparse per-link flit deltas: [rawLinkIndex, flitCycles] pairs
    // (index = node * 4 + dir, dir order E,W,N,S; see Mesh).
    w.key("links").beginArray();
    for (const auto &[idx, d] : s.links) {
        w.beginArray();
        w.value(uint64_t(idx));
        w.value(d);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

void
System::dumpStatsJson(std::ostream &os, bool include_profile,
                      bool include_check, bool include_observatory)
{
    using harness::JsonWriter;
    for (auto &c : cores_)
        c->syncObservabilityStats();

    JsonWriter w(os);
    w.beginObject();
    w.field("schemaVersion", uint64_t(4));
    w.field("cycles", uint64_t(eq_.now()));

    w.key("config").beginObject();
    w.field("numCores", cfg_.numCores);
    w.field("design", fenceDesignName(cfg_.design));
    w.field("memoryModel", memoryModelName(cfg_.memoryModel));
    w.field("wbEntries", cfg_.wbEntries);
    w.field("bsEntries", cfg_.bsEntries);
    w.field("hopLatency", uint64_t(cfg_.hopLatency));
    w.field("linkBytes", cfg_.linkBytes);
    w.endObject();

    // The aggregated CPI stack (schemaVersion 2): coarse categories
    // plus the fine buckets, grouped by category so consumers can check
    // the sum(buckets) == active() invariant directly.
    CycleBreakdown b = breakdown();
    w.key("cpiStack").beginObject();
    w.field("busy", b.busy);
    w.field("idle", b.idle);
    w.key("fence").beginObject();
    for (unsigned i = 0; i < numFenceStallBuckets; i++)
        w.field(stallBucketJsonKey(StallBucket(i)), b.stall[i]);
    w.field("total", b.fenceStall);
    w.endObject();
    w.key("other").beginObject();
    for (unsigned i = numFenceStallBuckets; i < numStallBuckets; i++)
        w.field(stallBucketJsonKey(StallBucket(i)), b.stall[i]);
    w.field("total", b.otherStall);
    w.endObject();
    w.field("active", b.active());
    w.endObject();

    w.key("watchdog").beginObject();
    w.field("cycles", uint64_t(cfg_.watchdogCycles));
    w.field("fired", watchdogFired_);
    w.endObject();

    if (include_profile && profiler_) {
        w.key("fenceProfile");
        profiler_->dumpJson(w);
    }

    if (include_check && recorder_) {
        // Run the checker on the execution captured so far under the
        // plain TSO axioms. (The stricter SC mode is only sound for
        // fully fenced programs; callers that know that invoke
        // check::checkExecution directly with requireSc.)
        check::CheckResult cr = check::checkExecution(*recorder_);
        w.key("check").beginObject();
        w.field("enabled", true);
        w.field("events", cr.events);
        w.field("loads", cr.loads);
        w.field("stores", cr.stores);
        w.field("rmws", cr.rmws);
        w.field("fences", cr.fences);
        w.field("merges", recorder_->mergesCaptured());
        w.field("squashed", recorder_->eventsSquashed());
        w.field("rfEdges", cr.rfEdges);
        w.field("coEdges", cr.coEdges);
        w.field("frEdges", cr.frEdges);
        w.field("readsFromInit", cr.readsFromInit);
        w.field("ambiguousReads", cr.ambiguousReads);
        w.field("verdict", check::verdictName(cr.verdict));
        w.field("scChecked", cr.scChecked);
        if (!cr.passed()) {
            w.key("witness");
            w.raw(check::witnessJson(cr));
        }
        w.endObject();
    }

    if (include_observatory && intervals_) {
        // Interval time-series, oldest retained sample first, plus the
        // still-open tail interval (built without mutating the ring so
        // a second dump emits the identical timeline).
        w.key("timeline").beginObject();
        w.field("interval", uint64_t(intervals_->interval()));
        w.field("ringCapacity", uint64_t(intervals_->capacity()));
        w.field("droppedSamples", intervals_->dropped());
        w.key("samples").beginArray();
        for (size_t i = 0; i < intervals_->size(); i++)
            emitIntervalSample(w, intervals_->at(i));
        IntervalSample tail;
        if (intervals_->tailSample(eq_.now(), gatherIntervalCumulative(),
                                   tail))
            emitIntervalSample(w, tail);
        w.endArray();
        w.endObject();
    }

    if (include_observatory && hotspot_) {
        w.key("hotLines").beginObject();
        w.field("capacity", uint64_t(hotspot_->capacity()));
        w.field("tracked", uint64_t(hotspot_->size()));
        w.field("totalRecorded", hotspot_->totalRecorded());
        w.field("evictions", hotspot_->evictions());
        w.key("lines").beginArray();
        for (const auto &e : hotspot_->top()) {
            w.beginObject();
            w.field("line", uint64_t(e.line));
            const std::string &label = labels_.lookup(e.line);
            if (!label.empty())
                w.field("label", label);
            w.field("count", e.count);
            w.field("error", e.error);
            if (e.sharerPeak)
                w.field("sharerPeak", uint64_t(e.sharerPeak));
            for (unsigned k = 0; k < numHotEvents; k++)
                if (e.byEvent[k])
                    w.field(hotEventName(HotEvent(k)), e.byEvent[k]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    auto emit_group = [&w](const StatGroup &g) {
        w.beginObject();
        w.field("name", g.name());
        w.key("scalars").beginObject();
        for (const auto &[name, s] : g.scalars())
            w.field(name, s.value());
        w.endObject();
        w.key("averages").beginObject();
        for (const auto &[name, a] : g.averages()) {
            w.key(name).beginObject();
            w.field("count", a.count());
            w.field("sum", a.sum());
            w.field("mean", a.mean());
            w.endObject();
        }
        w.endObject();
        w.key("histograms").beginObject();
        for (const auto &[name, h] : g.histograms()) {
            w.key(name).beginObject();
            w.field("count", h.count());
            w.field("mean", h.mean());
            w.field("max", h.max());
            w.field("p50", h.percentile(0.50));
            w.field("p90", h.percentile(0.90));
            w.field("p99", h.percentile(0.99));
            w.field("bucketWidth", h.bucketWidth());
            w.field("overflow", h.overflow());
            w.key("buckets").beginArray();
            for (unsigned i = 0; i < h.numBuckets(); i++)
                w.value(h.bucket(i));
            w.endArray();
            w.endObject();
        }
        w.endObject();
        w.endObject();
    };

    w.key("groups").beginArray();
    for (const auto &c : cores_)
        emit_group(c->stats());
    for (const auto &l : l1s_)
        emit_group(l->stats());
    for (const auto &d : dirs_)
        emit_group(d->stats());
    for (const auto &g : grts_)
        emit_group(g->stats());
    emit_group(mesh_->stats());
    w.endArray();

    // Per-link heatmap: busy (flit) cycles, bytes, and packets for every
    // directed mesh link that carried traffic.
    w.key("noc").beginObject();
    w.key("meanLatency").value(mesh_->avgLatency());
    w.key("links").beginArray();
    uint64_t cycles = eq_.now();
    for (const auto &l : mesh_->linkUtilization()) {
        w.beginObject();
        w.field("node", uint64_t(l.node));
        w.field("dir", std::string(1, l.dir));
        w.field("busyCycles", l.busyCycles);
        w.field("bytes", l.bytes);
        w.field("packets", l.packets);
        w.field("utilization",
                cycles ? double(l.busyCycles) / double(cycles) : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
    os << '\n';
}

void
System::dumpWatchdogSnapshot(std::ostream &os) const
{
    os << "--- cores ---\n";
    for (const auto &c : cores_)
        c->debugDump(os);
    os << "--- directories ---\n";
    for (const auto &d : dirs_)
        d->debugDump(os);
    os << "--- GRT modules ---\n";
    for (const auto &g : grts_)
        g->debugDump(os);
    if (intervals_ && intervals_->size()) {
        // The run-up to the hang, not just the final state: the last
        // few retained intervals of the contention time-series.
        constexpr size_t kTail = 8;
        size_t n = intervals_->size();
        size_t from = n > kTail ? n - kTail : 0;
        os << "--- timeline (last " << (n - from) << " intervals of "
           << intervals_->interval() << " cycles) ---\n";
        for (size_t i = from; i < n; i++) {
            const IntervalSample &s = intervals_->at(i);
            os << "  [" << s.start << ", " << s.end << "]: busy "
               << s.busy << ", instr " << s.instrRetired << ", fences "
               << s.fencesIssued << ", bounces " << s.bounces
               << ", nacks " << s.nacks << ", grtDeposits "
               << s.grtDeposits << ", flits " << s.flits << "\n";
        }
    }
}

void
System::resetStats()
{
    for (auto &c : cores_) {
        c->resetStats();
        c->clearMarkCounters();
    }
    if (profiler_) {
        // Post-warmup reset: restart profiling from scratch, like every
        // other statistic. Fences active across the reset simply drop
        // their records (their completion hooks find no match).
        profiler_ =
            std::make_unique<FenceProfiler>(cfg_.fenceProfileRaw);
        for (auto &c : cores_)
            c->setProfiler(profiler_.get());
    }
    for (auto &l : l1s_)
        l->stats().resetAll();
    for (auto &d : dirs_)
        d->stats().resetAll();
    for (auto &g : grts_)
        g->stats().resetAll();
    mesh_->stats().resetAll();
    if (hotspot_)
        hotspot_->reset();
    if (intervals_)
        // Re-baseline against the post-reset counters: most feeds are
        // now zero, but the raw per-link flit counters survive the
        // reset and must not show up as a giant first delta.
        intervals_->reset(eq_.now(), gatherIntervalCumulative());
}

} // namespace asf

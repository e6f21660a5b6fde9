#include "fence/profile.hh"

#include <algorithm>

#include "harness/report.hh"

namespace asf
{

FenceProfiler::FenceProfiler(bool keep_raw)
    : keepRaw_(keep_raw),
      latency_(/*bucket_count=*/40, /*bucket_width=*/50.0),
      grtWait_(32, 10.0), bounceRounds_(16, 1.0), bsInserts_(16, 1.0)
{
}

FenceRecord *
FenceProfiler::find(uint64_t id)
{
    // Ids are issued in increasing order, onIssue appends and erasing
    // keeps the order, so active_ is sorted by id.
    auto it = std::lower_bound(
        active_.begin(), active_.end(), id,
        [](const FenceRecord &r, uint64_t key) { return r.id < key; });
    return it != active_.end() && it->id == id ? &*it : nullptr;
}

uint64_t
FenceProfiler::onIssue(NodeId core, FenceKind kind, Tick now)
{
    FenceRecord r;
    r.id = ++nextId_;
    r.core = core;
    r.kind = kind;
    r.issuedAt = now;
    active_.push_back(std::move(r));
    issued_++;
    byKind_[unsigned(kind)]++;
    return nextId_;
}

void
FenceProfiler::onInstant(NodeId core, FenceKind kind, Tick now)
{
    issued_++;
    instants_++;
    byKind_[unsigned(kind)]++;
    FenceRecord r;
    r.id = ++nextId_;
    r.core = core;
    r.kind = kind;
    r.instant = true;
    r.issuedAt = now;
    r.completedAt = now;
    fold(r);
}

void
FenceProfiler::onGrtDeposit(uint64_t id, uint64_t ps_lines, Tick now)
{
    if (FenceRecord *r = find(id)) {
        r->grtDepositAt = now;
        r->psLines = ps_lines;
    }
}

void
FenceProfiler::onGrtReply(uint64_t id, Tick now)
{
    if (FenceRecord *r = find(id))
        r->grtReplyAt = now;
}

void
FenceProfiler::onBsInsert(uint64_t id)
{
    if (FenceRecord *r = find(id))
        r->bsInserts++;
}

void
FenceProfiler::onBounce(uint64_t id)
{
    if (FenceRecord *r = find(id))
        r->bounces++;
}

void
FenceProfiler::onStoreNack(uint64_t id)
{
    if (FenceRecord *r = find(id))
        r->storeNacks++;
}

void
FenceProfiler::onRemotePsHold(uint64_t id)
{
    if (FenceRecord *r = find(id))
        r->remotePsHolds++;
}

void
FenceProfiler::onDemote(uint64_t id)
{
    if (FenceRecord *r = find(id)) {
        r->demoted = true;
        demotions_++;
    }
}

void
FenceProfiler::onRecovery(uint64_t id, uint64_t squashed_stores)
{
    if (FenceRecord *r = find(id)) {
        r->recoveries++;
        r->squashedStores += squashed_stores;
        recoveries_++;
    }
}

void
FenceProfiler::onSquashed(uint64_t id)
{
    if (FenceRecord *r = find(id)) {
        active_.erase(active_.begin() + (r - active_.data()));
        squashedFences_++;
    }
}

void
FenceProfiler::onComplete(uint64_t id, Tick now)
{
    FenceRecord *found = find(id);
    if (!found)
        return;
    found->completedAt = now;
    FenceRecord r = std::move(*found);
    active_.erase(active_.begin() + (found - active_.data()));
    completed_++;
    fold(r);
}

void
FenceProfiler::fold(const FenceRecord &r)
{
    latency_.sample(double(r.latency()));
    if (r.grtDepositAt)
        grtWait_.sample(double(r.grtWait()));
    if (!r.instant) {
        bounceRounds_.sample(double(r.storeNacks));
        bsInserts_.sample(double(r.bsInserts));
    }
    // Keep the topN slowest non-instant fences, sorted by latency desc
    // (ties: earlier issue first, matching completion order).
    if (!r.instant &&
        (slowest_.size() < topN ||
         r.latency() > slowest_.back().latency())) {
        auto pos = std::upper_bound(
            slowest_.begin(), slowest_.end(), r,
            [](const FenceRecord &a, const FenceRecord &b) {
                return a.latency() > b.latency();
            });
        slowest_.insert(pos, r);
        if (slowest_.size() > topN)
            slowest_.pop_back();
    }
    if (keepRaw_)
        raw_.push_back(r);
}

namespace
{

void
emitHistogram(harness::JsonWriter &w, const StatHistogram &h)
{
    w.beginObject();
    w.field("count", h.count());
    w.field("mean", h.mean());
    w.field("max", h.max());
    w.field("p50", h.percentile(0.50));
    w.field("p90", h.percentile(0.90));
    w.field("p99", h.percentile(0.99));
    w.endObject();
}

void
emitRecord(harness::JsonWriter &w, const FenceRecord &r)
{
    w.beginObject();
    w.field("id", r.id);
    w.field("core", uint64_t(r.core));
    w.field("kind", fenceKindName(r.kind));
    w.field("instant", r.instant);
    w.field("demoted", r.demoted);
    w.field("issuedAt", r.issuedAt);
    w.field("completedAt", r.completedAt);
    w.field("latency", r.latency());
    w.field("grtDepositAt", r.grtDepositAt);
    w.field("grtReplyAt", r.grtReplyAt);
    w.field("psLines", r.psLines);
    w.field("bsInserts", r.bsInserts);
    w.field("bounces", r.bounces);
    w.field("storeNacks", r.storeNacks);
    w.field("remotePsHolds", r.remotePsHolds);
    w.field("recoveries", r.recoveries);
    w.field("squashedStores", r.squashedStores);
    w.endObject();
}

} // namespace

void
FenceProfiler::dumpJson(harness::JsonWriter &w) const
{
    w.beginObject();
    w.field("issued", issued_);
    w.field("completed", completed_);
    w.field("instant", instants_);
    w.field("active", uint64_t(active_.size()));
    w.field("squashedFences", squashedFences_);
    w.field("strong", byKind_[unsigned(FenceKind::Strong)]);
    w.field("weak", byKind_[unsigned(FenceKind::Weak)]);
    w.field("wee", byKind_[unsigned(FenceKind::WeeWeak)]);
    w.field("demotions", demotions_);
    w.field("recoveries", recoveries_);
    w.key("latency");
    emitHistogram(w, latency_);
    w.key("grtWait");
    emitHistogram(w, grtWait_);
    w.key("bounceRounds");
    emitHistogram(w, bounceRounds_);
    w.key("bsInserts");
    emitHistogram(w, bsInserts_);
    w.key("slowest").beginArray();
    for (const auto &r : slowest_)
        emitRecord(w, r);
    w.endArray();
    w.endObject();
}

void
FenceProfiler::dumpRawJsonl(std::ostream &os) const
{
    for (const auto &r : raw_) {
        harness::JsonWriter w(os);
        emitRecord(w, r);
        os << '\n';
    }
}

} // namespace asf

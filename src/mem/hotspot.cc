#include "mem/hotspot.hh"

#include <algorithm>

#include "mem/address.hh"

namespace asf
{

const char *
hotEventName(HotEvent e)
{
    switch (e) {
      case HotEvent::Bounce:      return "bounces";
      case HotEvent::NackX:       return "nackX";
      case HotEvent::NackCO:      return "nackCO";
      case HotEvent::SharerProbe: return "sharerProbes";
      case HotEvent::BsConflict:  return "bsConflicts";
      case HotEvent::GrtDeposit:  return "grtDeposits";
      case HotEvent::GrtBlock:    return "grtBlocks";
      case HotEvent::L2Miss:      return "l2Misses";
    }
    return "?";
}

HotLineTracker::HotLineTracker(unsigned capacity)
    : capacity_(capacity ? capacity : 1)
{
    entries_.reserve(capacity_);
    heap_.reserve(capacity_);
    heapPos_.reserve(capacity_);
}

void
HotLineTracker::place(size_t pos, const HeapSlot &slot)
{
    heap_[pos] = slot;
    heapPos_[slot.entry] = uint32_t(pos);
}

void
HotLineTracker::siftUp(size_t pos)
{
    HeapSlot slot = heap_[pos];
    while (pos > 0) {
        size_t parent = (pos - 1) / 2;
        if (!evictsBefore(slot, heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, slot);
}

void
HotLineTracker::siftDown(size_t pos)
{
    HeapSlot slot = heap_[pos];
    for (;;) {
        size_t child = 2 * pos + 1;
        if (child >= heap_.size())
            break;
        if (child + 1 < heap_.size() &&
            evictsBefore(heap_[child + 1], heap_[child]))
            child++;
        if (!evictsBefore(heap_[child], slot))
            break;
        place(pos, heap_[child]);
        pos = child;
    }
    place(pos, slot);
}

HotLineTracker::Entry &
HotLineTracker::touch(Addr line, uint64_t w)
{
    // Counts only grow, so a touched entry can only move down the heap.
    if (const uint32_t *hit = index_.find(line)) {
        uint32_t i = *hit;
        entries_[i].count += w;
        heap_[heapPos_[i]].count += w;
        siftDown(heapPos_[i]);
        return entries_[i];
    }
    if (entries_.size() < capacity_) {
        uint32_t i = uint32_t(entries_.size());
        index_[line] = i;
        entries_.push_back(Entry{});
        Entry &e = entries_.back();
        e.line = line;
        e.count = w;
        heap_.push_back(HeapSlot{w, line, i});
        heapPos_.push_back(0);
        siftUp(heap_.size() - 1);
        return e;
    }
    // Space-Saving eviction: replace the minimum-count entry and let
    // the newcomer inherit its count as the overestimation bound.
    uint32_t i = heap_[0].entry;
    Entry &e = entries_[i];
    index_.erase(e.line);
    index_[line] = i;
    uint64_t inherited = e.count;
    e = Entry{};
    e.line = line;
    e.count = inherited + w;
    e.error = inherited;
    heap_[0].count = e.count;
    heap_[0].line = line;
    evictions_++;
    siftDown(0);
    return e;
}

void
HotLineTracker::record(Addr line, HotEvent ev, uint64_t w)
{
    if (w == 0)
        return;
    line = lineAlign(line);
    totalRecorded_ += w;
    Entry &e = touch(line, w);
    e.byEvent[unsigned(ev)] += w;
}

void
HotLineTracker::recordSharers(Addr line, unsigned sharers)
{
    line = lineAlign(line);
    totalRecorded_ += 1;
    Entry &e = touch(line, 1);
    e.byEvent[unsigned(HotEvent::SharerProbe)] += 1;
    e.sharerPeak = std::max(e.sharerPeak, sharers);
}

std::vector<HotLineTracker::Entry>
HotLineTracker::top() const
{
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(), [](const Entry &a, const Entry &b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.line < b.line;
    });
    return out;
}

void
HotLineTracker::reset()
{
    entries_.clear();
    index_.clear();
    heap_.clear();
    heapPos_.clear();
    totalRecorded_ = 0;
    evictions_ = 0;
}

void
AddrLabels::label(Addr line, std::string name)
{
    labels_[lineAlign(line)] = std::move(name);
}

const std::string &
AddrLabels::lookup(Addr addr) const
{
    static const std::string empty;
    auto it = labels_.find(lineAlign(addr));
    return it == labels_.end() ? empty : it->second;
}

} // namespace asf

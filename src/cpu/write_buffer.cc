#include "cpu/write_buffer.hh"

#include <algorithm>
#include <vector>

#include "mem/address.hh"
#include "sim/logging.hh"

namespace asf
{

WriteBuffer::WriteBuffer(unsigned capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("write buffer with zero capacity");
}

WriteBuffer::Entry *
WriteBuffer::nextIssuable(bool tso_order, uint64_t max_seq,
                          uint64_t after_seq)
{
    if (entries_.empty())
        return nullptr;
    if (tso_order) {
        Entry &head = entries_.front();
        return (!head.issued && !head.done && head.seq <= max_seq &&
                head.seq > after_seq)
                   ? &head
                   : nullptr;
    }
    // RC: oldest unissued entry with no older same-line entry still
    // outstanding (same-line merges stay in program order).
    for (size_t i = 0; i < entries_.size(); i++) {
        Entry &e = entries_[i];
        if (e.issued || e.done || e.seq > max_seq || e.seq <= after_seq)
            continue;
        bool blocked = false;
        for (size_t j = 0; j < i; j++) {
            if (!entries_[j].done &&
                lineAlign(entries_[j].addr) == lineAlign(e.addr)) {
                blocked = true;
                break;
            }
        }
        if (!blocked)
            return &e;
    }
    return nullptr;
}

WriteBuffer::Entry *
WriteBuffer::issuedEntryForLine(Addr line_addr)
{
    for (auto &e : entries_)
        if (e.issued && !e.done && lineAlign(e.addr) == line_addr)
            return &e;
    return nullptr;
}

const WriteBuffer::Entry &
WriteBuffer::front() const
{
    if (entries_.empty())
        panic("front() on empty write buffer");
    return entries_.front();
}

void
WriteBuffer::popFront()
{
    if (entries_.empty())
        panic("popFront() on empty write buffer");
    unmarkNacked(entries_.front());
    entries_.pop_front();
}

bool
WriteBuffer::drainedUpTo(uint64_t upto) const
{
    return entries_.empty() || entries_.front().seq > upto;
}

unsigned
WriteBuffer::dropYoungerThan(uint64_t upto)
{
    unsigned dropped = 0;
    while (!entries_.empty() && entries_.back().seq > upto) {
        // Post-fence stores never issue while the fence is pending, and
        // Core::done() counts on no in-flight store leaving this way.
        if (entries_.back().issued)
            panic("W+ recovery dropped in-flight store %llu",
                  (unsigned long long)entries_.back().seq);
        unmarkNacked(entries_.back());
        entries_.pop_back();
        dropped++;
    }
    totalDropped_ += dropped;
    return dropped;
}

void
WriteBuffer::resetCounters()
{
    totalPushes_ = 0;
    totalDropped_ = 0;
    highWater_ = unsigned(entries_.size());
}

std::vector<Addr>
WriteBuffer::pendingLines(uint64_t upto) const
{
    std::vector<Addr> lines;
    for (const auto &e : entries_) {
        if (e.seq > upto)
            break;
        lines.push_back(lineAlign(e.addr));
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

} // namespace asf

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
    ring_.resize(capacity);
}

WriteBuffer::Entry *
WriteBuffer::nextIssuable(bool tso_order, uint64_t max_seq,
                          uint64_t after_seq)
{
    if (size_ == 0)
        return nullptr;
    if (tso_order) {
        Entry &head = ring_[head_];
        return (!head.issued && !head.done && head.seq <= max_seq &&
                head.seq > after_seq)
                   ? &head
                   : nullptr;
    }
    // RC: oldest unissued entry with no older same-line entry still
    // outstanding (same-line merges stay in program order).
    for (unsigned i = 0; i < size_; i++) {
        Entry &e = at(i);
        if (e.issued || e.done || e.seq > max_seq || e.seq <= after_seq)
            continue;
        bool blocked = false;
        for (unsigned j = 0; j < i; j++) {
            const Entry &older = at(j);
            if (!older.done && lineAlign(older.addr) == lineAlign(e.addr)) {
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
    for (unsigned i = 0; i < size_; i++) {
        Entry &e = at(i);
        if (e.issued && !e.done && lineAlign(e.addr) == line_addr)
            return &e;
    }
    return nullptr;
}

const WriteBuffer::Entry &
WriteBuffer::front() const
{
    if (size_ == 0)
        panic("front() on empty write buffer");
    return ring_[head_];
}

void
WriteBuffer::popFront()
{
    if (size_ == 0)
        panic("popFront() on empty write buffer");
    unmarkNacked(ring_[head_]);
    dropHead();
}

bool
WriteBuffer::drainedUpTo(uint64_t upto) const
{
    return size_ == 0 || ring_[head_].seq > upto;
}

unsigned
WriteBuffer::dropYoungerThan(uint64_t upto)
{
    unsigned dropped = 0;
    while (size_ != 0 && at(size_ - 1).seq > upto) {
        Entry &youngest = at(size_ - 1);
        // Post-fence stores never issue while the fence is pending, and
        // Core::done() counts on no in-flight store leaving this way.
        if (youngest.issued)
            panic("W+ recovery dropped in-flight store %llu",
                  (unsigned long long)youngest.seq);
        unmarkNacked(youngest);
        size_--;
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
    highWater_ = size_;
}

std::vector<Addr>
WriteBuffer::pendingLines(uint64_t upto) const
{
    std::vector<Addr> lines;
    for (unsigned i = 0; i < size_ && at(i).seq <= upto; i++)
        lines.push_back(lineAlign(at(i).addr));
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

} // namespace asf

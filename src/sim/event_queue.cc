#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sim/logging.hh"

namespace asf
{

EventQueue::EventQueue() { dueAt_.fill(maxTick); }

void
EventQueue::pastPanic(Tick when) const
{
    panic("scheduling event in the past (%llu < %llu)",
          (unsigned long long)when, (unsigned long long)now_);
}

void
EventQueue::duePanic(unsigned a, Tick when) const
{
    if (a >= maxAgents)
        panic("due mark for agent %u (max %u)", a, maxAgents - 1);
    panic("agent %u due at %llu, outside [now, now + span) (now %llu)", a,
          (unsigned long long)when, (unsigned long long)now_);
}

void
EventQueue::grow()
{
    const uint32_t base = uint32_t(chunks_.size()) * chunkCells;
    chunks_.push_back(std::make_unique<Cell[]>(chunkCells));
    for (uint32_t k = chunkCells; k-- > 0;) {
        at(base + k).next = free_;
        free_ = base + k;
    }
}

void
EventQueue::enqueue(Tick when, uint32_t c)
{
    pending_++;
    if (when - now_ < span) {
        append(when, c);
    } else {
        overflow_.push_back(Key{when, nextSeq_++, c});
        std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
}

void
EventQueue::append(Tick when, uint32_t c)
{
    Slot &s = slot(when);
    at(c).next = nil;
    if (s.head == nil) {
        s.head = c;
        setBit(eventBits_, when);
    } else {
        at(s.tail).next = c;
    }
    s.tail = c;
}

void
EventQueue::runNow()
{
    // The cell stays off both lists while its callback runs, so events
    // the callback schedules never reuse it; the guard frees it even if
    // the callback throws.
    struct Release
    {
        EventQueue &q;
        uint32_t c;
        ~Release()
        {
            Cell &cell = q.at(c);
            cell.cb.reset();
            cell.next = q.free_;
            q.free_ = c;
        }
    };
    Slot &s = slot(now_);
    while (s.head != nil) {
        const uint32_t c = s.head;
        Cell &cell = at(c);
        s.head = cell.next;
        pending_--;
        executed_++;
        Release release{*this, c};
        cell.cb();
    }
    clearBit(eventBits_, now_);
}

void
EventQueue::advance(Tick t)
{
    assert(!slot(now_).due && "the clock must not pass a due mark");
    now_ = t;
    // Every key is at or after t (events run before the clock passes
    // them), so `when - t` cannot wrap.
    while (!overflow_.empty() && overflow_.front().when - t < span) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        const Key k = overflow_.back();
        overflow_.pop_back();
        append(k.when, k.cell);
    }
}

void
EventQueue::runUntil(Tick upto)
{
    for (Tick t; (t = nextEventTick()) <= upto;) {
        if (t > now_)
            advance(t);
        runNow();
        if (t == upto)
            return; // nothing can be pending before or at now any more
    }
    if (upto > now_)
        advance(upto);
}

void
EventQueue::setNow(Tick t)
{
    if (t < now_)
        panic("clock moved backwards");
    const Tick busy = nextTick();
    if (busy < t)
        panic("setNow(%llu) passes pending work at %llu",
              (unsigned long long)t, (unsigned long long)busy);
    if (t > now_)
        advance(t);
}

Tick
EventQueue::firstBusy(bool marks) const
{
    auto word = [&](unsigned w) {
        return eventBits_[w] | (marks ? dueBits_[w] : 0);
    };
    const unsigned start = unsigned(now_ % span);
    const uint64_t below = (uint64_t(1) << (start % 64)) - 1;
    unsigned w = start / 64;
    uint64_t bits = word(w) & ~below;
    // The start word's upper bits, the other words in wheel order, then
    // the start word's bits below `start` (the wheel's last ticks).
    for (unsigned i = 0; i <= words; i++) {
        if (bits) {
            unsigned s = w * 64 + unsigned(std::countr_zero(bits));
            return now_ + ((s - start) % span);
        }
        w = (w + 1) % words;
        bits = word(w);
        if (i == words - 1)
            bits &= below;
    }
    return maxTick;
}

Tick
EventQueue::nextEventTick() const
{
    if (pending_ == 0)
        return maxTick;
    Tick t = firstBusy(false);
    if (t == maxTick && !overflow_.empty())
        t = overflow_.front().when;
    return t;
}

Tick
EventQueue::nextTick() const
{
    Tick t = firstBusy(true);
    if (t == maxTick && !overflow_.empty())
        t = overflow_.front().when;
    return t;
}

void
EventQueue::clear()
{
    chunks_.clear(); // destroys every pending callback
    free_ = nil;
    slots_.fill(Slot{});
    std::fill(std::begin(eventBits_), std::end(eventBits_), 0);
    std::fill(std::begin(dueBits_), std::end(dueBits_), 0);
    overflow_.clear();
    dueAt_.fill(maxTick);
    now_ = 0;
    nextSeq_ = 0;
    pending_ = 0;
    executed_ = 0;
}

} // namespace asf

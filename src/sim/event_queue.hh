/**
 * @file
 * Discrete-event calendar. The system's main loop ticks the cores that
 * are due each cycle; latency-shaped completions (memory round trips,
 * NoC deliveries) are callbacks scheduled here and run at the top of
 * their cycle, before any core ticks. Events at the same tick run in
 * scheduling order, which keeps the simulation deterministic.
 *
 * The calendar is a timing wheel of `span` one-tick slots covering
 * [now, now + span). Each slot holds a FIFO list of the events of its
 * tick, and an occupancy bitmap finds the next busy slot in one scan.
 * The machine schedules almost everything a few to a few hundred cycles
 * ahead (mesh hops, directory and L2 service, memory), so the wheel is
 * where events live. Events one span or more ahead wait in a small
 * overflow heap of (when, seq, cell) keys, and are moved into the wheel
 * in (when, seq) order each time the clock advances, before any
 * callback runs. Everything scheduled for a tick while it was far was
 * scheduled before anything scheduled for it once near, so same-tick
 * FIFO order holds across the move.
 *
 * Callbacks live in a chunked slab of cells that never move. A capture
 * that fits the inline buffer is built in its cell, runs there and is
 * destroyed there; a larger one costs a heap allocation and a free. The
 * buffer is sized for the largest hot-path lambda, the NoC delivery
 * closure carrying a Message by value, and Mesh::send static_asserts
 * that the closure fits, so steady-state scheduling performs no heap
 * allocation. The wheel and the heap hold 4-byte cell indices instead
 * of callbacks.
 *
 * Beside the events the calendar keeps due marks for up to 64 numbered
 * agents (System: one per core), each due at no more than one tick
 * inside the wheel: a bit mask per slot. A caller finds the agents due
 * at a tick in O(due), and the next tick where anything happens in the
 * same scan that finds the next event.
 */

#ifndef ASF_SIM_EVENT_QUEUE_HH
#define ASF_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace asf
{

/**
 * Type-erased callable built in place. A callable whose capture fits
 * `inlineSize` bytes lives inside the wrapper; a larger one takes a
 * single heap allocation. The wrapper never moves: the event queue
 * builds each callback in its slab cell and runs and destroys it there.
 */
class EventCallback
{
  public:
    /// Sized to hold the mesh delivery lambda (this + Message); Mesh::send
    /// static_asserts that it fits.
    static constexpr size_t inlineSize = 128;

    /** Callables of type F are built inside the wrapper (no allocation). */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= inlineSize && alignof(F) <= alignof(std::max_align_t);

    EventCallback() = default;
    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;
    ~EventCallback() { reset(); }

    /** Build f in this (empty) wrapper. */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        } else {
            // Oversized capture: one heap allocation, pointer inline.
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(f)));
            invoke_ = [](void *p) { (**static_cast<Fn **>(p))(); };
            destroy_ = [](void *p) { delete *static_cast<Fn **>(p); };
        }
    }

    /** Destroy the held callable, if any. */
    void
    reset() noexcept
    {
        if (invoke_) {
            destroy_(buf_);
            invoke_ = nullptr;
            destroy_ = nullptr;
        }
    }

    void operator()() { invoke_(buf_); }

  private:
    alignas(std::max_align_t) unsigned char buf_[inlineSize];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

class EventQueue
{
  public:
    /** Ticks the wheel covers: events this far ahead or more overflow. */
    static constexpr unsigned span = 256;
    /** Agents that can hold a due mark (bits of a takeDue() mask). */
    static constexpr unsigned maxAgents = 64;

    EventQueue();
    // Components keep a reference to their queue.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule f to run at absolute tick `when` (>= now). */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        static_assert(std::is_invocable_v<std::decay_t<F> &>);
        if (when < now_)
            pastPanic(when);
        if (free_ == nil)
            grow();
        const uint32_t c = free_;
        Cell &cell = at(c);
        cell.cb.emplace(std::forward<F>(f));
        free_ = cell.next;
        enqueue(when, c);
    }

    /** Schedule f to run `delay` ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        schedule(now_ + delay, std::forward<F>(f));
    }

    /** Run every event scheduled at tick <= `upto`, advancing now. */
    void runUntil(Tick upto);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Advance the clock without running events (main-loop use). Panics
     *  if an event or a due mark lies before `t`. */
    void setNow(Tick t);

    bool empty() const { return pending_ == 0; }
    size_t size() const { return pending_; }

    /** Tick of the earliest pending event, or maxTick if none. */
    Tick nextEventTick() const;

    /** Total callbacks executed since construction (host-side metric). */
    uint64_t executedEvents() const { return executed_; }

    /** Drop all pending events and due marks and reset the clock. */
    void clear();

    // --- due marks ----------------------------------------------------

    /** Make agent `a` due at `when`, in [now, now + span), instead of
     *  wherever it was due; maxTick makes it due nowhere. */
    void
    setDue(unsigned a, Tick when)
    {
        if (a >= maxAgents || when < now_ ||
            (when != maxTick && when - now_ >= span))
            duePanic(a, when);
        const uint64_t bit = uint64_t(1) << a;
        if (const Tick old = dueAt_[a]; old != maxTick) {
            Slot &s = slot(old);
            s.due &= ~bit;
            if (!s.due)
                clearBit(dueBits_, old);
        }
        dueAt_[a] = when;
        if (when != maxTick) {
            slot(when).due |= bit;
            setBit(dueBits_, when);
        }
    }

    /** The agents due at now, as a mask (bit a = agent a), lowest agent
     *  first; they are due nowhere afterwards. A caller with due marks
     *  takes them at their tick: runUntil only runs events and must not
     *  carry the clock past a mark. */
    uint64_t
    takeDue()
    {
        Slot &s = slot(now_);
        const uint64_t due = s.due;
        if (due) {
            s.due = 0;
            clearBit(dueBits_, now_);
            for (uint64_t m = due; m; m &= m - 1)
                dueAt_[std::countr_zero(m)] = maxTick;
        }
        return due;
    }

    /** Earliest tick holding an event or a due mark, or maxTick. */
    Tick nextTick() const;

  private:
    static constexpr uint32_t nil = ~uint32_t(0);
    static constexpr unsigned words = span / 64;
    static constexpr uint32_t chunkCells = 64;

    /** A slab cell: one callback and the link to the next cell of its
     *  slot's FIFO (or of the free list). */
    struct Cell
    {
        EventCallback cb;
        uint32_t next = nil;
    };

    struct Slot
    {
        uint32_t head = nil; ///< first event of the tick (FIFO)
        uint32_t tail = nil; ///< last event; stale while head == nil
        uint64_t due = 0;    ///< agents due at the tick
    };

    /** Overflow heap key: an event one span or more ahead. */
    struct Key
    {
        Tick when;
        uint64_t seq;
        uint32_t cell;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Cell &at(uint32_t c) { return chunks_[c / chunkCells][c % chunkCells]; }
    Slot &slot(Tick t) { return slots_[t % span]; }

    static void
    setBit(uint64_t *bits, Tick t)
    {
        const unsigned s = unsigned(t % span);
        bits[s / 64] |= uint64_t(1) << (s % 64);
    }
    static void
    clearBit(uint64_t *bits, Tick t)
    {
        const unsigned s = unsigned(t % span);
        bits[s / 64] &= ~(uint64_t(1) << (s % 64));
    }

    [[noreturn]] void pastPanic(Tick when) const;
    [[noreturn]] void duePanic(unsigned a, Tick when) const;
    /** Add a chunk of cells to the free list. */
    void grow();
    /** File cell c under tick `when`: its slot, or the overflow heap. */
    void enqueue(Tick when, uint32_t c);
    /** Append cell c to the FIFO of tick `when` (in the wheel). */
    void append(Tick when, uint32_t c);
    /** Run the events of tick now_, including those they schedule for
     *  it, and release their cells. */
    void runNow();
    /** Move the clock to t and pull the events that came within a span
     *  of it out of the overflow heap. */
    void advance(Tick t);
    /** First tick in [now, now + span) whose slot holds events (or,
     *  with `marks`, due marks), or maxTick. */
    Tick firstBusy(bool marks) const;

    std::vector<std::unique_ptr<Cell[]>> chunks_;
    uint32_t free_ = nil;
    std::array<Slot, span> slots_{};
    uint64_t eventBits_[words] = {}; ///< slots with events
    uint64_t dueBits_[words] = {};   ///< slots with due marks
    std::vector<Key> overflow_;      ///< min-heap on (when, seq)

    /** Tick each agent is due at, or maxTick. */
    std::array<Tick, maxAgents> dueAt_;

    Tick now_ = 0;
    uint64_t nextSeq_ = 0;
    size_t pending_ = 0;
    uint64_t executed_ = 0;
};

} // namespace asf

#endif // ASF_SIM_EVENT_QUEUE_HH

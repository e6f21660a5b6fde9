/**
 * @file
 * The per-core write buffer. Under TSO, retired stores sit here in FIFO
 * order and merge with the memory system one at a time. Fences complete
 * when every store older than the fence has drained. Store->load
 * forwarding is allowed unless an active fence separates the store from
 * the load in program order.
 *
 * The entries live in a ring over a vector sized to the capacity, so the
 * buffer never allocates after construction and an entry stays at one
 * address from push until it leaves.
 */

#ifndef ASF_CPU_WRITE_BUFFER_HH
#define ASF_CPU_WRITE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace asf
{

class WriteBuffer
{
  public:
    struct Entry
    {
        Addr addr;      ///< word-aligned byte address
        uint64_t value;
        uint64_t seq;   ///< program-order store sequence number
        /** Issued to the memory system (a write transaction is in
         *  flight). Under TSO only the head issues; under RC several
         *  entries may be in flight at once. */
        bool issued = false;
        /** Merged with the memory system. Entries complete out of order
         *  under RC; completed entries leave the buffer once everything
         *  older has also completed. */
        bool done = false;

        // --- bounce/retry state (written by the core's store unit) ----
        /** A directory bounced this store at least once; counted in
         *  nackedCount() until the store completes or is dropped. */
        bool nacked = false;
        /** The store unit examined this entry as an issue candidate
         *  (the watchdog snapshot prints the retry fields from then on). */
        bool examined = false;
        /** Bounces so far; drives the retry backoff. */
        unsigned retries = 0;
        /** No retry before this tick. */
        Tick nextTryAt = 0;
    };

    explicit WriteBuffer(unsigned capacity);

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    unsigned capacity() const { return capacity_; }

    /** Enqueue a retired store; returns its sequence number.
     *  Inline: a hot operation of every core tick. */
    uint64_t push(Addr addr, uint64_t value)
    {
        if (full())
            panic("write buffer overflow");
        uint64_t seq = nextSeq_++;
        at(size_) = Entry{addr, value, seq};
        size_++;
        totalPushes_++;
        if (size_ > highWater_)
            highWater_ = size_;
        return seq;
    }

    const Entry &front() const;
    void popFront();

    /**
     * Next issue candidate: under `tso_order` the head entry if it is
     * unissued; otherwise (RC) the oldest unissued entry with seq >
     * after_seq whose line has no older in-flight or incomplete entry
     * (same-line writes must merge in program order). Entries with
     * seq > max_seq are never returned - the core passes the oldest
     * incomplete fence's pre-store bound so post-fence stores wait for
     * the fence even under RC. `after_seq` lets the caller skip past a
     * resource-blocked entry and drain ready younger ones (RC does not
     * preserve store order anyway). Returns nullptr if none.
     */
    Entry *nextIssuable(bool tso_order, uint64_t max_seq = ~uint64_t(0),
                        uint64_t after_seq = 0);

    const Entry *nextIssuable(bool tso_order,
                              uint64_t max_seq = ~uint64_t(0),
                              uint64_t after_seq = 0) const
    {
        return const_cast<WriteBuffer *>(this)->nextIssuable(
            tso_order, max_seq, after_seq);
    }

    /** Locate the (unique) in-flight entry for a line. */
    Entry *issuedEntryForLine(Addr line_addr);

    /** Mark an entry merged and drop the completed prefix. A completed
     *  entry no longer counts as nacked, even while it waits (RC) for
     *  older entries. Inline: a hot operation of every core tick. */
    void complete(Entry &entry)
    {
        entry.done = true;
        entry.issued = false;
        unmarkNacked(entry);
        while (size_ != 0 && ring_[head_].done)
            dropHead();
    }

    /** A directory bounced the in-flight entry: it is no longer issued
     *  and counts one more retry. Returns its retry count. */
    unsigned nack(Entry &entry)
    {
        entry.issued = false;
        if (!entry.nacked) {
            entry.nacked = true;
            nacked_++;
        }
        return ++entry.retries;
    }

    /** Live (not completed, not dropped) entries bounced at least once. */
    unsigned nackedCount() const { return nacked_; }

    /** Sequence number of the most recently enqueued store (0 if none). */
    uint64_t lastSeq() const { return nextSeq_ - 1; }

    /**
     * Youngest entry matching a word address, for store->load
     * forwarding; nullptr if none. (Word-granularity accesses only, so
     * partial overlap cannot occur.) Inline: every load calls it.
     */
    const Entry *forwardLookup(Addr addr) const
    {
        for (unsigned i = size_; i-- > 0;)
            if (at(i).addr == addr)
                return &at(i);
        return nullptr;
    }

    /** True once every store with seq <= upto has drained. */
    bool drainedUpTo(uint64_t upto) const;

    /** Drop all entries with seq > upto (W+ recovery); returns how many
     *  buffered stores were squashed. Panics if one of them is issued. */
    unsigned dropYoungerThan(uint64_t upto);

    /** Distinct line addresses of entries with seq <= upto (Wee PS). */
    std::vector<Addr> pendingLines(uint64_t upto) const;

    // --- occupancy accounting (observability) --------------------------
    /** Total stores ever enqueued. */
    uint64_t totalPushes() const { return totalPushes_; }

    /** Total stores squashed by dropYoungerThan. */
    uint64_t totalDropped() const { return totalDropped_; }

    /** Largest occupancy ever reached. */
    unsigned highWater() const { return highWater_; }

    /** Zero the occupancy accounting (post-warmup stat reset). */
    void resetCounters();

  private:
    /** The i-th oldest live entry (i == size_ is the next free slot). */
    Entry &at(unsigned i)
    {
        unsigned slot = head_ + i;
        return ring_[slot >= capacity_ ? slot - capacity_ : slot];
    }
    const Entry &at(unsigned i) const
    {
        return const_cast<WriteBuffer *>(this)->at(i);
    }

    void dropHead()
    {
        head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
        size_--;
    }

    void unmarkNacked(Entry &entry)
    {
        if (entry.nacked) {
            entry.nacked = false;
            nacked_--;
        }
    }

    unsigned capacity_;
    /** capacity_ slots; the live entries are the size_ slots from
     *  head_ on, wrapping at the end, oldest first. */
    std::vector<Entry> ring_;
    unsigned head_ = 0;
    unsigned size_ = 0;
    unsigned nacked_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t totalPushes_ = 0;
    uint64_t totalDropped_ = 0;
    unsigned highWater_ = 0;
};

} // namespace asf

#endif // ASF_CPU_WRITE_BUFFER_HH

/**
 * @file
 * The per-core write buffer. Under TSO, retired stores sit here in FIFO
 * order and merge with the memory system one at a time. Fences complete
 * when every store older than the fence has drained. Store->load
 * forwarding is allowed unless an active fence separates the store from
 * the load in program order.
 */

#ifndef ASF_CPU_WRITE_BUFFER_HH
#define ASF_CPU_WRITE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <deque>
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
    };

    explicit WriteBuffer(unsigned capacity);

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Enqueue a retired store; returns its sequence number.
     *  Inline: a hot operation of every core tick. */
    uint64_t push(Addr addr, uint64_t value)
    {
        if (full())
            panic("write buffer overflow");
        uint64_t seq = nextSeq_++;
        entries_.push_back(Entry{addr, value, seq, false, false});
        totalPushes_++;
        if (entries_.size() > highWater_)
            highWater_ = unsigned(entries_.size());
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

    /** Mark an entry merged and drop the completed prefix.
     *  Inline: a hot operation of every core tick. */
    void complete(Entry &entry)
    {
        entry.done = true;
        entry.issued = false;
        while (!entries_.empty() && entries_.front().done)
            entries_.pop_front();
    }

    /** Sequence number of the most recently enqueued store (0 if none). */
    uint64_t lastSeq() const { return nextSeq_ - 1; }

    /**
     * Youngest entry matching a word address, for store->load
     * forwarding; nullptr if none. (Word-granularity accesses only, so
     * partial overlap cannot occur.) Inline: every load calls it.
     */
    const Entry *forwardLookup(Addr addr) const
    {
        for (auto it = entries_.rbegin(); it != entries_.rend(); ++it)
            if (it->addr == addr)
                return &*it;
        return nullptr;
    }

    /** True once every store with seq <= upto has drained. */
    bool drainedUpTo(uint64_t upto) const;

    /** Drop all entries with seq > upto (W+ recovery); returns how many
     *  buffered stores were squashed. */
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
    unsigned capacity_;
    std::deque<Entry> entries_;
    uint64_t nextSeq_ = 1;
    uint64_t totalPushes_ = 0;
    uint64_t totalDropped_ = 0;
    unsigned highWater_ = 0;
};

} // namespace asf

#endif // ASF_CPU_WRITE_BUFFER_HH

/**
 * @file
 * The Global Reorder Table (GRT) of the WeeFence baseline: one module per
 * directory slice. A WeeFence deposits its Pending Set (the line
 * addresses of its incomplete pre-fence stores) here and receives back
 * the union of the Pending Sets other cores currently have deposited at
 * this module (its Remote PS). The module also answers re-check probes
 * for post-fence accesses that stalled on a Remote PS match.
 *
 * As in the paper, consistency is only achievable within a single module,
 * so a fence whose PS/BS footprint spans more than one directory module
 * is demoted to a conventional fence by the core (Section 2.3).
 */

#ifndef ASF_FENCE_GRT_HH
#define ASF_FENCE_GRT_HH

#include <ostream>
#include <vector>

#include "mem/message.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace asf
{

class Grt
{
  public:
    explicit Grt(NodeId node);

    /** Deposit `core`'s pending set, replacing any previous deposit.
     *  `fence_id` is the depositing fence's profiler id (observability
     *  only; shows up in debugDump). */
    void deposit(NodeId core, const std::vector<Addr> &pending_set,
                 uint64_t fence_id = 0);

    /** Remove `core`'s deposit (its fence completed). */
    void clear(NodeId core);

    /** Union of all pending sets deposited by cores other than `core`. */
    std::vector<Addr> remotePendingSet(NodeId core) const;

    /** Is `line` in any pending set deposited by a core other than us? */
    bool blocks(NodeId core, Addr line) const;

    bool hasDeposit(NodeId core) const;
    size_t numDeposits() const { return numDeposits_; }

    /** One-line-per-deposit diagnostic dump (watchdog snapshot). */
    void debugDump(std::ostream &os) const;

    StatGroup &stats() { return stats_; }

  private:
    struct Deposit
    {
        std::vector<Addr> lines;
        uint64_t fenceId = 0;
        bool live = false;
    };

    NodeId node_;
    /** One slot per core, indexed by core id and walked in that order.
     *  The vector grows to the highest depositing core; a slot keeps
     *  its line buffer after a clear, so re-deposits reuse it. */
    std::vector<Deposit> slots_;
    size_t numDeposits_ = 0;
    StatGroup stats_;
    // Hot-path handles into stats_ (lazily bound; see LazyStatScalar).
    LazyStatScalar statDeposits_;
    LazyStatScalar statClears_;
};

} // namespace asf

#endif // ASF_FENCE_GRT_HH

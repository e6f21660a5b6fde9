/**
 * @file
 * 2D mesh on-chip network with XY (dimension-order) routing, 5 cycles per
 * hop and 256-bit (32-byte) links, as in Table 2 of the paper.
 *
 * The model is an analytic pipeline: at injection the packet reserves each
 * directed link on its XY path in order. A link transfers one flit per
 * cycle, so a packet occupies a link for `flits` cycles starting when the
 * link frees; head latency per hop is `hopLatency`. Reservation order at
 * injection time preserves FIFO per link, which (with deterministic XY
 * routes) guarantees in-order delivery per (src, dst) pair - a property
 * the coherence protocol relies on.
 */

#ifndef ASF_NOC_MESH_HH
#define ASF_NOC_MESH_HH

#include <functional>
#include <vector>

#include "noc/packet.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace asf
{

class Mesh
{
  public:
    using Sink = std::function<void(const Message &)>;

    Mesh(EventQueue &eq, unsigned num_nodes, Tick hop_latency = 5,
         unsigned link_bytes = 32);

    /** Register the component that receives messages addressed to node. */
    void setSink(NodeId node, Sink sink);

    /** Inject a message now; it is delivered via the event queue. */
    void send(Message msg);

    unsigned numNodes() const { return numNodes_; }
    unsigned cols() const { return cols_; }
    unsigned rows() const { return rows_; }

    /** Hop count of the XY route between two nodes. */
    unsigned hopCount(NodeId from, NodeId to) const;

    /**
     * Fast-forward protocol: the mesh holds no self-timed state — every
     * in-flight packet completes through the event queue, which the
     * fast-forward path consults directly — so it never blocks an
     * idle-cycle jump.
     */
    bool quiescent() const { return true; }
    Tick nextWakeTick() const { return maxTick; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Mean delivered-packet latency in cycles. */
    double avgLatency() const { return latency_.mean(); }

    /** Injection-to-delivery latency distribution. */
    const StatAverage &latency() const { return latency_; }

    /** Utilization of one directed link (heatmap feed). */
    struct LinkUtil
    {
        NodeId node;         ///< grid position the link leaves
        char dir;            ///< 'E', 'W', 'N', 'S'
        uint64_t busyCycles; ///< flit-cycles the link was occupied
        uint64_t bytes;      ///< payload bytes carried
        uint64_t packets;    ///< packets that crossed the link
    };

    /** Per-link counters for every link that carried traffic. */
    std::vector<LinkUtil> linkUtilization() const;

    /** Raw per-directed-link flit-cycle counters over the *full* link
     *  enumeration (index = node * 4 + dir, dir order E,W,N,S). The
     *  vector's size and indexing are fixed at construction, which the
     *  interval time-series relies on for stable per-link deltas. */
    const std::vector<uint64_t> &linkBusyRaw() const { return linkBusy_; }

  private:
    enum Dir { East, West, North, South, numDirs };

    struct XY
    {
        int x;
        int y;
    };

    XY coords(NodeId n) const;
    NodeId nodeAt(int x, int y) const;

    /** Route msg, reserving links; returns delivery tick (the cycle the
     *  packet's tail has fully crossed the final link). */
    Tick route(const Message &msg, unsigned flits, unsigned bytes,
               unsigned &hops);

    EventQueue &eq_;
    unsigned numNodes_;
    unsigned cols_;
    unsigned rows_;
    Tick hopLatency_;
    unsigned linkBytes_;
    std::vector<Sink> sinks_;
    std::vector<Tick> linkFree_;
    // Indexed like linkFree_: per directed link.
    std::vector<uint64_t> linkBusy_;
    std::vector<uint64_t> linkByteCount_;
    std::vector<uint64_t> linkPackets_;
    std::vector<bool> linkNamed_; ///< trace thread-name emitted
    StatGroup stats_;
    // Hot-path handles into stats_ (bound once at construction; map
    // entries are reference-stable).
    StatScalar &statPackets_;
    StatScalar &statBytes_;
    StatScalar &statBytesBase_;
    StatScalar &statBytesRetry_;
    StatScalar &statBytesGrt_;
    StatAverage latency_;
};

} // namespace asf

#endif // ASF_NOC_MESH_HH

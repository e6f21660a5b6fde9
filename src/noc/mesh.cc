#include "noc/mesh.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace asf
{

Mesh::Mesh(EventQueue &eq, unsigned num_nodes, Tick hop_latency,
           unsigned link_bytes)
    : eq_(eq), numNodes_(num_nodes), hopLatency_(hop_latency),
      linkBytes_(link_bytes), sinks_(num_nodes),
      stats_("noc"), statPackets_(stats_.scalar("packets")),
      statBytes_(stats_.scalar("bytes")),
      statBytesBase_(stats_.scalar("bytesBase")),
      statBytesRetry_(stats_.scalar("bytesRetry")),
      statBytesGrt_(stats_.scalar("bytesGrt"))
{
    if (num_nodes == 0)
        fatal("mesh with zero nodes");
    cols_ = static_cast<unsigned>(std::ceil(std::sqrt(double(num_nodes))));
    rows_ = (num_nodes + cols_ - 1) / cols_;
    // Routers exist at every grid position: XY routes may pass through
    // positions that hold no endpoint (e.g. 8 nodes on a 3x3 grid).
    linkFree_.assign(size_t(cols_) * rows_ * numDirs, 0);
    linkBusy_.assign(linkFree_.size(), 0);
    linkByteCount_.assign(linkFree_.size(), 0);
    linkPackets_.assign(linkFree_.size(), 0);
    linkNamed_.assign(linkFree_.size(), false);
}

void
Mesh::setSink(NodeId node, Sink sink)
{
    if (node < 0 || unsigned(node) >= numNodes_)
        panic("setSink: bad node %d", node);
    sinks_[node] = std::move(sink);
}

Mesh::XY
Mesh::coords(NodeId n) const
{
    return XY{int(unsigned(n) % cols_), int(unsigned(n) / cols_)};
}

NodeId
Mesh::nodeAt(int x, int y) const
{
    return NodeId(unsigned(y) * cols_ + unsigned(x));
}

unsigned
Mesh::hopCount(NodeId from, NodeId to) const
{
    XY a = coords(from);
    XY b = coords(to);
    return unsigned(std::abs(a.x - b.x) + std::abs(a.y - b.y));
}

Tick
Mesh::route(const Message &msg, unsigned flits, unsigned bytes,
            unsigned &hops)
{
    static const char dir_char[numDirs] = {'E', 'W', 'N', 'S'};
    const bool traced = Trace::get().enabled();
    Tick t = eq_.now();
    XY cur = coords(msg.src);
    XY dst = coords(msg.dst);
    hops = 0;
    // X first, then Y (deterministic dimension-order routing).
    while (cur.x != dst.x || cur.y != dst.y) {
        Dir dir;
        XY next = cur;
        if (cur.x != dst.x) {
            dir = cur.x < dst.x ? East : West;
            next.x += cur.x < dst.x ? 1 : -1;
        } else {
            dir = cur.y < dst.y ? South : North;
            next.y += cur.y < dst.y ? 1 : -1;
        }
        NodeId at = nodeAt(cur.x, cur.y);
        size_t idx = size_t(at) * numDirs + dir;
        Tick &free = linkFree_[idx];
        Tick start = std::max(t, free);
        free = start + flits;
        linkBusy_[idx] += flits;
        linkByteCount_[idx] += bytes;
        linkPackets_[idx]++;
        if (traced) {
            uint32_t tid = 3000 + uint32_t(idx);
            if (!linkNamed_[idx]) {
                linkNamed_[idx] = true;
                Trace::get().threadName(
                    tid, format("link %d%c", at, dir_char[dir]));
            }
            Trace::get().complete(start, flits, tid, "noc",
                                  msgTypeName(msg.type));
        }
        t = start + hopLatency_;
        cur = next;
        hops++;
    }
    // The head arrives at t; the body serializes behind it at one flit
    // per cycle on the final link, so the tail lands flits-1 later.
    return t + (flits - 1);
}

std::vector<Mesh::LinkUtil>
Mesh::linkUtilization() const
{
    static const char dir_char[numDirs] = {'E', 'W', 'N', 'S'};
    std::vector<LinkUtil> out;
    for (size_t i = 0; i < linkBusy_.size(); i++) {
        if (linkPackets_[i] == 0)
            continue;
        out.push_back(LinkUtil{NodeId(i / numDirs),
                               dir_char[i % numDirs], linkBusy_[i],
                               linkByteCount_[i], linkPackets_[i]});
    }
    return out;
}

void
Mesh::send(Message msg)
{
    if (msg.src < 0 || unsigned(msg.src) >= numNodes_ || msg.dst < 0 ||
        unsigned(msg.dst) >= numNodes_)
        panic("mesh send with bad endpoints: %s", msg.toString().c_str());

    unsigned flits = flitsFor(msg, linkBytes_);
    unsigned bytes = msg.sizeBytes();
    statPackets_.inc();
    statBytes_.inc(bytes);
    switch (msg.trafficClass) {
      case TrafficClass::Base:
        statBytesBase_.inc(bytes);
        break;
      case TrafficClass::Retry:
        statBytesRetry_.inc(bytes);
        break;
      case TrafficClass::Grt:
        statBytesGrt_.inc(bytes);
        break;
    }

    Tick deliver;
    unsigned hops = 0;
    if (msg.src == msg.dst) {
        // Local loopback: one cycle through the node's own port.
        deliver = eq_.now() + 1;
    } else {
        deliver = route(msg, flits, bytes, hops);
    }
    latency_.sample(double(deliver - eq_.now()));

    auto delivery = [this, m = std::move(msg)]() {
        if (!sinks_[m.dst])
            panic("no sink registered for node %d", m.dst);
        sinks_[m.dst](m);
    };
    // A closure past the event cell's inline buffer would cost a heap
    // allocation and a free on every message.
    static_assert(EventCallback::fitsInline<decltype(delivery)>,
                  "the NoC delivery closure must fit an event cell");
    eq_.schedule(deliver, std::move(delivery));
}

} // namespace asf

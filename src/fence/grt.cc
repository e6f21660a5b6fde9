#include "fence/grt.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace asf
{

Grt::Grt(NodeId node)
    : node_(node), stats_(format("grt%d", node)),
      statDeposits_(stats_, "deposits"), statClears_(stats_, "clears")
{
}

void
Grt::deposit(NodeId core, const std::vector<Addr> &pending_set,
             uint64_t fence_id)
{
    if (size_t(core) >= slots_.size())
        slots_.resize(size_t(core) + 1);
    Deposit &d = slots_[size_t(core)];
    if (!d.live) {
        d.live = true;
        numDeposits_++;
    }
    d.lines.assign(pending_set.begin(), pending_set.end());
    d.fenceId = fence_id;
    statDeposits_.inc();
}

void
Grt::clear(NodeId core)
{
    if (hasDeposit(core)) {
        slots_[size_t(core)].live = false;
        numDeposits_--;
    }
    statClears_.inc();
}

std::vector<Addr>
Grt::remotePendingSet(NodeId core) const
{
    std::vector<Addr> out;
    for (size_t owner = 0; owner < slots_.size(); owner++) {
        const Deposit &d = slots_[owner];
        if (d.live && NodeId(owner) != core)
            out.insert(out.end(), d.lines.begin(), d.lines.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
Grt::blocks(NodeId core, Addr line) const
{
    for (size_t owner = 0; owner < slots_.size(); owner++) {
        const Deposit &d = slots_[owner];
        if (d.live && NodeId(owner) != core &&
            std::find(d.lines.begin(), d.lines.end(), line) !=
                d.lines.end())
            return true;
    }
    return false;
}

bool
Grt::hasDeposit(NodeId core) const
{
    return size_t(core) < slots_.size() && slots_[size_t(core)].live;
}

void
Grt::debugDump(std::ostream &os) const
{
    if (numDeposits_ == 0)
        return;
    os << "grt" << unsigned(node_) << ":\n";
    for (size_t owner = 0; owner < slots_.size(); owner++) {
        const Deposit &d = slots_[owner];
        if (!d.live)
            continue;
        os << "  core" << unsigned(owner) << " fenceId=" << d.fenceId
           << " ps={";
        for (size_t i = 0; i < d.lines.size(); i++)
            os << (i ? "," : "") << "0x" << std::hex << d.lines[i]
               << std::dec;
        os << "}\n";
    }
}

} // namespace asf

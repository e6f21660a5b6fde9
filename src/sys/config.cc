#include "sys/config.hh"

#include "sim/logging.hh"

namespace asf
{

const char *
memoryModelName(MemoryModel m)
{
    return m == MemoryModel::TSO ? "TSO" : "RC";
}

void
SystemConfig::validate() const
{
    if (numCores < 1 || numCores > 64)
        fatal("numCores %u out of supported range 1-64", numCores);
    if (l1Assoc < 2)
        fatal("l1Assoc must be >= 2 (one line may be pinned)");
    if (storeUnits == 0)
        fatal("storeUnits must be nonzero");
    if (memoryModel == MemoryModel::RC && storeUnits >= l1Assoc)
        fatal("storeUnits (%u) must stay below l1Assoc (%u): every "
              "in-flight upgrade pins a line", storeUnits, l1Assoc);
    if (issueWidth == 0 || wbEntries == 0 || bsEntries == 0)
        fatal("zero-sized core resource");
    if (wPlusTimeout == 0)
        fatal("wPlusTimeout must be nonzero");
    // Events run before the cores at each tick, so a message a core
    // sends must land in a later cycle.
    if (hopLatency == 0)
        fatal("hopLatency must be nonzero");
    if (checkExecution && memoryModel != MemoryModel::TSO)
        fatal("checkExecution verifies TSO executions; RC is not "
              "supported");
}

std::string
SystemConfig::summary() const
{
    return format("%u cores, %s fences, L1 %uKB/%u-way, "
                  "L2 bank %uKB/%u-way, mem %llu cyc, WB %u, BS %u",
                  numCores, fenceDesignName(design), l1SizeBytes / 1024,
                  l1Assoc, l2BankSizeBytes / 1024, l2Assoc,
                  (unsigned long long)memLatency, wbEntries, bsEntries);
}

} // namespace asf

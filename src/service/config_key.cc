#include "service/config_key.hh"

#include <fstream>
#include <mutex>
#include <sstream>

#include "service/sha256.hh"
#include "sim/logging.hh"
#include "sys/config.hh"

namespace asf::service
{

namespace
{

std::mutex fpMu;
std::string fpOverride;
std::string fpCached;

std::string
hashSelfExe()
{
    std::ifstream exe("/proc/self/exe", std::ios::binary);
    if (!exe)
        return "unfingerprinted-binary";
    Sha256 h;
    char buf[1 << 16];
    while (exe.read(buf, sizeof(buf)) || exe.gcount() > 0)
        h.update(buf, size_t(exe.gcount()));
    return h.finishHex();
}

} // namespace

std::string
binaryFingerprint()
{
    std::lock_guard<std::mutex> lock(fpMu);
    if (!fpOverride.empty())
        return fpOverride;
    if (fpCached.empty())
        fpCached = hashSelfExe();
    return fpCached;
}

void
setBinaryFingerprintOverride(const std::string &fp)
{
    std::lock_guard<std::mutex> lock(fpMu);
    fpOverride = fp;
}

ConfigKey
makeConfigKey(const SystemConfig &cfg, const std::string &label,
              const std::string &extra)
{
    std::ostringstream os;
    os << "asf-config-key " << kConfigKeySchemaVersion << '\n'
       << "fingerprint " << binaryFingerprint() << '\n'
       << "label " << label << '\n';
    if (!extra.empty())
        os << "extra " << extra << '\n';

    // Every SystemConfig field, one line each, in declaration order.
    // progressSink/progressInterval are deliberately absent: they are
    // host-side telemetry plumbing with no effect on simulated state
    // or the stats document. WHEN ADDING A SystemConfig FIELD, ADD IT
    // HERE (and bump kConfigKeySchemaVersion if its default changes
    // what existing keys mean) — a forgotten field means two distinct
    // configurations share a digest and the cache returns wrong
    // results. tests/service/test_config_key.cc sweeps every field
    // and asserts the digest moves.
    os << "numCores " << cfg.numCores << '\n'
       << "design " << fenceDesignName(cfg.design) << '\n'
       << "memoryModel " << memoryModelName(cfg.memoryModel) << '\n'
       << "storeUnits " << cfg.storeUnits << '\n'
       << "issueWidth " << cfg.issueWidth << '\n'
       << "robEntries " << cfg.robEntries << '\n'
       << "wbEntries " << cfg.wbEntries << '\n'
       << "l1SizeBytes " << cfg.l1SizeBytes << '\n'
       << "l1Assoc " << cfg.l1Assoc << '\n'
       << "l1HitLatency " << cfg.l1HitLatency << '\n'
       << "l2BankSizeBytes " << cfg.l2BankSizeBytes << '\n'
       << "l2Assoc " << cfg.l2Assoc << '\n'
       << "l2HitLatency " << cfg.l2HitLatency << '\n'
       << "memLatency " << cfg.memLatency << '\n'
       << "dirLookupLatency " << cfg.dirLookupLatency << '\n'
       << "hopLatency " << cfg.hopLatency << '\n'
       << "linkBytes " << cfg.linkBytes << '\n'
       << "bsEntries " << cfg.bsEntries << '\n'
       << "retryBackoffBase " << cfg.retryBackoffBase << '\n'
       << "retryBackoffStep " << cfg.retryBackoffStep << '\n'
       << "retryBackoffMax " << cfg.retryBackoffMax << '\n'
       << "wPlusTimeout " << cfg.wPlusTimeout << '\n'
       << "weeTimeout " << cfg.weeTimeout << '\n'
       << "grtRecheckInterval " << cfg.grtRecheckInterval << '\n'
       << "weePrivateFiltering " << cfg.weePrivateFiltering << '\n'
       << "storeDrainLatency " << cfg.storeDrainLatency << '\n'
       << "fastForward " << cfg.fastForward << '\n'
       << "watchdogCycles " << cfg.watchdogCycles << '\n'
       << "fenceProfile " << cfg.fenceProfile << '\n'
       << "fenceProfileRaw " << cfg.fenceProfileRaw << '\n'
       << "checkExecution " << cfg.checkExecution << '\n'
       << "statsInterval " << cfg.statsInterval << '\n'
       << "statsIntervalRing " << cfg.statsIntervalRing << '\n'
       << "hotLineTracking " << cfg.hotLineTracking << '\n'
       << "hotLineEntries " << cfg.hotLineEntries << '\n'
       << "mutateDropBsInsert " << cfg.mutateDropBsInsert << '\n'
       << "seed " << cfg.seed << '\n';

    ConfigKey key;
    key.canonical = os.str();
    key.digest = sha256Hex(key.canonical);
    return key;
}

} // namespace asf::service

/**
 * Canonical configuration identity (src/service/config_key.cc). The
 * load-bearing property is *sensitivity*: every SystemConfig field,
 * the label, the extra run-identity string, and the binary fingerprint
 * must each move the digest — a field the serialization forgets means
 * two distinct configurations alias one cache entry and a warm run
 * returns the wrong result. The field sweep below fails when a field
 * is added to SystemConfig without being added to makeConfigKey.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/config_key.hh"
#include "sys/config.hh"

using namespace asf;
using namespace asf::service;

namespace
{

bool
isHexDigest(const std::string &s)
{
    if (s.size() != 64)
        return false;
    for (char c : s)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

/** One named mutation per SystemConfig field makeConfigKey covers. */
std::vector<std::pair<std::string, std::function<void(SystemConfig &)>>>
fieldMutations()
{
    using F = std::function<void(SystemConfig &)>;
    std::vector<std::pair<std::string, F>> m;
    auto add = [&](const char *name, F f) { m.emplace_back(name, f); };
    add("numCores", [](SystemConfig &c) { c.numCores = 16; });
    add("design", [](SystemConfig &c) { c.design = FenceDesign::Wee; });
    add("memoryModel",
        [](SystemConfig &c) { c.memoryModel = MemoryModel::RC; });
    add("storeUnits", [](SystemConfig &c) { c.storeUnits = 2; });
    add("issueWidth", [](SystemConfig &c) { c.issueWidth = 2; });
    add("robEntries", [](SystemConfig &c) { c.robEntries = 64; });
    add("wbEntries", [](SystemConfig &c) { c.wbEntries = 32; });
    add("l1SizeBytes", [](SystemConfig &c) { c.l1SizeBytes = 16384; });
    add("l1Assoc", [](SystemConfig &c) { c.l1Assoc = 8; });
    add("l1HitLatency", [](SystemConfig &c) { c.l1HitLatency = 3; });
    add("l2BankSizeBytes",
        [](SystemConfig &c) { c.l2BankSizeBytes = 65536; });
    add("l2Assoc", [](SystemConfig &c) { c.l2Assoc = 4; });
    add("l2HitLatency", [](SystemConfig &c) { c.l2HitLatency = 13; });
    add("memLatency", [](SystemConfig &c) { c.memLatency = 250; });
    add("dirLookupLatency",
        [](SystemConfig &c) { c.dirLookupLatency = 8; });
    add("hopLatency", [](SystemConfig &c) { c.hopLatency = 7; });
    add("linkBytes", [](SystemConfig &c) { c.linkBytes = 16; });
    add("bsEntries", [](SystemConfig &c) { c.bsEntries = 16; });
    add("retryBackoffBase",
        [](SystemConfig &c) { c.retryBackoffBase = 32; });
    add("retryBackoffStep",
        [](SystemConfig &c) { c.retryBackoffStep = 4; });
    add("retryBackoffMax",
        [](SystemConfig &c) { c.retryBackoffMax = 128; });
    add("wPlusTimeout", [](SystemConfig &c) { c.wPlusTimeout = 500; });
    add("weeTimeout", [](SystemConfig &c) { c.weeTimeout = 1000; });
    add("grtRecheckInterval",
        [](SystemConfig &c) { c.grtRecheckInterval = 60; });
    add("weePrivateFiltering",
        [](SystemConfig &c) { c.weePrivateFiltering = false; });
    add("storeDrainLatency",
        [](SystemConfig &c) { c.storeDrainLatency = 4; });
    add("fastForward", [](SystemConfig &c) { c.fastForward = false; });
    add("watchdogCycles",
        [](SystemConfig &c) { c.watchdogCycles = 12345; });
    add("fenceProfile", [](SystemConfig &c) { c.fenceProfile = false; });
    add("fenceProfileRaw",
        [](SystemConfig &c) { c.fenceProfileRaw = true; });
    add("checkExecution",
        [](SystemConfig &c) { c.checkExecution = true; });
    add("statsInterval", [](SystemConfig &c) { c.statsInterval = 500; });
    add("statsIntervalRing",
        [](SystemConfig &c) { c.statsIntervalRing = 64; });
    add("hotLineTracking",
        [](SystemConfig &c) { c.hotLineTracking = false; });
    add("hotLineEntries",
        [](SystemConfig &c) { c.hotLineEntries = 128; });
    add("mutateDropBsInsert",
        [](SystemConfig &c) { c.mutateDropBsInsert = true; });
    add("seed", [](SystemConfig &c) { c.seed = 42; });
    return m;
}

} // namespace

TEST(ConfigKey, DeterministicWellFormedDigest)
{
    SystemConfig cfg;
    ConfigKey a = makeConfigKey(cfg, "ustm:Hash/W+/8c", "budget 300000");
    ConfigKey b = makeConfigKey(cfg, "ustm:Hash/W+/8c", "budget 300000");
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(isHexDigest(a.digest));
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.canonical, b.canonical);
    EXPECT_EQ(a.shortDigest(), a.digest.substr(0, 16));
}

TEST(ConfigKey, EveryFieldMovesTheDigest)
{
    SystemConfig base;
    const std::string label = "sweep/label";
    ConfigKey baseline = makeConfigKey(base, label);

    // Each mutation must (a) change the digest vs the baseline and
    // (b) produce a digest distinct from every other mutation's —
    // i.e. the canonical form separates all single-field variants.
    std::map<std::string, std::string> by_digest;
    by_digest[baseline.digest] = "(baseline)";
    for (const auto &[name, mutate] : fieldMutations()) {
        SystemConfig cfg;
        mutate(cfg);
        ConfigKey key = makeConfigKey(cfg, label);
        auto [it, inserted] = by_digest.emplace(key.digest, name);
        EXPECT_TRUE(inserted)
            << "mutating '" << name << "' collides with '" << it->second
            << "' — makeConfigKey does not serialize it";
        // The canonical form must name the field so a surprising
        // miss can be explained with diff.
        EXPECT_NE(key.canonical.find(name), std::string::npos)
            << "canonical form does not mention '" << name << "'";
    }
}

TEST(ConfigKey, FieldSweepIsExhaustive)
{
    // The canonical serialization has one "name value" line per
    // covered field plus the fixed header (key-schema stamp,
    // fingerprint, label[, extra]). If someone adds a SystemConfig
    // field to makeConfigKey without adding a mutation above, the
    // line count moves and this test points at the gap.
    SystemConfig cfg;
    ConfigKey key = makeConfigKey(cfg, "x");
    size_t lines = 0;
    for (char c : key.canonical)
        lines += (c == '\n');
    EXPECT_EQ(lines, fieldMutations().size() + 3)
        << "makeConfigKey serializes a field the sweep in this test "
           "does not mutate (or vice versa)";
}

TEST(ConfigKey, LabelAndExtraAreIdentity)
{
    SystemConfig cfg;
    ConfigKey a = makeConfigKey(cfg, "ustm:Hash/W+/8c");
    ConfigKey b = makeConfigKey(cfg, "ustm:List/W+/8c");
    ConfigKey c = makeConfigKey(cfg, "ustm:Hash/W+/8c", "budget 1000");
    ConfigKey d = makeConfigKey(cfg, "ustm:Hash/W+/8c", "budget 2000");
    EXPECT_NE(a.digest, b.digest);
    EXPECT_NE(a.digest, c.digest);
    EXPECT_NE(c.digest, d.digest);
}

TEST(ConfigKey, BinaryFingerprintIsIdentity)
{
    SystemConfig cfg;
    ConfigKey before = makeConfigKey(cfg, "x");
    EXPECT_TRUE(isHexDigest(binaryFingerprint()));

    setBinaryFingerprintOverride("deadbeef-rebuilt");
    ConfigKey other = makeConfigKey(cfg, "x");
    setBinaryFingerprintOverride("");

    EXPECT_NE(before.digest, other.digest)
        << "a rebuilt binary must not hit the old binary's cache";
    EXPECT_EQ(makeConfigKey(cfg, "x").digest, before.digest);
}

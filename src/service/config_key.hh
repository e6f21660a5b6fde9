/**
 * @file
 * Canonical configuration identity. One experiment configuration — the
 * full SystemConfig, the workload/run identity (label + budget/knobs),
 * the key-schema version, and the producing binary's fingerprint — maps
 * to exactly one SHA-256 digest. That digest is the shared currency of
 * the campaign service: the result cache's object name, the heartbeat
 * JSONL's `configHash`, and the campaign completion record's identity
 * all come from here, so `sweep_status.py`, the cache, and the queue
 * always agree on what "the same configuration" means.
 *
 * This replaces the ad-hoc FNV-1a hash the heartbeat used to compute
 * from the one-line config summary (which ignored most tunables: two
 * configs differing only in, say, `wPlusTimeout` used to collide).
 */

#ifndef ASF_SERVICE_CONFIG_KEY_HH
#define ASF_SERVICE_CONFIG_KEY_HH

#include <string>

namespace asf
{
struct SystemConfig;
}

namespace asf::service
{

/** Bump when the canonical serialization below changes shape: old
 *  cache entries then miss instead of aliasing. */
inline constexpr unsigned kConfigKeySchemaVersion = 1;

struct ConfigKey
{
    /** Human-readable canonical serialization the digest covers (one
     *  `name value` line per field) — stored in cache manifests so a
     *  surprising hit or miss can be explained with `diff`. */
    std::string canonical;

    /** 64-hex-char SHA-256 of `canonical`. */
    std::string digest;

    bool valid() const { return !digest.empty(); }

    /** Leading 16 hex chars, for compact display. */
    std::string shortDigest() const { return digest.substr(0, 16); }
};

/**
 * Build the key for one run. `label` is the run label ("Hash/W+/8c");
 * `extra` carries run identity outside SystemConfig — the cycle budget,
 * and for synth runs the minimize option — one `name value` token per
 * item (the run engine in src/harness/experiment.cc composes it). The
 * workload's shape parameters (table sizes, task grain, transactions
 * per thread) are NOT covered: two runs that share a label and a budget
 * but shrink the workload differently share a key. The bench binaries
 * therefore file their --quick runs under `<cache-dir>/quick`.
 *
 * Every SystemConfig field participates except the host-side telemetry
 * plumbing (progressSink/progressInterval), which cannot change
 * simulated results or the stats document, and the one field nothing
 * reads (see sys/config.hh). The host fast-path switch (fastForward)
 * IS included: it is bit-identity-gated, but the cache takes no
 * chances — a differently-switched rerun is a miss, never a wrong hit.
 */
ConfigKey makeConfigKey(const SystemConfig &cfg, const std::string &label,
                        const std::string &extra = "");

/**
 * SHA-256 of this process's executable image (/proc/self/exe), cached
 * after the first call. Any rebuild — new code, new flags — changes the
 * fingerprint, so cached results can never leak across binaries.
 * Falls back to a constant tag when the image is unreadable.
 */
std::string binaryFingerprint();

/** Test hook: override (non-empty) or restore (empty) the fingerprint,
 *  e.g. to prove that a fingerprint change misses the cache. */
void setBinaryFingerprintOverride(const std::string &fp);

} // namespace asf::service

#endif // ASF_SERVICE_CONFIG_KEY_HH

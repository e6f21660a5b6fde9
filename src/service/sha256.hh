/**
 * @file
 * SHA-256 (FIPS 180-4), self-contained: the digest primitive of the
 * campaign service. Configuration keys, cached stats documents, and
 * the binary fingerprint all hash through here, so one configuration
 * maps to one 64-hex-character name everywhere — heartbeat JSONL,
 * cache object files, campaign completion records.
 *
 * Two compress kernels produce the same digests: a portable one, and
 * one built on the x86-64 SHA extensions. CPUID picks the second once
 * per process where the CPU has it; nothing else selects between
 * them.
 */

#ifndef ASF_SERVICE_SHA256_HH
#define ASF_SERVICE_SHA256_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace asf::service
{

/** Incremental SHA-256, for hashing large inputs (the binary
 *  fingerprint) without buffering them whole. */
class Sha256
{
  public:
    /** A compress kernel: folds `n` whole 64-byte blocks into the
     *  eight-word chaining state. */
    using Kernel = void (*)(uint32_t *state, const uint8_t *blocks,
                            size_t n);

    /** FIPS 180-4 §6.2.2, one block at a time: the fallback on CPUs
     *  without the SHA extensions and the tests' reference. */
    static void portableKernel(uint32_t *state, const uint8_t *blocks,
                               size_t n);

    /** The kernel built on the x86-64 SHA extensions, or null when
     *  this CPU (leaf 7 EBX bit 29, SSSE3, SSE4.1) or build lacks
     *  them. CPUID is read on the first call only. */
    static Kernel acceleratedKernel();

    /** Hashes with acceleratedKernel() where there is one, else with
     *  portableKernel. */
    Sha256();

    /** Hashes with `kernel`, so the tests can run both on one input. */
    explicit Sha256(Kernel kernel);

    void update(const void *data, size_t len);
    void update(std::string_view s) { update(s.data(), s.size()); }

    /** Finalize and render the digest as 64 lowercase hex chars. The
     *  object must not be updated afterwards. */
    std::string finishHex();

  private:
    Kernel kernel_;
    uint32_t state_[8];
    uint64_t totalBytes_ = 0;
    uint8_t buf_[64];
    size_t bufLen_ = 0;
};

/** One-shot convenience: 64-hex-char SHA-256 of `s`. */
std::string sha256Hex(std::string_view s);

} // namespace asf::service

#endif // ASF_SERVICE_SHA256_HH

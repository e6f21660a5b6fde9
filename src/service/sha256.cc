#include "service/sha256.hh"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ASF_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace asf::service
{

namespace
{

alignas(16) constexpr uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t v, unsigned n)
{
    return (v >> n) | (v << (32 - n));
}

void
compress(uint32_t *state, const uint8_t *block)
{
    uint32_t w[64];
    for (unsigned i = 0; i < 16; i++)
        w[i] = uint32_t(block[4 * i]) << 24 |
               uint32_t(block[4 * i + 1]) << 16 |
               uint32_t(block[4 * i + 2]) << 8 |
               uint32_t(block[4 * i + 3]);
    for (unsigned i = 16; i < 64; i++) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                      (w[i - 15] >> 3);
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                      (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (unsigned i = 0; i < 64; i++) {
        uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
        uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

#ifdef ASF_SHA256_X86

/**
 * The SHA-extension kernel. The state lives in two registers in the
 * order sha256rnds2 wants, {a,b,e,f} and {c,d,g,h}, for the whole
 * call. Each round group adds four message words to four round
 * constants and runs two rnds2 (two rounds each); the message
 * schedule keeps the next sixteen words in four registers, replacing
 * the oldest four per group with sha256msg1/msg2. Loads are unaligned:
 * `blocks` is whatever buffer the caller handed to update().
 */
__attribute__((target("sha,ssse3,sse4.1"))) void
compressShaExt(uint32_t *state, const uint8_t *blocks, size_t n)
{
    const __m128i byteswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    __m128i dcba = _mm_loadu_si128(reinterpret_cast<__m128i *>(state));
    __m128i hgfe = _mm_loadu_si128(reinterpret_cast<__m128i *>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; n; n--, blocks += 64) {
        const __m128i abef0 = abef, cdgh0 = cdgh;
        __m128i w[4];
        for (unsigned i = 0; i < 4; i++)
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(blocks + 16 * i)),
                byteswap);
#pragma GCC unroll 16
        for (unsigned g = 0; g < 16; g++) {
            __m128i wk = _mm_add_epi32(
                w[g % 4], _mm_load_si128(reinterpret_cast<const __m128i *>(
                              kRound + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0e));
            if (g < 12) {
                // W[4g+16..4g+19] from W[4g..4g+15], into the slot of
                // the four words just consumed.
                __m128i t = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
                t = _mm_add_epi32(
                    t, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
                w[g % 4] = _mm_sha256msg2_epu32(t, w[(g + 3) % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

bool
cpuHasShaExtensions()
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d))
        return false;
    bool ssse3 = c & bit_SSSE3, sse41 = c & bit_SSE4_1;
    // Leaf 7, subleaf 0, EBX bit 29; false where leaf 7 is missing.
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
        return false;
    return ssse3 && sse41 && (b & bit_SHA);
}

#endif // ASF_SHA256_X86

} // namespace

void
Sha256::portableKernel(uint32_t *state, const uint8_t *blocks, size_t n)
{
    for (; n; n--, blocks += 64)
        compress(state, blocks);
}

Sha256::Kernel
Sha256::acceleratedKernel()
{
#ifdef ASF_SHA256_X86
    // Thread-safe once-only initialisation: campaign workers may race
    // to the first hash.
    static const Kernel kernel =
        cpuHasShaExtensions() ? compressShaExt : nullptr;
    return kernel;
#else
    return nullptr;
#endif
}

Sha256::Sha256()
    : Sha256(acceleratedKernel() ? acceleratedKernel() : portableKernel)
{
}

Sha256::Sha256(Kernel kernel) : kernel_(kernel)
{
    static constexpr uint32_t init[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
    };
    std::memcpy(state_, init, sizeof(state_));
}

void
Sha256::update(const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    totalBytes_ += len;
    if (bufLen_) {
        size_t take = std::min(len, sizeof(buf_) - bufLen_);
        std::memcpy(buf_ + bufLen_, p, take);
        bufLen_ += take;
        p += take;
        len -= take;
        if (bufLen_ < sizeof(buf_))
            return;
        kernel_(state_, buf_, 1);
        bufLen_ = 0;
    }
    // Every whole block in one call, so the accelerated kernel keeps
    // the state in registers across a large read.
    size_t whole = len / sizeof(buf_);
    if (whole) {
        kernel_(state_, p, whole);
        p += whole * sizeof(buf_);
        len -= whole * sizeof(buf_);
    }
    if (len) {
        std::memcpy(buf_, p, len);
        bufLen_ = len;
    }
}

std::string
Sha256::finishHex()
{
    // FIPS 180-4 §5.1.1: 0x80, zeros to 56 mod 64, then the message
    // length in bits, big-endian; a second block when the tail leaves
    // no room for the length.
    uint64_t bits = totalBytes_ * 8;
    buf_[bufLen_++] = 0x80;
    if (bufLen_ > 56) {
        std::memset(buf_ + bufLen_, 0, sizeof(buf_) - bufLen_);
        kernel_(state_, buf_, 1);
        bufLen_ = 0;
    }
    std::memset(buf_ + bufLen_, 0, 56 - bufLen_);
    for (unsigned i = 0; i < 8; i++)
        buf_[56 + i] = uint8_t(bits >> (56 - 8 * i));
    kernel_(state_, buf_, 1);
    bufLen_ = 0;

    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (uint32_t word : state_)
        for (int shift = 28; shift >= 0; shift -= 4)
            out += hex[(word >> shift) & 0xf];
    return out;
}

std::string
sha256Hex(std::string_view s)
{
    Sha256 h;
    h.update(s);
    return h.finishHex();
}

} // namespace asf::service

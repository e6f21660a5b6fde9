/**
 * SHA-256 (src/service/sha256.cc) against known answers. Every config
 * key, cache object name and binary fingerprint is one of these
 * digests, so a wrong one would silently rename the whole result
 * cache. The portable kernel is the reference: the FIPS 180-4 vectors
 * pin it, and the SHA-extension kernel must agree with it on every
 * input length and on unaligned buffers. On a CPU without the
 * extensions the comparison skips and says so.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/sha256.hh"
#include "sim/rng.hh"

using namespace asf;
using namespace asf::service;

namespace
{

std::string
digest(Sha256::Kernel kernel, std::string_view s)
{
    Sha256 h(kernel);
    h.update(s);
    return h.finishHex();
}

std::string
randomBytes(Rng &rng, size_t n)
{
    std::string s(n, '\0');
    for (char &c : s)
        c = char(rng.next());
    return s;
}

/** The kernels a test should check: the portable one, plus the
 *  accelerated one when this CPU has it. */
std::vector<Sha256::Kernel>
kernels()
{
    std::vector<Sha256::Kernel> k{Sha256::portableKernel};
    if (Sha256::Kernel fast = Sha256::acceleratedKernel())
        k.push_back(fast);
    return k;
}

const char *kMillionA =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

} // namespace

TEST(Sha256, Fips180Vectors)
{
    for (Sha256::Kernel k : kernels()) {
        EXPECT_EQ(digest(k, ""), "e3b0c44298fc1c149afbf4c8996fb924"
                                 "27ae41e4649b934ca495991b7852b855");
        EXPECT_EQ(digest(k, "abc"), "ba7816bf8f01cfea414140de5dae2223"
                                    "b00361a396177a9cb410ff61f20015ad");
        // 448 bits: the padding spills into a second block.
        EXPECT_EQ(digest(k, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmn"
                            "lmnomnopnopq"),
                  "248d6a61d20638b8e5c026930c3e6039"
                  "a33ce45964ff2167f6ecedd419db06c1");

        // One million 'a', in chunks of 1..199 bytes: buffered
        // partial blocks, exact fills and multi-block runs all occur.
        std::string a(1000000, 'a');
        Sha256 h(k);
        size_t off = 0;
        for (size_t chunk = 1; off < a.size(); chunk = chunk % 199 + 1) {
            size_t n = std::min(chunk, a.size() - off);
            h.update(a.data() + off, n);
            off += n;
        }
        EXPECT_EQ(h.finishHex(), kMillionA);
    }
    EXPECT_EQ(sha256Hex("abc"), digest(Sha256::portableKernel, "abc"));
}

TEST(Sha256, EveryTwoWaySplitMatchesOneShot)
{
    Rng rng(300);
    std::string msg = randomBytes(rng, 300);
    for (Sha256::Kernel k : kernels()) {
        std::string whole = digest(k, msg);
        for (size_t cut = 0; cut <= msg.size(); cut++) {
            Sha256 h(k);
            h.update(msg.data(), cut);
            h.update(msg.data() + cut, msg.size() - cut);
            EXPECT_EQ(h.finishHex(), whole) << "split at " << cut;
        }
    }
}

TEST(Sha256, AcceleratedKernelMatchesPortable)
{
    Sha256::Kernel fast = Sha256::acceleratedKernel();
    if (!fast)
        GTEST_SKIP() << "this CPU lacks the SHA extensions; only the "
                        "portable kernel runs here";

    Rng rng(20151);
    for (size_t len = 0; len <= 1100; len++) {
        std::string s = randomBytes(rng, len);
        ASSERT_EQ(digest(fast, s), digest(Sha256::portableKernel, s))
            << "length " << len;
    }

    // Straight from the caller's buffer at every alignment mod 16.
    std::string run = randomBytes(rng, 64 * 1024 + 16);
    for (size_t skew = 0; skew < 16; skew++) {
        const auto *p =
            reinterpret_cast<const uint8_t *>(run.data()) + skew;
        uint32_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        uint32_t b[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        Sha256::portableKernel(a, p, 1024);
        fast(b, p, 1024);
        ASSERT_TRUE(std::equal(a, a + 8, b)) << "skew " << skew;
    }

    // Several MB in one call, as a large read of the binary does.
    std::string big = randomBytes(rng, 5 << 20);
    EXPECT_EQ(digest(fast, big), digest(Sha256::portableKernel, big));
}

TEST(Sha256, TwoThreadsHashOnFirstUse)
{
    // Each test runs in its own process under ctest, so neither thread
    // finds the kernel choice made: both race to make it.
    std::atomic<bool> go{false};
    std::string out[2];
    auto work = [&](int i) {
        while (!go.load())
            std::this_thread::yield();
        Sha256 h;
        h.update(std::string(1000000, 'a'));
        out[i] = h.finishHex();
    };
    std::thread t0(work, 0), t1(work, 1);
    go = true;
    t0.join();
    t1.join();
    EXPECT_EQ(out[0], kMillionA);
    EXPECT_EQ(out[1], kMillionA);
}

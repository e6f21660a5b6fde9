#include "probe.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** A single random cycle over 2^21 entries (8 MB), built once. */
const std::vector<uint32_t> &
chain()
{
    static const std::vector<uint32_t> table = [] {
        const size_t n = size_t(1) << 21;
        std::vector<uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        uint64_t s = 1;
        for (size_t i = n - 1; i > 0; i--) {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(order[i], order[(s >> 33) % (i + 1)]);
        }
        std::vector<uint32_t> next(n);
        for (size_t i = 0; i < n; i++)
            next[order[i]] = order[(i + 1) % n];
        return next;
    }();
    return table;
}

uint64_t
work()
{
    const std::vector<uint32_t> &next = chain();
    uint64_t s = 7, h = 0;
    // Ordered map with short-string values: node allocation and
    // pointer-chasing lookups.
    std::map<uint64_t, std::string> ordered;
    for (int k = 0; k < 5000; k++) {
        s = s * 6364136223846793005ull + 1;
        ordered[s >> 40] = std::to_string(s & 0xffff);
        if (k % 3 == 0) {
            auto it = ordered.lower_bound(s >> 41);
            if (it != ordered.end()) {
                h += it->first;
                ordered.erase(it);
            }
        }
    }
    // Hash-map updates, a growing and shrinking vector, and random
    // reads over the large table.
    std::unordered_map<uint32_t, uint32_t> hashed;
    std::vector<uint32_t> stack;
    for (int k = 0; k < 10000; k++) {
        s = s * 6364136223846793005ull + 1;
        uint32_t x = uint32_t(s >> 33);
        hashed[x & 0xffff] += x;
        if (x & 1) {
            stack.push_back(x);
        } else if (!stack.empty()) {
            h += stack.back();
            stack.pop_back();
        }
        if ((x & 7) == 3)
            h += next[x & (next.size() - 1)];
    }
    return h + ordered.size() + hashed.size();
}

double
probeSeconds()
{
    // An untimed first round brings the probe's own data back into the
    // caches, so the timed round does not depend on how much of them the
    // preceding simulator job used.
    volatile uint64_t warm = work();
    (void)warm;
    auto t0 = std::chrono::steady_clock::now();
    volatile uint64_t sink = work();
    (void)sink;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

void
probe(unsigned n, std::vector<double> &out, unsigned threads)
{
    chain(); // built once, before any thread times a round
    for (unsigned i = 0; i < n; i++) {
        std::vector<double> t(std::max(1u, threads));
        std::vector<std::jthread> pool;
        for (size_t k = 1; k < t.size(); k++)
            pool.emplace_back([&t, k] { t[k] = probeSeconds(); });
        t[0] = probeSeconds();
        for (std::jthread &th : pool)
            th.join();
        out.push_back(std::accumulate(t.begin(), t.end(), 0.0) /
                      double(t.size()));
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
speedFactor(const std::vector<double> &samples)
{
    double here = median(samples);
    return here > 0.0 ? kReferenceProbeS / here : 1.0;
}

} // namespace perfbench

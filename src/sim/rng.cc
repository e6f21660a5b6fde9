#include "sim/rng.hh"

#include "sim/logging.hh"

namespace asf
{

uint64_t
xorshiftStep(uint64_t x)
{
    if (x == 0)
        x = 0x9e3779b97f4a7c15ULL;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x;
}

Rng::Rng(uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(uint64_t s)
{
    state_ = s ? s : 0x9e3779b97f4a7c15ULL;
}

uint64_t
Rng::next()
{
    state_ = xorshiftStep(state_);
    return state_ * 0x2545f4914f6cdd1dULL;
}

uint64_t
Rng::range(uint64_t bound)
{
    if (bound == 0)
        panic("Rng::range with zero bound");
    // Lemire's multiply-shift with rejection: `next() % bound` is biased
    // towards low values whenever bound does not divide 2^64. Map the
    // draw to [0, bound) through a 128-bit multiply and redraw the (at
    // most bound out of 2^64) values that land in the short interval.
    uint64_t x = next();
    __uint128_t m = __uint128_t(x) * bound;
    uint64_t low = uint64_t(m);
    if (low < bound) {
        uint64_t threshold = (0 - bound) % bound;
        while (low < threshold) {
            x = next();
            m = __uint128_t(x) * bound;
            low = uint64_t(m);
        }
    }
    return uint64_t(m >> 64);
}

uint64_t
Rng::between(uint64_t lo, uint64_t hi)
{
    if (lo > hi)
        panic("Rng::between with lo > hi");
    uint64_t span = hi - lo + 1;
    if (span == 0) // full [0, 2^64) range: hi - lo + 1 wrapped
        return next();
    return lo + range(span);
}

double
Rng::uniform()
{
    // 53 random bits into the mantissa.
    return (next() >> 11) * (1.0 / 9007199254740992.0);
}

} // namespace asf

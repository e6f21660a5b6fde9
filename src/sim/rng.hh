/**
 * @file
 * Deterministic pseudo-random number generation. Every stochastic choice in
 * the simulator and in workload generators draws from an explicitly seeded
 * Rng so that runs are exactly reproducible.
 */

#ifndef ASF_SIM_RNG_HH
#define ASF_SIM_RNG_HH

#include <cstdint>

namespace asf
{

/**
 * xorshift64* generator. Small, fast, and good enough for workload
 * shuffling and backoff jitter; not for cryptography.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Re-seed the generator. A zero seed is remapped to a constant. */
    void seed(uint64_t s);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform in [0, bound). bound must be > 0. */
    uint64_t range(uint64_t bound);

    /** Uniform in [lo, hi] inclusive. */
    uint64_t between(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

  private:
    uint64_t state_;
};

/**
 * The single xorshift step used both by Rng and by the guest-visible RAND
 * instruction, so guest programs and host generators share one definition.
 */
uint64_t xorshiftStep(uint64_t x);

} // namespace asf

#endif // ASF_SIM_RNG_HH

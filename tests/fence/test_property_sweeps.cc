/**
 * Property-based sweeps: randomly generated fence-disciplined concurrent
 * programs must, under EVERY fence design,
 *   - run to completion (no deadlock, no protocol hang),
 *   - never fabricate values (token integrity),
 *   - leave exactly the program-order-final value in single-writer
 *     locations,
 *   - be bit-for-bit deterministic for a fixed seed.
 * The sweep crosses all five designs with several seeds and both padded
 * and packed (false-sharing) layouts.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "../helpers.hh"
#include "prog/fuzz.hh"

using namespace asf;
using namespace asf::test;

namespace
{

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// gtest_discover_tests puts that printout into every ctest name. The
// padding is spelled out and zeroed so the names are the same in every
// build; left implicit, it would hold whatever the heap held before.
struct SweepParam
{
    FenceDesign design;
    uint8_t pad0[7] = {};
    uint64_t seed;
    bool packed;
    uint8_t pad1[7] = {};
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

std::string
paramName(const ::testing::TestParamInfo<SweepParam> &info)
{
    std::string n = fenceDesignName(info.param.design);
    for (auto &c : n)
        if (c == '+')
            c = 'p';
    return n + "_seed" + std::to_string(info.param.seed) +
           (info.param.packed ? "_packed" : "_padded");
}

std::vector<SweepParam>
allParams()
{
    std::vector<SweepParam> out;
    for (FenceDesign d : allFenceDesigns)
        for (uint64_t seed : {11ull, 22ull, 33ull})
            for (bool packed : {false, true})
                out.push_back({.design = d, .seed = seed, .packed = packed});
    return out;
}

class FuzzSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    FuzzConfig
    baseConfig() const
    {
        FuzzConfig cfg;
        cfg.numThreads = 4;
        cfg.numLocations = 8;
        cfg.rounds = 10;
        cfg.seed = GetParam().seed;
        cfg.packLocations = GetParam().packed;
        return cfg;
    }

    System
    makeSystem() const
    {
        SystemConfig sc;
        sc.numCores = 4;
        sc.design = GetParam().design;
        return System(sc);
    }

    void
    load(System &sys, const FuzzSetup &setup)
    {
        for (unsigned t = 0; t < setup.cfg.numThreads; t++)
            sys.loadProgram(NodeId(t),
                            share(Program(setup.programs[t])));
    }
};

} // namespace

TEST_P(FuzzSweep, CompletesWithTokenIntegrity)
{
    FuzzSetup setup = buildFuzz(baseConfig());
    System sys = makeSystem();
    load(sys, setup);
    ASSERT_EQ(sys.run(5'000'000), System::RunResult::AllDone)
        << "fuzz program hung";
    for (unsigned loc = 0; loc < setup.cfg.numLocations; loc++) {
        uint64_t v = sys.debugReadWord(setup.locAddr(loc));
        EXPECT_TRUE(FuzzSetup::tokenValid(v, setup.cfg.numThreads))
            << "fabricated value " << v << " at location " << loc;
    }
    // Every thread performed all its loads.
    for (unsigned t = 0; t < setup.cfg.numThreads; t++)
        EXPECT_GT(sys.debugReadWord(setup.loadCountAddr(t)), 0u);
}

TEST_P(FuzzSweep, SingleWriterFinalStateExact)
{
    FuzzConfig cfg = baseConfig();
    cfg.singleWriterPerLoc = true;
    FuzzSetup setup = buildFuzz(cfg);
    System sys = makeSystem();
    load(sys, setup);
    ASSERT_EQ(sys.run(5'000'000), System::RunResult::AllDone);
    for (unsigned loc = 0; loc < cfg.numLocations; loc++)
        EXPECT_EQ(sys.debugReadWord(setup.locAddr(loc)),
                  setup.expectedFinal[loc])
            << "wrong final value at single-writer location " << loc;
}

TEST_P(FuzzSweep, DeterministicChecksums)
{
    auto run_once = [&](std::vector<uint64_t> &sums) {
        FuzzSetup setup = buildFuzz(baseConfig());
        System sys = makeSystem();
        load(sys, setup);
        ASSERT_EQ(sys.run(5'000'000), System::RunResult::AllDone);
        for (unsigned t = 0; t < setup.cfg.numThreads; t++)
            sums.push_back(sys.debugReadWord(setup.checksumAddr(t)));
    };
    std::vector<uint64_t> first, second;
    run_once(first);
    run_once(second);
    EXPECT_EQ(first, second) << "simulation is nondeterministic";
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzSweep,
                         ::testing::ValuesIn(allParams()), paramName);

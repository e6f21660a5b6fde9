/**
 * The checker against the fuzz harness: randomly generated
 * fence-disciplined programs (every shared store separated from every
 * subsequent shared load by a fence — the full Shasha-Snir delay set)
 * must be SC-equivalent under EVERY fence design, so the recorded
 * executions are verified with `requireSc` — the strictest mode.
 * 5 designs x 4 seeds = 20 executions, with atomic (XCHG) rounds
 * enabled to cover the RMW capture path.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "../helpers.hh"
#include "check/axioms.hh"
#include "prog/fuzz.hh"

using namespace asf;
using namespace asf::test;

namespace
{

// Explicit zeroed padding keeps gtest's byte printout of the
// parameter, and so every discovered ctest name, the same in every
// build (see SweepParam in fence/test_property_sweeps.cc).
struct CheckSweepParam
{
    FenceDesign design;
    uint8_t pad[7] = {};
    uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<CheckSweepParam>);

std::string
paramName(const ::testing::TestParamInfo<CheckSweepParam> &info)
{
    std::string n = fenceDesignName(info.param.design);
    for (auto &c : n)
        if (c == '+')
            c = 'p';
    return n + "_seed" + std::to_string(info.param.seed);
}

std::vector<CheckSweepParam>
allParams()
{
    std::vector<CheckSweepParam> out;
    for (FenceDesign d : allFenceDesigns)
        for (uint64_t seed : {101ull, 202ull, 303ull, 404ull})
            out.push_back({.design = d, .seed = seed});
    return out;
}

class CheckedFuzzSweep : public ::testing::TestWithParam<CheckSweepParam>
{
};

} // namespace

TEST_P(CheckedFuzzSweep, ScEquivalenceHolds)
{
    FuzzConfig cfg;
    cfg.numThreads = 4;
    cfg.numLocations = 8;
    cfg.rounds = 8;
    cfg.maxRmwsPerRound = 2;
    cfg.seed = GetParam().seed;
    FuzzSetup setup = buildFuzz(cfg);

    SystemConfig sc;
    sc.numCores = 4;
    sc.design = GetParam().design;
    sc.checkExecution = true;
    System sys(sc);
    for (unsigned t = 0; t < cfg.numThreads; t++)
        sys.loadProgram(NodeId(t), share(Program(setup.programs[t])));
    ASSERT_EQ(sys.run(5'000'000), System::RunResult::AllDone)
        << "fuzz program hung";

    const check::ExecutionRecorder *rec = sys.executionRecorder();
    ASSERT_NE(rec, nullptr);
    // Coverage sanity: the run exercised every event class and both
    // merge paths matter (everything drained => every store stamped).
    EXPECT_GT(rec->loadsCaptured(), 0u);
    EXPECT_GT(rec->storesCaptured(), 0u);
    EXPECT_GT(rec->rmwsCaptured(), 0u);
    EXPECT_GT(rec->fencesCaptured(), 0u);
    EXPECT_EQ(rec->mergesCaptured(),
              rec->storesCaptured() + rec->rmwsCaptured());

    check::CheckResult r =
        check::checkExecution(*rec, {/*requireSc=*/true});
    EXPECT_EQ(r.verdict, check::Verdict::Pass)
        << "checker " << check::verdictName(r.verdict) << ": "
        << r.reason;
    EXPECT_TRUE(r.scChecked);
    // Unique tokens mean every read is conclusively attributed.
    EXPECT_EQ(r.ambiguousReads, 0u);
    EXPECT_GT(r.rfEdges + r.readsFromInit, 0u);
    EXPECT_GT(r.coEdges, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDesignsBySeeds, CheckedFuzzSweep,
                         ::testing::ValuesIn(allParams()), paramName);

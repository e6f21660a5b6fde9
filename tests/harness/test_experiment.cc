#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "../helpers.hh"
#include "harness/experiment.hh"
#include "service/result_cache.hh"
#include "sim/trace.hh"

using namespace asf;
using namespace asf::harness;
using namespace asf::workloads;
using asf::test::TempDir;

namespace
{

/** One run's result and stats document, into a cold cache of its
 *  own (so a config digest is computed and nothing is served). */
struct Captured
{
    ExperimentResult r;
    std::string doc;
};

template <class Run>
Captured
runCold(const char *tag, Run run)
{
    TempDir tmp(tag);
    service::ResultCache cache(tmp.path);
    service::ScopedActiveCache bind(&cache);
    std::vector<std::string> docs;
    ScopedRunCapture capture(docs);
    Captured c{run(), ""};
    EXPECT_FALSE(c.r.cacheHit);
    EXPECT_EQ(docs.size(), 1u);
    if (!docs.empty())
        c.doc = docs[0];
    return c;
}

SystemConfig
machine(FenceDesign design, unsigned cores)
{
    SystemConfig m;
    m.design = design;
    m.numCores = cores;
    return m;
}

void
expectSameRun(const Captured &a, const Captured &b)
{
    EXPECT_TRUE(a.r.valid) << a.r.validationError;
    EXPECT_FALSE(a.r.configDigest.empty());
    EXPECT_EQ(a.r.configDigest, b.r.configDigest);
    EXPECT_EQ(a.doc, b.doc);
}

} // namespace

TEST(Experiment, CilkRunValidates)
{
    CilkApp app = cilkAppByName("fib");
    app.spawnDepth = 3;
    app.initialTasks = 1;
    ExperimentResult r =
        runCilkExperiment(app, FenceDesign::SPlus, 4, 10'000'000);
    EXPECT_TRUE(r.valid) << r.validationError;
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.tasks, 0u);
    EXPECT_GT(r.instrRetired, 0u);
    EXPECT_GT(r.breakdown.busy, 0u);
}

TEST(Experiment, UstmRunValidatesAndCommits)
{
    ExperimentResult r = runUstmExperiment(ustmBenchByName("Hash"),
                                           FenceDesign::WSPlus, 4, 60'000);
    EXPECT_TRUE(r.valid) << r.validationError;
    EXPECT_GT(r.commits, 0u);
    EXPECT_GT(r.throughputTxnPerKcycle(), 0.0);
}

TEST(Experiment, StampRunValidates)
{
    StampApp app = stampAppByName("kmeans");
    app.txnsPerThread = 10;
    ExperimentResult r =
        runStampExperiment(app, FenceDesign::WPlus, 4, 20'000'000);
    EXPECT_TRUE(r.valid) << r.validationError;
    EXPECT_EQ(r.commits, 40u);
}

TEST(Experiment, FenceCountsConsistentWithDesign)
{
    CilkApp app = cilkAppByName("fib");
    app.spawnDepth = 3;
    app.initialTasks = 1;
    auto splus = runCilkExperiment(app, FenceDesign::SPlus, 4);
    EXPECT_EQ(splus.fencesWeak, 0u);
    auto wplus = runCilkExperiment(app, FenceDesign::WPlus, 4);
    EXPECT_EQ(wplus.fencesStrong, 0u);
}

TEST(Experiment, StatsJsonAndTraceSinksCaptureARun)
{
    std::string stats_path =
        testing::TempDir() + "asf_experiment_stats.json";
    std::string trace_path =
        testing::TempDir() + "asf_experiment_trace.json";
    Trace::get().resetForTest();
    setStatsJsonPath(stats_path);
    setTracePath(trace_path);

    ExperimentResult r = runUstmExperiment(ustmBenchByName("Hash"),
                                           FenceDesign::WPlus, 4, 30'000);
    EXPECT_TRUE(r.valid) << r.validationError;
    Trace::get().flush();

    // Detach the global sinks before anything can fail, so later tests
    // are unaffected.
    setStatsJsonPath("");
    Trace::get().resetForTest();

    auto slurp = [](const std::string &path) {
        std::ifstream f(path);
        std::ostringstream os;
        os << f.rdbuf();
        return os.str();
    };

    std::string stats = slurp(stats_path);
    EXPECT_NE(stats.find("\"schemaVersion\":4"), std::string::npos);
    EXPECT_NE(stats.find("\"workload\":\"Hash\""), std::string::npos);
    EXPECT_NE(stats.find("\"cpiStack\":"), std::string::npos);
    EXPECT_NE(stats.find("\"fenceProfile\":"), std::string::npos);
    EXPECT_NE(stats.find("\"watchdog\":"), std::string::npos);
    EXPECT_NE(stats.find("\"design\":\"W+\""), std::string::npos);
    EXPECT_NE(stats.find("\"groups\":["), std::string::npos);
    EXPECT_NE(stats.find("\"fenceStallCycles\""), std::string::npos);
    EXPECT_NE(stats.find("\"wbOccupancy\""), std::string::npos);
    EXPECT_NE(stats.find("\"noc\":"), std::string::npos);
    EXPECT_NE(stats.find("\"links\":["), std::string::npos);

    std::string trace = slurp(trace_path);
    EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(trace.find("Hash/W+/4c"), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"fence\""), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"noc\""), std::string::npos);
}

TEST(Experiment, DerivedMetricsSane)
{
    ExperimentResult r;
    r.cycles = 1000;
    r.commits = 5;
    r.instrRetired = 2000;
    r.bytesBase = 100;
    r.bytesRetry = 5;
    EXPECT_DOUBLE_EQ(r.throughputTxnPerKcycle(), 5.0);
    EXPECT_DOUBLE_EQ(r.trafficOverheadPct(), 5.0);
    EXPECT_DOUBLE_EQ(r.fencesPer1000Instr(4), 2.0);
}

// The machine overloads with a default machine are the (design, cores)
// forms: same config key, same document.
TEST(Experiment, CilkMachineOverloadMatchesDesignCoresForm)
{
    CilkApp app = cilkAppByName("fib");
    app.spawnDepth = 3;
    app.initialTasks = 1;
    expectSameRun(runCold("cilk_dc",
                          [&] {
                              return runCilkExperiment(
                                  app, FenceDesign::WPlus, 4, 10'000'000);
                          }),
                  runCold("cilk_m", [&] {
                      return runCilkExperiment(
                          app, machine(FenceDesign::WPlus, 4), 10'000'000);
                  }));
}

TEST(Experiment, UstmMachineOverloadMatchesDesignCoresForm)
{
    const TlrwBench &bench = ustmBenchByName("Hash");
    expectSameRun(runCold("ustm_dc",
                          [&] {
                              return runUstmExperiment(
                                  bench, FenceDesign::Wee, 4, 30'000);
                          }),
                  runCold("ustm_m", [&] {
                      return runUstmExperiment(
                          bench, machine(FenceDesign::Wee, 4), 30'000);
                  }));
}

TEST(Experiment, StampMachineOverloadMatchesDesignCoresForm)
{
    StampApp app = stampAppByName("kmeans");
    app.txnsPerThread = 10;
    expectSameRun(runCold("stamp_dc",
                          [&] {
                              return runStampExperiment(
                                  app, FenceDesign::WSPlus, 4, 20'000'000);
                          }),
                  runCold("stamp_m", [&] {
                      return runStampExperiment(
                          app, machine(FenceDesign::WSPlus, 4),
                          20'000'000);
                  }));
}

// An ablation machine is its own configuration: stored cold, served
// warm byte-identical, bsFullHolds carried by the manifest.
TEST(Experiment, AblationMachineRoundTripsThroughTheCache)
{
    const TlrwBench &bench = ustmBenchByName("ReadNWrite1");
    SystemConfig small_bs = machine(FenceDesign::WPlus, 8);
    small_bs.bsEntries = 4;

    TempDir tmp("ablation_cache");
    service::ResultCache cache(tmp.path);
    service::ScopedActiveCache bind(&cache);
    auto run = [&](const SystemConfig &m) {
        std::vector<std::string> docs;
        ScopedRunCapture capture(docs);
        Captured c{runUstmExperiment(bench, m, 30'000), ""};
        EXPECT_EQ(docs.size(), 1u);
        if (!docs.empty())
            c.doc = docs[0];
        return c;
    };
    Captured cold = run(small_bs);
    Captured warm = run(small_bs);
    EXPECT_TRUE(cold.r.valid) << cold.r.validationError;
    EXPECT_FALSE(cold.r.cacheHit);
    EXPECT_TRUE(warm.r.cacheHit);
    EXPECT_GT(cold.r.bsFullHolds, 0u);
    EXPECT_EQ(warm.r.bsFullHolds, cold.r.bsFullHolds);
    EXPECT_EQ(warm.doc, cold.doc);
    EXPECT_EQ(warm.r.configDigest, cold.r.configDigest);
    // The stats document's own fields stay as they were: the count is
    // only in the system block's per-core counters.
    size_t metrics = cold.doc.find("\"metrics\":{");
    ASSERT_NE(metrics, std::string::npos);
    std::string own = cold.doc.substr(0, cold.doc.find('}', metrics));
    EXPECT_EQ(own.find("bsFullHolds"), std::string::npos);

    Captured plain = run(machine(FenceDesign::WPlus, 8));
    EXPECT_FALSE(plain.r.cacheHit);
    EXPECT_NE(plain.r.configDigest, cold.r.configDigest);
}

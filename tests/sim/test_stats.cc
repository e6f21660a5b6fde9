#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/stats.hh"

using namespace asf;

TEST(StatScalar, IncrementAndReset)
{
    StatScalar s;
    EXPECT_EQ(s.value(), 0u);
    s.inc();
    s.inc(41);
    EXPECT_EQ(s.value(), 42u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(StatAverage, MeanOfSamples)
{
    StatAverage a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(StatHistogram, BucketsAndOverflow)
{
    StatHistogram h(4, 10.0);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(15.0);
    h.sample(100.0); // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(StatAverage, EmptyIsSafe)
{
    StatAverage a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0); // no divide-by-zero
}

TEST(StatHistogram, EmptyIsSafe)
{
    StatHistogram h(4, 10.0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(StatHistogram, PercentileInterpolatesBuckets)
{
    // One sample per integer 0..99 with unit buckets: the p-quantile of
    // the bucketed distribution lands at 100p exactly.
    StatHistogram h(100, 1.0);
    for (int i = 0; i < 100; i++)
        h.sample(double(i));
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.9), 90.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0); // first sample's bucket
    // Out-of-domain p is clamped.
    EXPECT_DOUBLE_EQ(h.percentile(1.5), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), 1.0);
}

TEST(StatHistogram, PercentileWithinSingleBucket)
{
    StatHistogram h(4, 1.0);
    for (int i = 0; i < 10; i++)
        h.sample(0.25);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.5); // half-way into bucket 0
}

TEST(StatHistogram, PercentileInOverflowReportsMax)
{
    StatHistogram h(2, 1.0);
    h.sample(10.0);
    h.sample(12.0);
    h.sample(14.0);
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 14.0);
}

TEST(StatGroup, HistogramGeometryFixedOnFirstUse)
{
    StatGroup g("test");
    StatHistogram &h = g.histogram("occ", 8, 2.0);
    h.sample(3.0);
    // A later lookup with different (ignored) geometry returns the same
    // histogram.
    EXPECT_EQ(&g.histogram("occ", 99, 99.0), &h);
    EXPECT_EQ(g.histogram("occ").numBuckets(), 8u);
    EXPECT_DOUBLE_EQ(g.histogram("occ").bucketWidth(), 2.0);
    EXPECT_EQ(g.histogram("occ").count(), 1u);
}

TEST(StatGroup, ResetAllClearsHistograms)
{
    StatGroup g("test");
    g.histogram("h", 4, 1.0).sample(2.5);
    g.histogram("h").sample(100.0);
    g.resetAll();
    EXPECT_EQ(g.histogram("h").count(), 0u);
    EXPECT_EQ(g.histogram("h").overflow(), 0u);
    EXPECT_DOUBLE_EQ(g.histogram("h").max(), 0.0);
    EXPECT_EQ(g.histogram("h").bucket(2), 0u);
}

TEST(StatGroup, ScalarsAreNamedAndSorted)
{
    StatGroup g("test");
    g.scalar("b").inc(2);
    g.scalar("a").inc(1);
    EXPECT_EQ(g.get("a"), 1u);
    EXPECT_EQ(g.get("b"), 2u);
    EXPECT_EQ(g.get("missing"), 0u);
    auto dump = g.dumpScalars();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "b");
}

TEST(StatGroup, ResetAllClearsEverything)
{
    StatGroup g("test");
    g.scalar("x").inc(5);
    g.average("y").sample(3.0);
    g.resetAll();
    EXPECT_EQ(g.get("x"), 0u);
    EXPECT_DOUBLE_EQ(g.getMean("y"), 0.0);
}

TEST(StatHistogram, SampleNByValueReproducesShuffledSamples)
{
    // Occupancy-style samples: small integers, some past the last
    // bucket. Charging the run length of each value through sampleN, in
    // ascending order, must give exactly the state of sampling the
    // values one by one in any order.
    const std::vector<uint64_t> runs = {0,   517, 3, 1200, 0, 41,
                                        999, 2,   7, 0,    64, 5};
    std::vector<double> values;
    for (size_t v = 0; v < runs.size(); v++)
        values.insert(values.end(), runs[v], double(v));
    std::shuffle(values.begin(), values.end(), std::mt19937_64(42));

    StatHistogram one_by_one(9, 1.0), by_value(9, 1.0);
    for (double v : values)
        one_by_one.sample(v);
    for (size_t v = 0; v < runs.size(); v++)
        by_value.sampleN(double(v), runs[v]);

    EXPECT_EQ(by_value.count(), one_by_one.count());
    EXPECT_EQ(by_value.sum(), one_by_one.sum());
    EXPECT_EQ(by_value.mean(), one_by_one.mean());
    EXPECT_EQ(by_value.max(), one_by_one.max());
    EXPECT_EQ(by_value.overflow(), one_by_one.overflow());
    EXPECT_GT(by_value.overflow(), 0u);
    for (unsigned i = 0; i < by_value.numBuckets(); i++)
        EXPECT_EQ(by_value.bucket(i), one_by_one.bucket(i)) << i;
    for (double p : {0.50, 0.90, 0.99})
        EXPECT_EQ(by_value.percentile(p), one_by_one.percentile(p)) << p;
}

TEST(LazyStat, RegistersOnFirstUpdate)
{
    StatGroup g("test");
    LazyStatScalar s(g, "s");
    LazyStatAverage a(g, "a");
    EXPECT_TRUE(g.scalars().empty());
    EXPECT_TRUE(g.averages().empty());
    s.inc(3);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_EQ(g.get("s"), 3u);
    EXPECT_EQ(g.average("a").count(), 2u);
    EXPECT_DOUBLE_EQ(g.getMean("a"), 3.0);
    // The handles survive a reset and keep charging the same stats.
    g.resetAll();
    s.inc();
    a.sample(1.0);
    EXPECT_EQ(g.get("s"), 1u);
    EXPECT_EQ(g.average("a").count(), 1u);
}

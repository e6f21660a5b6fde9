#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sim/trace.hh"

using namespace asf;

namespace
{

/** Restore the process-global sink around every test. */
struct TraceFixture : ::testing::Test
{
    void SetUp() override { Trace::get().resetForTest(); }
    void TearDown() override { Trace::get().resetForTest(); }

    /** One file per test: `ctest -j` runs the fixture's tests as
     *  concurrent processes. */
    std::string
    tmpPath() const
    {
        return testing::TempDir() + "asf_trace_" +
               testing::UnitTest::GetInstance()->current_test_info()->name() +
               ".json";
    }

    std::string
    slurp(const std::string &path) const
    {
        std::ifstream f(path);
        std::ostringstream os;
        os << f.rdbuf();
        return os.str();
    }
};

} // namespace

TEST_F(TraceFixture, DisabledByDefaultAndArgsNotEvaluated)
{
    EXPECT_FALSE(Trace::get().enabled());
    int evaluations = 0;
    auto tick = [&]() -> Tick {
        evaluations++;
        return 0;
    };
    ASF_TRACE(instant(tick(), 0, "test", "never"));
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(Trace::get().numEvents(), 0u);
}

TEST_F(TraceFixture, RecordsEventsWhenEnabled)
{
    Trace::get().open(tmpPath());
    EXPECT_TRUE(Trace::get().enabled());
    int evaluations = 0;
    auto tick = [&]() -> Tick {
        evaluations++;
        return 7;
    };
    ASF_TRACE(instant(tick(), 3, "test", "marker"));
    ASF_TRACE(complete(10, 5, 4, "test", "span", "{\"k\":1}"));
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(Trace::get().numEvents(), 2u);
}

TEST_F(TraceFixture, FlushWritesChromeTraceJson)
{
    std::string path = tmpPath();
    Trace &t = Trace::get();
    t.open(path);
    t.beginRun("run-one");
    t.threadName(3, "core3");
    t.complete(100, 25, 3, "fence", "W+", "{\"id\":1}");
    t.instant(130, 3, "wb", "drain");
    t.counter(140, 3, "occupancy", "{\"occupancy\":12}");
    t.flush();

    std::string out = slurp(path);
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"run-one\"}"), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    // The span carries ph X, its duration, and its args.
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"dur\":25"), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"id\":1}"), std::string::npos);
    // Instants are thread-scoped.
    EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
    // Counter sample present.
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    // Balanced: ends with the closing of traceEvents and the object.
    EXPECT_NE(out.find("]}"), std::string::npos);
}

TEST_F(TraceFixture, BeginRunSeparatesPids)
{
    std::string path = tmpPath();
    Trace &t = Trace::get();
    t.open(path);
    t.beginRun("a");
    t.instant(1, 0, "test", "in-a");
    t.beginRun("b");
    t.instant(2, 0, "test", "in-b");
    t.flush();

    std::string out = slurp(path);
    EXPECT_NE(out.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(out.find("\"pid\":2"), std::string::npos);
}

TEST_F(TraceFixture, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

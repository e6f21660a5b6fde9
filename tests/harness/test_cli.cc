#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "../helpers.hh"
#include "harness/cli.hh"
#include "harness/experiment.hh"

using namespace asf;
using namespace asf::harness;

namespace
{

/** Parse `args` (after a program name) into a fresh RunFlags; returns
 *  the parser's error ("" on success). */
std::string
parseRun(std::vector<std::string> args, RunFlags &out)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    Cli cli("usage: prog [options]");
    addRunFlags(cli, out);
    return cli.tryParse(int(argv.size()), argv.data());
}

/** Every run flag that takes a value, with a valid value. */
const std::vector<std::pair<std::string, std::string>> kValueFlags = {
    {"--jobs", "3"},
    {"--stats-json", "stats.json"},
    {"--stats-interval", "500"},
    {"--trace", "trace.json"},
    {"--fence-profile", "fences.jsonl"},
    {"--obs-dir", "obs"},
    {"--heartbeat", "hb.jsonl"},
    {"--watchdog-cycles", "7"},
    {"--cache-dir", "cache"},
};

} // namespace

TEST(Cli, SpaceAndEqualsFormsAgreeForEveryRunFlag)
{
    for (const auto &[flag, value] : kValueFlags) {
        RunFlags spaced, joined;
        EXPECT_EQ(parseRun({flag, value}, spaced), "") << flag;
        EXPECT_EQ(parseRun({flag + "=" + value}, joined), "") << flag;
        EXPECT_EQ(spaced, joined) << flag;
        EXPECT_NE(spaced, RunFlags()) << flag << " changed nothing";
    }
}

TEST(Cli, SwitchesSetTheirRunFlag)
{
    RunFlags f;
    ASSERT_EQ(parseRun({"--no-fast-forward", "--check"}, f), "");
    EXPECT_FALSE(f.fastForward);
    EXPECT_TRUE(f.check);
    RunFlags g;
    EXPECT_NE(parseRun({"--check=1"}, g).find("--check"),
              std::string::npos);
}

TEST(Cli, ErrorsNameTheFlag)
{
    for (const auto &[flag, value] : kValueFlags) {
        RunFlags f;
        std::string error = parseRun({flag}, f);
        EXPECT_NE(error.find(flag), std::string::npos)
            << "missing value: " << error;
        EXPECT_NE(error.find("needs a value"), std::string::npos) << error;
    }
    for (const char *flag : {"--bogus", "--no-direct-exec"}) {
        RunFlags f;
        std::string error = parseRun({"--jobs", "2", flag}, f);
        EXPECT_NE(error.find(std::string("unknown option '") + flag + "'"),
                  std::string::npos)
            << error;
    }

    for (const char *flag : {"--jobs", "--stats-interval",
                             "--watchdog-cycles"}) {
        for (const char *bad : {"5k", "1e6", "four", "-1", ""}) {
            for (bool joined : {false, true}) {
                RunFlags g;
                std::vector<std::string> args =
                    joined ? std::vector<std::string>{std::string(flag) +
                                                      "=" + bad}
                           : std::vector<std::string>{flag, bad};
                std::string err = parseRun(args, g);
                EXPECT_NE(err.find(flag), std::string::npos)
                    << flag << " " << bad << ": '" << err << "'";
                EXPECT_NE(err.find("whole number"), std::string::npos)
                    << err;
            }
        }
    }
    RunFlags zero_jobs;
    EXPECT_NE(parseRun({"--jobs", "0"}, zero_jobs).find("1..4096"),
              std::string::npos);
}

TEST(Cli, ParseCountRejectsEverythingButDigits)
{
    EXPECT_EQ(parseCount("42", 0, 100), 42u);
    EXPECT_EQ(parseCount("18446744073709551615", 0, UINT64_MAX),
              UINT64_MAX);
    for (const char *bad : {"", "5k", "1e6", "four", "-1", "+1", " 1",
                            "1 ", "0x10", "18446744073709551616"})
        EXPECT_FALSE(parseCount(bad, 0, UINT64_MAX)) << "'" << bad << "'";
    EXPECT_FALSE(parseCount("101", 0, 100));
    EXPECT_FALSE(parseCount("0", 1, 100));
}

TEST(Cli, ObsDirRedirectsPathsGivenBeforeIt)
{
    test::TempDir tmp("cli_obs");
    RunFlags defaults;
    RunFlags f;
    ASSERT_EQ(parseRun({"--stats-json", "s.json", "--fence-profile=f.jsonl",
                        "--obs-dir", tmp.path},
                       f),
              "");
    applyRunFlags(f);
    std::string stats = statsJsonPath(), profile = fenceProfilePath();
    applyRunFlags(defaults);
    EXPECT_EQ(stats, (std::filesystem::path(tmp.path) / "s.json").string());
    EXPECT_EQ(profile,
              (std::filesystem::path(tmp.path) / "f.jsonl").string());
    EXPECT_EQ(statsJsonPath(), "");
}

TEST(Cli, UsageListsEveryFlagOfTheTable)
{
    RunFlags f;
    Cli cli("usage: prog [options]");
    addRunFlags(cli, f);
    std::string usage = cli.usage();
    EXPECT_EQ(usage.rfind("usage: prog [options]\n", 0), 0u);
    for (const char *flag :
         {"--jobs N", "--no-fast-forward", "--check",
          "--stats-json PATH", "--stats-interval N", "--trace PATH",
          "--fence-profile PATH", "--obs-dir DIR", "--heartbeat PATH",
          "--watchdog-cycles N", "--cache-dir DIR"})
        EXPECT_NE(usage.find(std::string("  ") + flag), std::string::npos)
            << flag;
}

/**
 * @file
 * asf_campaign - the campaign service front end.
 *
 * A campaign is a directory holding a job list (expanded experiment
 * specs), per-job completion records, and a content-addressed result
 * cache; see src/service/campaign.hh for the layout and protocol.
 *
 *   asf_campaign submit DIR --specs FILE          create the campaign
 *   asf_campaign run DIR [--jobs N] [--shard i/N] execute what's left
 *   asf_campaign status DIR [--json]              progress + hit rate
 *   asf_campaign merge DIR OUT.json               stats log, job order
 *   asf_campaign gc DIR [--current-binary] [--max-age-days D]
 *
 * `run` is restartable: it executes exactly the jobs with no
 * completion record, so kill it (kill -9 included) and run again to
 * finish. Several `run` processes — same machine, shared filesystem —
 * drain one campaign cooperatively via claim files; `--shard i/N`
 * statically partitions instead. Specs on stdin: one JSON object per
 * line, e.g.
 *
 *   {"workload":"ustm:Hash","designs":["S+","WS+","W+","Wee"],
 *    "cores":8,"cycles":300000}
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/heartbeat.hh"
#include "service/campaign.hh"
#include "service/result_cache.hh"
#include "sim/logging.hh"

using namespace asf;
using namespace asf::service;
using asf::harness::Cli;

namespace
{

/** Every command's options; each command's table fills its own. */
struct Args
{
    std::string specs, name, cacheDir; ///< submit
    RunOptions run;
    std::string heartbeat; ///< run
    bool json = false;     ///< status
    ResultCache::GcOptions gc;
};

const char *const kCommands[] = {"submit", "run", "status", "merge", "gc"};

/** The flag table of one command, its synopsis as the usage head. */
Cli
commandCli(const std::string &cmd, Args &a)
{
    if (cmd == "submit") {
        Cli cli("asf_campaign submit DIR --specs FILE   create a campaign; "
                "idempotent for an\n  identical job list");
        cli.text("--specs", "FILE",
                 "spec lines, one JSON object each ('-' reads stdin)",
                 a.specs)
            .text("--name", "NAME",
                  "display name (default: DIR's basename)", a.name)
            .text("--cache-dir", "D",
                  "shared result cache (default DIR/cache)", a.cacheDir);
        return cli;
    }
    if (cmd == "run") {
        Cli cli("asf_campaign run DIR   execute the incomplete jobs");
        cli.count("--jobs", "N", "host worker threads (default 1)",
                  a.run.threads, 1, 4096)
            .option("--shard", "i/N", "only run jobs with index % N == i",
                    "i/N with i < N",
                    [&a](const std::string &v) {
                        unsigned i = 0, n = 0;
                        int used = 0;
                        if (std::sscanf(v.c_str(), "%u/%u%n", &i, &n,
                                        &used) != 2 ||
                            used != int(v.size()) || i >= n)
                            return false;
                        a.run.shardIndex = i;
                        a.run.shardCount = n;
                        return true;
                    })
            .text("--heartbeat", "PATH",
                  "live JSONL telemetry (tools/sweep_status.py)",
                  a.heartbeat)
            .count("--abort-after", "N",
                   "crash hook: stop after N jobs, leaving a dangling\n"
                   "claim (resume testing)",
                   a.run.abortAfter);
        return cli;
    }
    if (cmd == "status") {
        Cli cli("asf_campaign status DIR   completion + cache-hit summary");
        cli.flag("--json", "the status as a JSON document", a.json);
        return cli;
    }
    if (cmd == "merge")
        return Cli("asf_campaign merge DIR OUT.json   write the "
                   "schemaVersion-4 stats log");
    Cli cli("asf_campaign gc DIR   prune the campaign's cache");
    cli.flag("--current-binary", "drop entries from other binaries",
             a.gc.currentFingerprintOnly)
        .option("--max-age-days", "D", "drop entries older than D days",
                "a number of days", [&a](const std::string &v) {
                    char *end = nullptr;
                    double d = std::strtod(v.c_str(), &end);
                    if (v.empty() || *end || !(d >= 0))
                        return false;
                    a.gc.maxAgeDays = d;
                    return true;
                });
    return cli;
}

[[noreturn]] void
usage(int code)
{
    Args a;
    std::string text = "usage: asf_campaign COMMAND DIR [options]\n";
    for (const char *cmd : kCommands)
        text += commandCli(cmd, a).usage();
    std::fputs(text.c_str(), stderr);
    std::exit(code);
}

Campaign
load(const std::string &dir)
{
    Campaign c;
    std::string error;
    if (!loadCampaign(dir, c, error))
        fatal("%s", error.c_str());
    return c;
}

int
cmdSubmit(const Args &a, const std::string &dir)
{
    if (a.specs.empty())
        fatal("submit needs --specs FILE (or '-' for stdin)");
    std::vector<std::string> lines;
    auto slurp = [&](std::istream &in) {
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    };
    if (a.specs == "-") {
        slurp(std::cin);
    } else {
        std::ifstream f(a.specs);
        if (!f)
            fatal("cannot read '%s'", a.specs.c_str());
        slurp(f);
    }

    Campaign c;
    std::string error;
    if (!submitCampaign(dir, lines, a.name, a.cacheDir, c, error))
        fatal("%s", error.c_str());
    std::printf("campaign '%s': %zu jobs at %s (cache %s)\n",
                c.name.c_str(), c.jobs.size(), c.dir.c_str(),
                c.cacheDir.c_str());
    return 0;
}

int
cmdRun(const Args &a, const std::string &dir)
{
    Campaign c = load(dir);
    const RunOptions &opt = a.run;
    harness::setHeartbeatPath(a.heartbeat);
    RunStats st = runCampaign(c, opt);
    std::printf("campaign '%s' shard %u/%u: %zu jobs, %zu already "
                "done, %zu executed (%zu cache hits), %zu claimed "
                "elsewhere, %zu failures; placements %zu computed, %zu "
                "reused%s\n",
                c.name.c_str(), opt.shardIndex, opt.shardCount,
                st.total, st.alreadyDone, st.executed, st.cacheHits,
                st.claimedElsewhere, st.failures, st.placementsComputed,
                st.placementsReused,
                st.aborted ? " [aborted by --abort-after]" : "");
    // Failures are surfaced but do not block the other jobs; a
    // non-zero exit tells automation to look.
    return st.failures ? 2 : 0;
}

int
cmdStatus(const Args &a, const std::string &dir)
{
    Campaign c = load(dir);
    if (a.json) {
        std::fputs(campaignStatusJson(c).c_str(), stdout);
        return 0;
    }
    CampaignStatus st = campaignStatus(c);
    double pct = st.total ? 100.0 * double(st.done) / double(st.total)
                          : 0.0;
    double hit_rate =
        st.done ? 100.0 * double(st.cacheHits) / double(st.done) : 0.0;
    std::printf("campaign '%s': %zu/%zu done (%.1f%%), %zu claimed, "
                "%zu pending\n",
                c.name.c_str(), st.done, st.total, pct, st.claimed,
                st.pending);
    std::printf("  cache hits %zu (%.1f%% of done), failures %zu, "
                "recorded wall time %.1f s\n",
                st.cacheHits, hit_rate, st.failures,
                st.wallMs / 1000.0);
    return st.failures ? 2 : 0;
}

int
cmdMerge(const std::string &dir, const std::string &out)
{
    Campaign c = load(dir);
    std::string error;
    if (!mergeCampaign(c, out, error))
        fatal("%s", error.c_str());
    std::printf("wrote %s (%zu runs)\n", out.c_str(), c.jobs.size());
    return 0;
}

int
cmdGc(const Args &a, const std::string &dir)
{
    Campaign c = load(dir);
    ResultCache cache(c.cacheDir);
    ResultCache::GcStats st = cache.gc(a.gc);
    std::printf("gc %s: scanned %zu, removed %zu, orphans %zu, freed "
                "%llu bytes, kept %llu bytes\n",
                c.cacheDir.c_str(), st.scanned, st.removed, st.orphans,
                (unsigned long long)st.bytesFreed,
                (unsigned long long)st.bytesKept);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    if (argc == 2 && (!std::strcmp(argv[1], "--help") ||
                      !std::strcmp(argv[1], "-h")))
        usage(0);
    std::string cmd = argc > 1 ? argv[1] : "";
    int first = cmd == "merge" ? 4 : 3; // merge also takes OUT.json
    if (argc < first || std::find(std::begin(kCommands), std::end(kCommands),
                                  cmd) == std::end(kCommands))
        usage(1);
    std::string dir = argv[2];
    Args a;
    commandCli(cmd, a).parse(argc, argv, first);
    if (cmd == "submit")
        return cmdSubmit(a, dir);
    if (cmd == "run")
        return cmdRun(a, dir);
    if (cmd == "status")
        return cmdStatus(a, dir);
    if (cmd == "merge")
        return cmdMerge(dir, argv[3]);
    return cmdGc(a, dir);
}

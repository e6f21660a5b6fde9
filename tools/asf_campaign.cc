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

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/heartbeat.hh"
#include "service/campaign.hh"
#include "service/result_cache.hh"
#include "sim/logging.hh"

using namespace asf;
using namespace asf::service;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: asf_campaign COMMAND DIR [options]\n"
        "  submit DIR --specs FILE   create a campaign from spec lines\n"
        "                            (FILE '-' reads stdin); idempotent\n"
        "                            for an identical job list\n"
        "    --name NAME             display name (default: DIR's "
        "basename)\n"
        "    --cache-dir D           shared result cache (default "
        "DIR/cache)\n"
        "  run DIR                   execute the incomplete jobs\n"
        "    --jobs N                host worker threads (default 1)\n"
        "    --shard i/N             only run jobs with index%%N == i\n"
        "    --heartbeat PATH        live JSONL telemetry "
        "(tools/sweep_status.py)\n"
        "    --abort-after N         crash hook: stop after N jobs, "
        "leaving a\n"
        "                            dangling claim (resume testing)\n"
        "  status DIR [--json]       completion + cache-hit summary\n"
        "  merge DIR OUT.json        write the schemaVersion-4 stats "
        "log\n"
        "  gc DIR                    prune the campaign's cache\n"
        "    --current-binary        drop entries from other binaries\n"
        "    --max-age-days D        drop entries older than D days\n");
    std::exit(code);
}

const char *
need(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        fatal("%s needs a value", flag);
    return argv[++i];
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
cmdSubmit(int argc, char **argv)
{
    std::string dir = argv[2];
    std::string specs_file, name, cache_dir;
    for (int i = 3; i < argc; i++) {
        if (!std::strcmp(argv[i], "--specs"))
            specs_file = need(argc, argv, i, "--specs");
        else if (!std::strcmp(argv[i], "--name"))
            name = need(argc, argv, i, "--name");
        else if (!std::strcmp(argv[i], "--cache-dir"))
            cache_dir = need(argc, argv, i, "--cache-dir");
        else
            usage(1);
    }
    if (specs_file.empty())
        fatal("submit needs --specs FILE (or '-' for stdin)");

    std::vector<std::string> lines;
    auto slurp = [&](std::istream &in) {
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    };
    if (specs_file == "-") {
        slurp(std::cin);
    } else {
        std::ifstream f(specs_file);
        if (!f)
            fatal("cannot read '%s'", specs_file.c_str());
        slurp(f);
    }

    Campaign c;
    std::string error;
    if (!submitCampaign(dir, lines, name, cache_dir, c, error))
        fatal("%s", error.c_str());
    std::printf("campaign '%s': %zu jobs at %s (cache %s)\n",
                c.name.c_str(), c.jobs.size(), c.dir.c_str(),
                c.cacheDir.c_str());
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    Campaign c = load(argv[2]);
    RunOptions opt;
    for (int i = 3; i < argc; i++) {
        if (!std::strcmp(argv[i], "--jobs")) {
            opt.threads = unsigned(std::atoi(need(argc, argv, i,
                                                  "--jobs")));
        } else if (!std::strcmp(argv[i], "--shard")) {
            const char *v = need(argc, argv, i, "--shard");
            unsigned idx = 0, count = 0;
            if (std::sscanf(v, "%u/%u", &idx, &count) != 2 ||
                count == 0 || idx >= count)
                fatal("--shard wants i/N with i < N, got '%s'", v);
            opt.shardIndex = idx;
            opt.shardCount = count;
        } else if (!std::strcmp(argv[i], "--heartbeat")) {
            harness::setHeartbeatPath(need(argc, argv, i,
                                           "--heartbeat"));
        } else if (!std::strcmp(argv[i], "--abort-after")) {
            opt.abortAfter =
                size_t(std::atoll(need(argc, argv, i, "--abort-after")));
        } else {
            usage(1);
        }
    }

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
cmdStatus(int argc, char **argv)
{
    Campaign c = load(argv[2]);
    bool json = argc > 3 && !std::strcmp(argv[3], "--json");
    if (json) {
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
cmdMerge(int argc, char **argv)
{
    if (argc < 4)
        usage(1);
    Campaign c = load(argv[2]);
    std::string error;
    if (!mergeCampaign(c, argv[3], error))
        fatal("%s", error.c_str());
    std::printf("wrote %s (%zu runs)\n", argv[3], c.jobs.size());
    return 0;
}

int
cmdGc(int argc, char **argv)
{
    Campaign c = load(argv[2]);
    ResultCache::GcOptions opt;
    for (int i = 3; i < argc; i++) {
        if (!std::strcmp(argv[i], "--current-binary"))
            opt.currentFingerprintOnly = true;
        else if (!std::strcmp(argv[i], "--max-age-days"))
            opt.maxAgeDays =
                std::atof(need(argc, argv, i, "--max-age-days"));
        else
            usage(1);
    }
    ResultCache cache(c.cacheDir);
    ResultCache::GcStats st = cache.gc(opt);
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
    if (argc < 3) {
        if (argc == 2 && (!std::strcmp(argv[1], "--help") ||
                          !std::strcmp(argv[1], "-h")))
            usage(0);
        usage(1);
    }
    std::string cmd = argv[1];
    if (cmd == "submit")
        return cmdSubmit(argc, argv);
    if (cmd == "run")
        return cmdRun(argc, argv);
    if (cmd == "status")
        return cmdStatus(argc, argv);
    if (cmd == "merge")
        return cmdMerge(argc, argv);
    if (cmd == "gc")
        return cmdGc(argc, argv);
    usage(1);
}

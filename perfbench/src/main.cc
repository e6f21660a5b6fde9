/**
 * @file
 * The repository benchmark program: sets up one workload, runs passes of
 * it for the requested time, checks every output, and prints the
 * metrics as one JSON object on the last line of standard output.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--size full|smallest] [--out-dir DIR] [--reference FILE]
 *             [--git-rev REV] [--corrupt-cache]
 *
 * perfbench/run.py builds this program from source and runs it; see
 * perfbench/README.md for the workloads and metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness/experiment.hh"
#include "passes.hh"
#include "plan.hh"
#include "probe.hh"
#include "service/config_key.hh"
#include "service/json.hh"
#include "service/sha256.hh"
#include "sim/logging.hh"
#include "spans.hh"

using namespace asf;
using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

/** Set-up is repeated this often in a run and its median reported. */
constexpr int kSetupReps = 5;
/** Warm replays of the job list per pass: a warm job is a cache read of
 *  well under a millisecond. */
constexpr unsigned kWarmReps = 20;
/** Probe samples after each set-up repetition. */
constexpr unsigned kSetupProbes = 3;
/** Campaign workers for synth-campaign (the host has 4 CPUs). */
constexpr unsigned kCampaignThreads = 2;
/** The warm-up job is the first job of this seed's smallest plan, so
 *  set-up does the same work whatever the measured seed. */
constexpr uint64_t kWarmupSeed = 0;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smallest = false;
    bool corrupt = false;
    std::string outDir = ".";
    std::string reference;
    std::string gitRev = "unknown";
};

bool
parseArgs(int argc, char **argv, Options &o, std::string &error)
{
    bool have_seed = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--corrupt-cache") {
            o.corrupt = true;
            continue;
        }
        if (!(v = value())) {
            error = a + " needs a value";
            return false;
        }
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            have_seed = *v && !*end;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (!*v || *end || !(o.seconds > 0)) {
                error = "--seconds needs a positive number";
                return false;
            }
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1")) {
                error = "--trace takes 0 or 1";
                return false;
            }
            o.trace = v[0] == '1';
        } else if (a == "--size") {
            if (std::strcmp(v, "full") && std::strcmp(v, "smallest")) {
                error = "--size takes full or smallest";
                return false;
            }
            o.smallest = v[0] == 's';
        } else if (a == "--out-dir") {
            o.outDir = v;
        } else if (a == "--reference") {
            o.reference = v;
        } else if (a == "--git-rev") {
            o.gitRev = v;
        } else {
            error = "unknown option " + a;
            return false;
        }
    }
    if (!have_seed) {
        error = "--seed needs a whole number";
        return false;
    }
    return true;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/** The set-up repetitions after the first hash the executable the way
 *  service::binaryFingerprint() does, since the library caches it. */
void
hashExecutable()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    service::Sha256 h;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0)
        h.update(buf, size_t(in.gcount()));
    (void)h.finishHex();
}

/** Combined stats digest: SHA-256 over the run documents in job order. */
std::string
combinedDigest(const std::vector<std::string> &docs)
{
    service::Sha256 h;
    for (const std::string &d : docs) {
        h.update(d);
        h.update("\n");
    }
    return h.finishHex();
}

/** reference.json, or a null value when it is missing or unreadable. */
service::JsonValue
readReference(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    service::JsonValue v;
    std::string error;
    if (path.empty() || !service::parseJson(ss.str(), v, error))
        return service::JsonValue();
    return v;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c >= 0 && c < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        s += (i ? ", " : "") + jsonString(m.name) +
             ": {\"value\": " + jsonNumber(m.value) +
             ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return s + "}";
}

[[noreturn, maybe_unused]] void
refuse(const char *why)
{
    std::cerr << "perfbench: refusing to report numbers from " << why
              << ": it measures a different program\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Stopwatch process;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    refuse("a sanitizer build");
#endif
#ifndef __OPTIMIZE__
    refuse("an unoptimised build");
#endif
    Options opt;
    std::string error;
    Plan plan;
    if (!parseArgs(argc, argv, opt, error) ||
        !makePlan(opt.workload, opt.seed, opt.smallest, plan)) {
        std::cerr << "perfbench: " << (error.empty() ? "unknown workload '" +
                                                           opt.workload + "'"
                                                     : error)
                  << "\nusage: perfbench --workload W --seed N --seconds S "
                     "--trace 0|1 [--size full|smallest] [--out-dir DIR] "
                     "[--reference FILE] [--git-rev REV] [--corrupt-cache]\n";
        return 2;
    }
    setVerbose(false);
    // As the figure binaries run: a livelock aborts with a diagnostic.
    harness::setWatchdogCyclesDefault(1'000'000);

    fs::path work = fs::path(opt.outDir) / format("work-%ld", long(::getpid()));
    fs::remove_all(work);
    fs::create_directories(work);
    Failures failures;
    size_t attempted = 0;

    // --- set-up, repeated; the first is timed from entry to main -------
    std::vector<double> setups, raw_setups, probes;
    double fingerprint_s = 0.0;
    for (int rep = 0; rep < kSetupReps; rep++) {
        Stopwatch s;
        makePlan(opt.workload, opt.seed, opt.smallest, plan);
        if (rep == 0) {
            Stopwatch f;
            service::makeConfigKey(SystemConfig{}, "perfbench/fingerprint");
            fingerprint_s = f.wallS();
        } else {
            hashExecutable();
        }
        Plan warmup;
        makePlan(opt.workload, kWarmupSeed, true, warmup);
        attempted++;
        if (!runWarmup(warmup, work.string()))
            failures.add("warm-up run failed");
        raw_setups.push_back(rep == 0 ? process.wallS() : s.wallS());
        std::vector<double> samples;
        probe(kSetupProbes, samples);
        setups.push_back(raw_setups.back() * speedFactor(samples));
        probes.insert(probes.end(), samples.begin(), samples.end());
    }

    // --- timed passes ---------------------------------------------------
    PassResult first; ///< its documents are the reference for the rest
    std::string digest;
    size_t npasses = 0;
    std::vector<double> walls, cpus, mips, cold_rates, cold_cpus, warm_reps;
    std::vector<double> raw_walls, elapsed;
    size_t warm_jobs = 0, warm_hits = 0;
    Stopwatch timed;
    do {
        PassOptions po;
        po.workDir = (work / "pass").string();
        po.warmReps = kWarmReps;
        po.threads = kCampaignThreads;
        po.corruptOne = opt.corrupt && npasses == 0;
        Stopwatch one;
        PassResult p = runPass(plan, po);
        fs::remove_all(po.workDir);
        elapsed.push_back(one.wallS());
        attempted += p.coldJobs + p.warmJobs;
        failures.merge(p.failures);
        raw_walls.push_back(p.rawWallS);
        probes.insert(probes.end(), p.probeS.begin(), p.probeS.end());
        walls.push_back(p.wallS);
        cpus.push_back(p.cpuS);
        cold_cpus.push_back(p.coldCpuS);
        mips.push_back(double(p.instrRetired) / p.coldWallS / 1e6);
        cold_rates.push_back(double(p.coldJobs) / p.coldWallS);
        warm_reps.insert(warm_reps.end(), p.warmRepS.begin(),
                         p.warmRepS.end());
        warm_jobs += p.warmJobs;
        warm_hits += p.warmHits;
        if (npasses == 0) {
            digest = combinedDigest(p.docs);
            first = std::move(p);
        } else if (combinedDigest(p.docs) != digest) {
            failures.add(format("pass %zu: stats digest differs from "
                                "pass 0",
                                npasses));
        }
        npasses++;
    } while (timed.wallS() + median(elapsed) <= opt.seconds);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::vector<Metric> metrics = {
        {"setup_s", "s", median(setups)},
        {"wall_s", "s", median(walls)},
        {"cpu_s", "s", median(cpus)},
        {"sim_mips", "MIPS", median(mips)},
        {"peak_rss_mb", "MB", double(ru.ru_maxrss) / 1024.0},
        {"cold_jobs_per_s", "jobs/s", median(cold_rates)},
        {"warm_jobs_per_s", "jobs/s",
         double(plan.jobs()) / median(warm_reps)},
        {"warm_hit_frac", "frac",
         warm_jobs ? double(warm_hits) / double(warm_jobs) : 0.0},
    };

    // --- traced pass ----------------------------------------------------
    SpanLog log;
    if (opt.trace) {
        TracedResult tr = runTracedPass(plan, first, work.string(), log);
        attempted += tr.jobs;
        failures.merge(tr.failures);
        metrics = tr.metrics;
        metrics.push_back({"service.fingerprint_s", "s", fingerprint_s});
        metrics.push_back({"bench.trace_overhead_pct", "%",
                           100.0 * (tr.coldCpuS / median(cold_cpus) - 1.0)});
        metrics.push_back({"bench.span_coverage", "frac",
                           log.layerTime() / tr.wallS});
        metrics.push_back({"bench.probe_ms", "ms", median(probes) * 1e3});
        std::ofstream spans(fs::path(opt.outDir) /
                            format("spans-%s-seed%llu.jsonl",
                                   opt.workload.c_str(),
                                   (unsigned long long)opt.seed));
        log.writeJsonl(spans);
    }
    fs::remove_all(work);

    // --- report ---------------------------------------------------------
    std::string recorded =
        opt.smallest ? ""
                     : readReference(opt.reference)["digests"][opt.workload]
                                                   [std::to_string(opt.seed)]
                                                       .asString();
    std::string build_type = PERFBENCH_BUILD_TYPE;
    std::string host = format(
        "cpu=\"%s\" nproc=%u compiler=\"%s\" flags=\"%s\" build=%s "
        "git=%s fingerprint=%s seed=%llu",
        cpuModel().c_str(), std::thread::hardware_concurrency(),
        __VERSION__, PERFBENCH_CXX_FLAGS, build_type.c_str(),
        opt.gitRev.c_str(), service::binaryFingerprint().substr(0, 16).c_str(),
        (unsigned long long)opt.seed);
    std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
              << " size=" << (opt.smallest ? "smallest" : "full")
              << " jobs=" << plan.jobs() << " passes=" << npasses
              << " trace=" << opt.trace << "\n";
    std::cout << "host: " << host << "\n";
    std::cout << "stats digest: " << digest << " ("
              << (recorded.empty()          ? "no reference for this seed"
                  : recorded == digest ? "matches the reference"
                                       : "DIFFERS from the reference " +
                                             recorded +
                                             ": simulated behaviour changed")
              << ")\n";
    std::cout << "failed_frac: "
              << double(failures.count) / double(std::max<size_t>(1, attempted))
              << " (" << failures.count << " of " << attempted << ")\n";
    for (const std::string &m : failures.messages)
        std::cout << "failure: " << m << "\n";
    std::cout << "host speed: median probe " << median(probes) * 1e3
              << " ms against the reference " << kReferenceProbeS * 1e3
              << " ms; the times below are scaled to the reference\n";
    std::cout << "set-up wall_s as measured:";
    for (double s : raw_setups)
        std::cout << " " << s;
    std::cout << "\npass wall_s as measured:";
    for (double w : raw_walls)
        std::cout << " " << w;
    std::cout << "\n";
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";

    std::string result =
        format("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
               "\"metrics\": ",
               failures.count ? "false" : "true", attempted,
               failures.count) +
        metricsJson(metrics) + "}";
    std::ofstream(fs::path(opt.outDir) /
                  format("report-%s-seed%llu-trace%d.json",
                         opt.workload.c_str(), (unsigned long long)opt.seed,
                         int(opt.trace)))
        << "{\"host\": " << jsonString(host)
        << ", \"digest\": " << jsonString(digest)
        << ", \"result\": " << result << "}\n";
    std::cout << result << std::endl;
    return 0;
}

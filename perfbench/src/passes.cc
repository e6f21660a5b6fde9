#include "passes.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>

#include "analysis/corpus.hh"
#include "check/axioms.hh"
#include "harness/experiment.hh"
#include "probe.hh"
#include "service/campaign.hh"
#include "service/config_key.hh"
#include "service/json.hh"
#include "service/result_cache.hh"
#include "service/sha256.hh"
#include "service/spec.hh"
#include "sim/logging.hh"
#include "sys/system.hh"

namespace perfbench
{

using namespace asf;
namespace fs = std::filesystem;

namespace
{

/** Probe samples before and after a stretch of work that cannot be
 *  interleaved with probes: a campaign drain, or the traced pass. */
constexpr unsigned kDrainProbes = 3;

double
clockS(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

harness::ExperimentResult
runSimJob(const SimJob &j)
{
    switch (j.family) {
      case Family::Ustm:
        return harness::runUstmExperiment(j.tlrw, j.design, j.cores,
                                          j.budget);
      case Family::Cilk:
        return harness::runCilkExperiment(j.cilk, j.design, j.cores,
                                          j.budget);
      case Family::Stamp:
        return harness::runStampExperiment(
            workloads::StampApp{j.tlrw, j.txnsPerThread}, j.design,
            j.cores, j.budget);
    }
    fatal("unknown job family");
}

std::string
jobLabel(const std::string &workload, FenceDesign d, unsigned cores)
{
    return format("%s/%s/%uc", workload.c_str(), fenceDesignName(d), cores);
}

/** The SystemConfig the experiment runners build from the process-wide
 *  defaults (see harness/experiment.hh). */
SystemConfig
runnerConfig(FenceDesign design, unsigned cores)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.design = design;
    cfg.fastForward = harness::fastForwardEnabled();
    cfg.directExec = harness::directExecEnabled();
    cfg.watchdogCycles = harness::watchdogCyclesDefault();
    cfg.fenceProfileRaw = !harness::fenceProfilePath().empty();
    cfg.checkExecution = harness::checkExecutionEnabled();
    cfg.statsInterval = harness::statsIntervalDefault();
    return cfg;
}

/** Damage the first stored document, so its lookup fails the cache's
 *  integrity check and the warm replay has to run it again. */
void
corruptOneDoc(const fs::path &cache_dir, Failures &f)
{
    std::vector<fs::path> docs;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(cache_dir / "objects", ec))
        if (e.path().string().ends_with(".doc.json"))
            docs.push_back(e.path());
    if (docs.empty()) {
        f.add("no cache object to corrupt");
        return;
    }
    std::sort(docs.begin(), docs.end());
    std::string bytes;
    {
        std::ifstream in(docs.front(), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    if (bytes.empty()) {
        f.add("empty cache object");
        return;
    }
    bytes[bytes.size() / 2] ^= 1;
    std::ofstream(docs.front(), std::ios::binary | std::ios::trunc) << bytes;
}

/** Compare a warm replay's documents with the cold run's, in order. */
void
compareDocs(const std::vector<std::string> &cold,
            const std::vector<std::string> &warm, Failures &f)
{
    if (warm.size() != cold.size()) {
        f.add(format("warm replay produced %zu documents, cold run %zu",
                     warm.size(), cold.size()));
        return;
    }
    for (size_t i = 0; i < cold.size(); i++)
        if (warm[i] != cold[i])
            f.add(format("job %zu: warm document differs from cold", i));
}

/** Add one timed stretch of a simulation pass, scaled by the mean of
 *  the probe rounds just before and just after it, so the host's speed
 *  is sampled at the scale it drifts on (tens of milliseconds). */
void
addScaled(PassResult &p, const Stopwatch &w, double &wall, double &cpu)
{
    double raw = w.wallS(), raw_cpu = w.cpuS();
    double before = p.probeS.back();
    probe(1, p.probeS);
    double f = speedFactor({before, p.probeS.back()});
    wall += raw * f;
    cpu += raw_cpu * f;
    p.rawWallS += raw;
}

/** Replay `jobs` warm from `cache` `reps` times on this thread, each
 *  replay timed and scaled by the probe rounds around it (the last probe
 *  round in `p` must be a one-thread round taken just before). Adds to
 *  the pass's wall and CPU time, warm counts and replay times. */
template <typename Job, typename Run>
void
warmReplays(const std::vector<Job> &jobs, service::ResultCache &cache,
            unsigned reps, Run run, PassResult &p)
{
    for (unsigned rep = 0; rep < reps; rep++) {
        Stopwatch warm;
        std::vector<std::string> docs;
        {
            service::ScopedActiveCache bind(&cache);
            harness::ScopedRunCapture capture(docs);
            for (const Job &j : jobs) {
                harness::ExperimentResult r = run(j);
                p.warmHits += r.cacheHit;
                if (!r.valid)
                    p.failures.add(format("%s (warm): %s",
                                          r.workload.c_str(),
                                          r.validationError.c_str()));
            }
        }
        double wall = 0.0;
        addScaled(p, warm, wall, p.cpuS);
        p.warmRepS.push_back(wall);
        p.wallS += wall;
        compareDocs(p.docs, docs, p.failures);
        p.warmJobs += jobs.size();
    }
}

PassResult
simPass(const Plan &plan, const PassOptions &opt)
{
    PassResult p;
    fs::path cache_dir = fs::path(opt.workDir) / "cache";
    service::ResultCache cache(cache_dir.string());

    probe(1, p.probeS);
    {
        service::ScopedActiveCache bind(&cache);
        harness::ScopedRunCapture capture(p.docs);
        for (const SimJob &j : plan.sim) {
            Stopwatch job;
            harness::ExperimentResult r = runSimJob(j);
            addScaled(p, job, p.coldWallS, p.coldCpuS);
            p.instrRetired += r.instrRetired;
            p.keys.push_back(r.configDigest);
            if (!r.valid)
                p.failures.add(format("%s: %s", r.workload.c_str(),
                                      r.validationError.c_str()));
        }
    }
    p.coldJobs = plan.sim.size();
    if (p.docs.size() != plan.sim.size())
        p.failures.add(format("%zu documents for %zu jobs", p.docs.size(),
                              plan.sim.size()));
    if (opt.corruptOne)
        corruptOneDoc(cache_dir, p.failures);

    p.wallS = p.coldWallS;
    p.cpuS = p.coldCpuS;
    warmReplays(plan.sim, cache, opt.warmReps, runSimJob, p);
    return p;
}

std::vector<std::string>
specLines(const Plan &plan)
{
    std::vector<std::string> lines;
    for (const auto &spec : plan.synth)
        lines.push_back(service::serializeSpec(spec));
    return lines;
}

bool
submit(const fs::path &dir, const Plan &plan, const fs::path &cache_dir,
       service::Campaign &c, Failures &f)
{
    std::string error;
    if (service::submitCampaign(dir.string(), specLines(plan),
                                dir.filename().string(), cache_dir.string(),
                                c, error))
        return true;
    f.add("submit: " + error);
    return false;
}

/** Check each synth document: valid, checker verdict `pass`. Returns
 *  the final runs' retired instructions. */
uint64_t
checkSynthDocs(const std::vector<std::string> &docs, Failures &f)
{
    uint64_t instr = 0;
    for (size_t i = 0; i < docs.size(); i++) {
        service::JsonValue v;
        std::string error;
        if (!service::parseJson(docs[i], v, error)) {
            f.add(format("job %zu: unreadable document: %s", i,
                         error.c_str()));
            continue;
        }
        instr += v["metrics"]["instrRetired"].asU64();
        // "inconclusive" is the checker declining to decide (reads that
        // match several writers, as in bakery and tlrw); a violation
        // already makes the run invalid.
        const std::string &verdict = v["checkVerdict"].asString();
        if (!v["valid"].asBool())
            f.add(format("%s: %s", v["workload"].asString().c_str(),
                         v["validationError"].asString().c_str()));
        else if (verdict != "pass" && verdict != "inconclusive")
            f.add(format("%s: checker verdict '%s'",
                         v["workload"].asString().c_str(),
                         v["checkVerdict"].asString().c_str()));
    }
    return instr;
}

PassResult
synthPass(const Plan &plan, const PassOptions &opt)
{
    PassResult p;
    fs::path root = fs::path(opt.workDir) / "campaigns";
    fs::path cache_dir = root / "cache";
    service::Campaign cold, warm;
    if (!submit(root / "cold", plan, cache_dir, cold, p.failures) ||
        !submit(root / "warm", plan, cache_dir, warm, p.failures))
        return p;

    service::RunOptions ro;
    ro.threads = opt.threads;
    // Probes cannot run between a drain's jobs, so the cold drain is
    // scaled by probes on as many threads as it has workers, taken just
    // before and just after it.
    std::vector<double> samples;
    probe(kDrainProbes, samples, ro.threads);
    Stopwatch w;
    service::RunStats st;
    {
        harness::ScopedRunCapture capture(p.docs);
        st = service::runCampaign(cold, ro);
    }
    p.coldWallS = w.wallS();
    p.coldCpuS = w.cpuS();
    probe(kDrainProbes, samples, ro.threads);
    p.rawWallS = p.coldWallS;
    double f = speedFactor(samples);
    p.coldWallS *= f;
    p.coldCpuS *= f;
    p.wallS = p.coldWallS;
    p.cpuS = p.coldCpuS;
    p.probeS = samples;
    p.coldJobs = plan.synth.size();
    if (st.executed != plan.synth.size() || p.docs.size() != st.executed)
        p.failures.add(format("cold drain ran %zu of %zu jobs (%zu "
                              "documents)",
                              st.executed, plan.synth.size(),
                              p.docs.size()));
    if (opt.corruptOne)
        corruptOneDoc(cache_dir, p.failures);

    // A second campaign over the same specs, drained warm: its workers
    // claim each job, are served from the cache and write completion
    // records. That file work is kernel metadata time whose cost swings
    // several-fold with the host's state from one minute to the next, so
    // the drain is checked but not timed; service.campaign_ms_per_job
    // times it in the traced pass.
    std::vector<std::string> docs;
    {
        harness::ScopedRunCapture capture(docs);
        st = service::runCampaign(warm, ro);
    }
    p.warmJobs += plan.synth.size();
    p.warmHits += st.cacheHits;
    compareDocs(p.docs, docs, p.failures);

    // The timed warm side: the job list replayed from the shared cache on
    // this thread, through runSpec as a campaign worker runs each job.
    service::ResultCache cache(cache_dir.string());
    probe(1, p.probeS);
    warmReplays(cold.jobs, cache, opt.warmReps,
                [](const service::ExperimentSpec &s) {
                    return service::runSpec(s);
                },
                p);
    p.instrRetired = checkSynthDocs(p.docs, p.failures);
    return p;
}

// --- traced pass ----------------------------------------------------------

/** What the traced pass keeps of each run for the per-layer counts;
 *  the stats JSON is parsed after the pass so parsing is not timed. */
struct RunRecord
{
    service::ConfigKey key;
    harness::ExperimentResult r;
    std::string sysJson;
    uint64_t events = 0;
    uint64_t ffCycles = 0;
    uint64_t directCycles = 0;
    uint64_t checkEvents = 0;
};

void
stripNewlines(std::string &s)
{
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
}

/** The `system` block of a run document: the harness writes it as the
 *  last member, after fields none of which is named "system". */
std::string
systemBlock(const std::string &doc)
{
    const std::string key = "\"system\":";
    size_t pos = doc.find(key);
    if (pos == std::string::npos || doc.empty() || doc.back() != '}')
        return "";
    pos += key.size();
    return doc.substr(pos, doc.size() - 1 - pos);
}

/** The instrumented tail every traced run shares: run, harvest, an
 *  optional post-run check, dump the stats, file the untraced document
 *  under the run's key, tear down. */
void
finishRun(SpanLog &log, uint64_t job, std::unique_ptr<System> sys,
          Tick budget, const service::ConfigKey &key, const std::string &doc,
          service::ResultCache &cache, RunRecord &rec,
          const std::function<void(System &)> &check = {})
{
    log.time("sys.run", job, [&] { return sys->run(budget); });
    rec.r.cycles = sys->now();
    log.time("harness.harvest", job,
             [&] { harness::harvestStats(*sys, rec.r); });
    if (check)
        check(*sys);
    rec.sysJson = log.time("harness.stats_json", job, [&] {
        std::ostringstream os;
        sys->dumpStatsJson(os);
        return os.str();
    });
    stripNewlines(rec.sysJson);
    rec.events = sys->eventQueue().executedEvents();
    rec.ffCycles = sys->fastForwardedCycles();
    rec.directCycles = sys->directExecutedCycles();
    rec.key = key;
    log.time("service.store", job,
             [&] { cache.store(key, rec.r, doc, 0.0); });
    log.time("sys.teardown", job, [&] { sys.reset(); });
}

void
tracedSimJob(SpanLog &log, uint64_t i, const SimJob &j,
             const PassResult &ref, service::ResultCache &cache,
             RunRecord &rec, Failures &f)
{
    SystemConfig cfg = runnerConfig(j.design, j.cores);
    service::ConfigKey key = log.time("service.config_key", i, [&] {
        return service::makeConfigKey(
            cfg, jobLabel(j.name(), j.design, j.cores),
            format("budget %llu", (unsigned long long)j.budget));
    });
    if (i < ref.keys.size() && key.digest != ref.keys[i])
        f.add(format("job %llu: traced config key differs from the "
                     "runner's",
                     (unsigned long long)i));
    if (log.time("service.lookup_miss", i,
                 [&] { return cache.lookup(key).has_value(); }))
        f.add("traced cache hit before the run");

    auto sys = log.time("sys.construct", i,
                        [&] { return std::make_unique<System>(cfg); });
    log.time("workloads.setup", i, [&] {
        switch (j.family) {
          case Family::Ustm:
            workloads::setupTlrwWorkload(*sys, j.tlrw, 0);
            break;
          case Family::Cilk:
            workloads::setupCilkApp(*sys, j.cilk);
            break;
          case Family::Stamp:
            workloads::setupTlrwWorkload(*sys, j.tlrw, j.txnsPerThread);
            break;
        }
    });
    rec.r.workload = j.name();
    rec.r.design = j.design;
    finishRun(log, i, std::move(sys), j.budget, key, ref.docs[i], cache,
              rec);
}

void
tracedSynthJob(SpanLog &log, uint64_t i,
               const service::ExperimentSpec &spec, const PassResult &ref,
               service::ResultCache &cache, RunRecord &rec,
               uint64_t &minimize_runs)
{
    std::string kit = spec.workload.substr(spec.workload.find(':') + 1);
    analysis::CorpusEntry entry = log.time(
        "analysis.corpus", i, [&] { return analysis::buildCorpusEntry(kit); });
    unsigned cores = unsigned(std::max<size_t>(4, entry.threads.size()));
    SystemConfig cfg = runnerConfig(spec.design, cores);
    cfg.checkExecution = true;
    service::ConfigKey key = log.time("service.config_key", i, [&] {
        return service::makeConfigKey(
            cfg, jobLabel(spec.workload, spec.design, cores),
            format("budget 0 minimize %d", spec.minimize ? 1 : 0));
    });
    log.time("service.lookup_miss", i,
             [&] { return cache.lookup(key).has_value(); });

    analysis::SynthResult synth = log.time(
        "analysis.synthesize", i,
        [&] { return analysis::synthesize(entry.threads); });
    std::vector<std::shared_ptr<const Program>> progs = synth.fenced;
    if (spec.minimize) {
        analysis::MinimizeResult min = log.time("analysis.minimize", i, [&] {
            return analysis::minimize(synth, entry.minimizeOptions());
        });
        minimize_runs += min.runs;
        progs = min.fenced;
    }
    auto sys = log.time("sys.construct", i, [&] {
        auto s = std::make_unique<System>(cfg);
        for (size_t t = 0; t < progs.size(); t++)
            s->loadProgram(NodeId(t), progs[t]);
        return s;
    });
    if (entry.setup)
        log.time("workloads.setup", i, [&] { entry.setup(*sys); });
    rec.r.workload = spec.workload;
    rec.r.design = spec.design;
    // The kit's own property mode, as runSynthExperiment re-checks it.
    auto check_run = [&](System &s) {
        const check::ExecutionRecorder *recorder = s.executionRecorder();
        if (!recorder)
            return;
        rec.checkEvents = recorder->eventsCaptured();
        check::CheckOptions copt;
        copt.requireSc =
            entry.property == analysis::MinimizeProperty::ScEquivalence;
        check::CheckResult cr = log.time("check.check", i, [&] {
            return check::checkExecution(*recorder, copt);
        });
        rec.r.checkVerdict = check::verdictName(cr.verdict);
    };
    finishRun(log, i, std::move(sys), entry.maxCycles, key, ref.docs[i],
              cache, rec, check_run);
}

/** Sum of one scalar over the stats groups whose name starts with
 *  `prefix` followed by a digit ("core" matches core0, core1, ...). */
uint64_t
groupSum(const service::JsonValue &sys, const std::string &prefix,
         const std::string &scalar)
{
    uint64_t sum = 0;
    for (const auto &g : sys["groups"].items()) {
        const std::string &name = g["name"].asString();
        if (name == prefix ||
            (name.size() > prefix.size() && name.starts_with(prefix) &&
             std::isdigit((unsigned char)name[prefix.size()])))
            sum += g["scalars"][scalar].asU64();
    }
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Bytes under the cache's object store, per stored entry. */
double
entryKb(const fs::path &cache_dir, size_t entries)
{
    uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(cache_dir / "objects", ec))
        if (e.is_regular_file())
            bytes += e.file_size();
    return ratio(double(bytes) / 1024.0, double(entries));
}

} // namespace

Stopwatch::Stopwatch()
    : wall0_(clockS(CLOCK_MONOTONIC)), cpu0_(clockS(CLOCK_PROCESS_CPUTIME_ID))
{
}

double
Stopwatch::wallS() const
{
    return clockS(CLOCK_MONOTONIC) - wall0_;
}

double
Stopwatch::cpuS() const
{
    return clockS(CLOCK_PROCESS_CPUTIME_ID) - cpu0_;
}

void
Failures::add(std::string msg)
{
    count++;
    if (messages.size() < 8)
        messages.push_back(std::move(msg));
}

void
Failures::merge(const Failures &other)
{
    for (const std::string &m : other.messages)
        if (messages.size() < 8)
            messages.push_back(m);
    count += other.count;
}

PassResult
runPass(const Plan &plan, const PassOptions &opt)
{
    return plan.synth.empty() ? simPass(plan, opt) : synthPass(plan, opt);
}

bool
runWarmup(const Plan &plan, const std::string &work_dir)
{
    if (!plan.sim.empty())
        return runSimJob(plan.sim.front()).valid;
    Plan one = plan;
    one.synth.resize(1);
    fs::path dir = fs::path(work_dir) / "warmup";
    fs::remove_all(dir);
    service::Campaign c;
    Failures f;
    if (!submit(dir, one, dir / "cache", c, f))
        return false;
    service::RunStats st = service::runCampaign(c, service::RunOptions{});
    fs::remove_all(dir);
    return st.executed == 1 && st.failures == 0;
}

TracedResult
runTracedPass(const Plan &plan, const PassResult &ref,
              const std::string &work_dir, SpanLog &log)
{
    TracedResult t;
    t.jobs = plan.jobs();
    std::vector<RunRecord> recs(t.jobs);
    if (ref.docs.size() != t.jobs) {
        t.failures.add("traced pass needs one untraced document per job");
        return t;
    }
    fs::path root = fs::path(work_dir) / "traced";
    fs::remove_all(root);
    fs::path cache_dir = root / "cache";
    service::ResultCache cache(cache_dir.string());
    uint64_t minimize_runs = 0;

    // Cold: every run through the public pieces the runner is made of.
    std::vector<double> samples;
    probe(kDrainProbes, samples);
    Stopwatch pass;
    for (size_t i = 0; i < t.jobs; i++) {
        log.time("job", i, [&] {
            if (plan.synth.empty())
                tracedSimJob(log, i, plan.sim[i], ref, cache, recs[i],
                             t.failures);
            else
                tracedSynthJob(log, i, plan.synth[i], ref, cache, recs[i],
                               minimize_runs);
        });
    }
    double cold_cpu = pass.cpuS();

    // Warm: every stored entry read back, as a warm replay would.
    for (size_t i = 0; i < t.jobs; i++) {
        log.time("job", i, [&] {
            auto hit = log.time("service.lookup", i,
                                [&] { return cache.lookup(recs[i].key); });
            if (!hit || hit->doc != ref.docs[i])
                t.failures.add(format("job %zu: traced cache entry not "
                                      "read back intact",
                                      i));
        });
    }

    // Campaign bookkeeping (synth-campaign): one worker drains a
    // campaign served entirely from the traced cache; what its
    // completion records do not account for is claim and record work.
    double campaign_ms_per_job = 0.0;
    if (!plan.synth.empty()) {
        service::Campaign c;
        if (submit(root / "campaign", plan, cache_dir, c, t.failures)) {
            service::RunStats st;
            double span = log.time("service.run_campaign", 0, [&] {
                Stopwatch w;
                std::vector<std::string> sink;
                harness::ScopedRunCapture capture(sink);
                st = service::runCampaign(c, service::RunOptions{});
                return w.wallS();
            });
            if (st.cacheHits != t.jobs)
                t.failures.add(format("traced campaign hit %zu of %zu "
                                      "entries: traced keys differ from "
                                      "the runner's",
                                      st.cacheHits, t.jobs));
            double inside_ms = service::campaignStatus(c).wallMs;
            campaign_ms_per_job =
                ratio(span * 1e3 - inside_ms, double(t.jobs));
        }
    }
    t.wallS = pass.wallS();
    probe(kDrainProbes, samples);
    t.coldCpuS = cold_cpu * speedFactor(samples);

    // Untimed: digests and the counts held in the stats documents.
    double n = double(t.jobs);
    uint64_t instr = 0, cycles = 0, core_cycles = 0, ff = 0, direct = 0,
             ticked = 0, events = 0, check_events = 0, json_bytes = 0;
    uint64_t busy = 0, fence_stall = 0, other_stall = 0, total = 0;
    uint64_t strong = 0, weak = 0, wplus = 0, bounced = 0;
    uint64_t loads = 0, load_misses = 0, probes = 0, bounces = 0,
             queued = 0, nacked = 0, packets = 0, bytes = 0, base = 0,
             extra_bytes = 0, grt_deposits = 0;
    double bs_inserts = 0.0;
    size_t inconclusive = 0;
    for (size_t i = 0; i < t.jobs; i++) {
        const RunRecord &rec = recs[i];
        inconclusive += rec.r.checkVerdict == "inconclusive";
        if (service::sha256Hex(rec.sysJson) !=
            service::sha256Hex(systemBlock(ref.docs[i])))
            t.failures.add(format("job %zu: traced stats differ from the "
                                  "untraced run's",
                                  i));
        service::JsonValue sys;
        std::string error;
        if (!service::parseJson(rec.sysJson, sys, error)) {
            t.failures.add(format("job %zu: stats JSON: %s", i,
                                  error.c_str()));
            continue;
        }
        unsigned ncores = rec.r.cores;
        instr += rec.r.instrRetired;
        cycles += rec.r.cycles;
        core_cycles += rec.r.cycles * ncores;
        ff += rec.ffCycles;
        direct += rec.directCycles;
        ticked += (rec.r.cycles - rec.ffCycles - rec.directCycles) * ncores;
        events += rec.events;
        check_events += rec.checkEvents;
        json_bytes += rec.sysJson.size();
        busy += rec.r.breakdown.busy;
        fence_stall += rec.r.breakdown.fenceStall;
        other_stall += rec.r.breakdown.otherStall;
        total += rec.r.breakdown.total();
        strong += rec.r.fencesStrong;
        weak += rec.r.fencesWeak;
        wplus += rec.r.wPlusRecoveries;
        bounced += rec.r.bouncedWrites;
        loads += groupSum(sys, "core", "loadsExecuted");
        load_misses += groupSum(sys, "core", "loadMissesIssued");
        probes += groupSum(sys, "dir", "probes");
        bounces += groupSum(sys, "dir", "bounces");
        queued += groupSum(sys, "dir", "queued");
        nacked += groupSum(sys, "dir", "getxNacked");
        grt_deposits += groupSum(sys, "grt", "deposits");
        packets += groupSum(sys, "noc", "packets");
        bytes += groupSum(sys, "noc", "bytes");
        base += groupSum(sys, "noc", "bytesBase");
        extra_bytes += groupSum(sys, "noc", "bytesRetry") +
                       groupSum(sys, "noc", "bytesGrt");
        const service::JsonValue &bs = sys["fenceProfile"]["bsInserts"];
        bs_inserts += std::round(bs["count"].asDouble() *
                                 bs["mean"].asDouble());
    }

    double run_s = log.total("sys.run");
    auto per_job_ms = [&](const char *name) {
        return ratio(log.total(name) * 1e3, n);
    };
    auto per_call = [&](const char *name, double scale) {
        return ratio(log.total(name) * scale, double(log.count(name)));
    };
    t.metrics = {
        {"sys.run_s", "s", run_s},
        {"sys.construct_ms", "ms", per_job_ms("sys.construct")},
        {"sys.teardown_ms", "ms", per_job_ms("sys.teardown")},
        {"sys.ff_cycle_frac", "frac", ratio(double(ff), double(cycles))},
        {"sys.direct_cycle_frac", "frac",
         ratio(double(direct), double(cycles))},
        {"sys.ns_per_ticked_core_cycle", "ns",
         ratio(run_s * 1e9, double(ticked))},
        {"sim.events_per_kcycle", "count",
         ratio(1e3 * double(events), double(cycles))},
        {"sim.ns_per_event", "ns", ratio(run_s * 1e9, double(events))},
        {"cpu.instr_retired", "count", double(instr)},
        {"cpu.ipc", "count", ratio(double(instr), double(core_cycles))},
        {"cpu.busy_frac", "frac", ratio(double(busy), double(total))},
        {"cpu.fence_stall_frac", "frac",
         ratio(double(fence_stall), double(total))},
        {"cpu.other_stall_frac", "frac",
         ratio(double(other_stall), double(total))},
        {"mem.l1_load_miss_frac", "frac",
         ratio(double(load_misses), double(loads))},
        {"mem.dir_probes", "count", double(probes)},
        {"mem.dir_bounces", "count", double(bounces)},
        {"mem.dir_queued", "count", double(queued)},
        {"mem.getx_nacked", "count", double(nacked)},
        {"noc.packets", "count", double(packets)},
        {"noc.bytes", "bytes", double(bytes)},
        {"noc.traffic_overhead_pct", "%",
         ratio(100.0 * double(extra_bytes), double(base))},
        {"fence.strong", "count", double(strong)},
        {"fence.weak", "count", double(weak)},
        {"fence.bs_inserts", "count", bs_inserts},
        {"fence.grt_deposits", "count", double(grt_deposits)},
        {"fence.wplus_recoveries", "count", double(wplus)},
        {"fence.bounced_writes", "count", double(bounced)},
        {"workloads.setup_ms", "ms", per_job_ms("workloads.setup")},
        {"harness.harvest_ms", "ms", per_job_ms("harness.harvest")},
        {"harness.stats_json_ms", "ms", per_job_ms("harness.stats_json")},
        {"harness.stats_json_kb", "KB", ratio(double(json_bytes) / 1024, n)},
        {"analysis.synthesize_ms", "ms", per_job_ms("analysis.synthesize")},
        {"analysis.minimize_ms", "ms", per_job_ms("analysis.minimize")},
        {"analysis.minimize_runs", "count", double(minimize_runs)},
        {"check.events_recorded", "count", double(check_events)},
        {"check.check_ms", "ms", per_job_ms("check.check")},
        {"check.inconclusive_runs", "count", double(inconclusive)},
        {"service.config_key_us", "us",
         per_call("service.config_key", 1e6)},
        {"service.lookup_ms", "ms", per_call("service.lookup", 1e3)},
        {"service.lookup_miss_ms", "ms",
         per_call("service.lookup_miss", 1e3)},
        {"service.store_ms", "ms", per_call("service.store", 1e3)},
        {"service.entry_kb", "KB", entryKb(cache_dir, t.jobs)},
        {"service.campaign_ms_per_job", "ms", campaign_ms_per_job},
    };
    fs::remove_all(root);
    return t;
}

} // namespace perfbench

#include "harness/experiment.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>

#include "analysis/corpus.hh"
#include "check/axioms.hh"
#include "harness/heartbeat.hh"
#include "harness/report.hh"
#include "runtime/marks.hh"
#include "service/config_key.hh"
#include "service/result_cache.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace asf::harness
{

namespace
{

std::string &
statsJsonPathRef()
{
    static std::string path;
    return path;
}

std::vector<std::string> &
statsJsonRuns()
{
    static std::vector<std::string> runs;
    return runs;
}

/** Serializes global-log appends + file rewrites: the sweep runner
 *  flushes completed jobs from worker threads. */
std::mutex &
statsLogMutex()
{
    static std::mutex m;
    return m;
}

/** Per-thread capture sink installed by ScopedRunCapture (sweeps). */
thread_local std::vector<std::string> *runCaptureSink = nullptr;

std::atomic<bool> fastForwardDefault{true};
std::atomic<Tick> watchdogDefault{1'000'000};
std::atomic<bool> checkExecutionDefault{false};
std::atomic<Tick> statsIntervalDefault_{0};

std::string &
obsDirRef()
{
    static std::string dir;
    return dir;
}

std::string &
fenceProfilePathRef()
{
    static std::string path;
    return path;
}

/** Serializes raw-profile appends from parallel sweep jobs. */
std::mutex &
fenceProfileMutex()
{
    static std::mutex m;
    return m;
}

/** Append this run's raw per-fence records to the JSONL dump. */
void
appendFenceProfileRaw(System &sys)
{
    const std::string &path = fenceProfilePathRef();
    if (path.empty() || !sys.fenceProfiler())
        return;
    std::lock_guard<std::mutex> lock(fenceProfileMutex());
    static bool truncated = false;
    std::ofstream f(path, truncated ? std::ios::app : std::ios::trunc);
    if (!f) {
        warn("cannot write fence profile to '%s'", path.c_str());
        return;
    }
    truncated = true;
    sys.fenceProfiler()->dumpRawJsonl(f);
}

/** Run label like "fib/W+/8c": the trace process-row name and the
 *  heartbeat job label. */
std::string
runLabel(const std::string &workload, FenceDesign design, unsigned cores)
{
    return format("%s/%s/%uc", workload.c_str(), fenceDesignName(design),
                  cores);
}

void flushStatsJsonLocked();

/** Hand one run document to the thread's capture sink or the global
 *  log — the delivery tail shared by fresh runs and cache hits (a hit
 *  splices the stored bytes through the exact same path, which is what
 *  keeps warm logs byte-identical to cold ones). */
void
deliverRunDoc(std::string doc)
{
    if (runCaptureSink) {
        runCaptureSink->push_back(std::move(doc));
        return;
    }
    if (statsJsonPathRef().empty())
        return;
    std::lock_guard<std::mutex> lock(statsLogMutex());
    statsJsonRuns().push_back(std::move(doc));
    flushStatsJsonLocked();
}

/** One run's stats document (the result's own fields, then the
 *  System's full stats as `system`). */
std::string
runDocument(System &sys, const ExperimentResult &r)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("workload", r.workload);
        w.field("design", fenceDesignName(r.design));
        w.field("cores", r.cores);
        w.field("cycles", uint64_t(r.cycles));
        w.field("valid", r.valid);
        if (!r.valid)
            w.field("validationError", r.validationError);
        if (!r.checkVerdict.empty())
            w.field("checkVerdict", r.checkVerdict);

        w.key("metrics").beginObject();
        w.field("tasks", r.tasks);
        w.field("steals", r.steals);
        w.field("commits", r.commits);
        w.field("aborts", r.aborts);
        w.field("instrRetired", r.instrRetired);
        w.field("fencesStrong", r.fencesStrong);
        w.field("fencesWeak", r.fencesWeak);
        w.field("weeDemotions", r.weeDemotions);
        w.field("bouncedWrites", r.bouncedWrites);
        w.field("retriesPerBouncedWrite", r.retriesPerBouncedWrite);
        w.field("bsLinesPerWf", r.bsLinesPerWf);
        w.field("wPlusRecoveries", r.wPlusRecoveries);
        w.field("loadSquashes", r.loadSquashes);
        w.field("bytesBase", r.bytesBase);
        w.field("bytesRetry", r.bytesRetry);
        w.field("bytesGrt", r.bytesGrt);
        w.field("throughputTxnPerKcycle", r.throughputTxnPerKcycle());
        w.field("trafficOverheadPct", r.trafficOverheadPct());
        w.endObject();

        w.key("breakdown").beginObject();
        w.field("busy", r.breakdown.busy);
        w.field("fenceStall", r.breakdown.fenceStall);
        w.field("otherStall", r.breakdown.otherStall);
        w.field("idle", r.breakdown.idle);
        for (unsigned i = 0; i < numStallBuckets; i++)
            w.field(stallBucketJsonKey(StallBucket(i)),
                    r.breakdown.stall[i]);
        w.endObject();

        std::ostringstream sys_json;
        sys.dumpStatsJson(sys_json);
        std::string doc = sys_json.str();
        while (!doc.empty() && doc.back() == '\n')
            doc.pop_back();
        w.key("system").raw(doc);
        w.endObject();
    }
    return os.str();
}

} // namespace

ScopedRunCapture::ScopedRunCapture(std::vector<std::string> &sink)
    : prev_(runCaptureSink)
{
    runCaptureSink = &sink;
}

ScopedRunCapture::~ScopedRunCapture()
{
    runCaptureSink = prev_;
}

void
appendStatsJsonRuns(std::vector<std::string> docs)
{
    if (docs.empty())
        return;
    // A capture on the merging thread intercepts the whole batch: this
    // lets an outer capture observe a sweep's merged output (nested
    // sweeps, tests) without touching the global log.
    if (runCaptureSink) {
        for (auto &d : docs)
            runCaptureSink->push_back(std::move(d));
        return;
    }
    appendStatsJsonRunsDirect(std::move(docs));
}

bool
runCaptureActive()
{
    return runCaptureSink != nullptr;
}

void
appendStatsJsonRunsDirect(std::vector<std::string> docs)
{
    if (docs.empty())
        return;
    // No log file configured: drop the batch instead of accumulating
    // documents that can never be written.
    if (statsJsonPathRef().empty())
        return;
    std::lock_guard<std::mutex> lock(statsLogMutex());
    auto &runs = statsJsonRuns();
    for (auto &d : docs)
        runs.push_back(std::move(d));
    flushStatsJsonLocked();
}

void
setFastForwardEnabled(bool on)
{
    fastForwardDefault.store(on, std::memory_order_relaxed);
}

bool
directExecEnabled()
{
    return false;
}

bool
fastForwardEnabled()
{
    return fastForwardDefault.load(std::memory_order_relaxed);
}

void
setCheckExecutionEnabled(bool on)
{
    checkExecutionDefault.store(on, std::memory_order_relaxed);
}

bool
checkExecutionEnabled()
{
    return checkExecutionDefault.load(std::memory_order_relaxed);
}

void
setWatchdogCyclesDefault(Tick cycles)
{
    watchdogDefault.store(cycles, std::memory_order_relaxed);
}

Tick
watchdogCyclesDefault()
{
    return watchdogDefault.load(std::memory_order_relaxed);
}

void
setStatsIntervalDefault(Tick interval)
{
    statsIntervalDefault_.store(interval, std::memory_order_relaxed);
}

Tick
statsIntervalDefault()
{
    return statsIntervalDefault_.load(std::memory_order_relaxed);
}

void
setObsDir(const std::string &dir)
{
    obsDirRef() = dir;
}

std::string
resolveObsPath(const std::string &path)
{
    const std::string &dir = obsDirRef();
    if (path.empty() || dir.empty() ||
        std::filesystem::path(path).is_absolute())
        return path;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        warn("cannot create obs dir '%s': %s", dir.c_str(),
             ec.message().c_str());
    return (std::filesystem::path(dir) / path).string();
}

void
setFenceProfilePath(const std::string &path)
{
    fenceProfilePathRef() = resolveObsPath(path);
}

const std::string &
fenceProfilePath()
{
    return fenceProfilePathRef();
}

void
setStatsJsonPath(const std::string &path)
{
    statsJsonPathRef() = resolveObsPath(path);
}

const std::string &
statsJsonPath()
{
    return statsJsonPathRef();
}

void
setTracePath(const std::string &path)
{
    Trace::get().open(resolveObsPath(path));
}

namespace
{

/** Rewrite the log via a temp file + rename: a reader (or a crash) can
 *  never observe a torn document, only the previous complete one.
 *  Caller holds statsLogMutex(). */
void
flushStatsJsonLocked()
{
    const std::string &path = statsJsonPathRef();
    if (path.empty())
        return;
    std::string tmp = path + format(".tmp.%ld", long(::getpid()));
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (!f) {
            warn("cannot write stats JSON to '%s'", tmp.c_str());
            return;
        }
        f << "{\"schemaVersion\":4,\"runs\":[";
        const auto &runs = statsJsonRuns();
        for (size_t i = 0; i < runs.size(); i++)
            f << (i ? ",\n" : "\n") << runs[i];
        f << "\n]}\n";
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("cannot rename '%s' over '%s': %s", tmp.c_str(),
             path.c_str(), ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace

double
ExperimentResult::throughputTxnPerKcycle() const
{
    return cycles ? 1000.0 * double(commits) / double(cycles) : 0.0;
}

double
ExperimentResult::trafficOverheadPct() const
{
    uint64_t base = bytesBase;
    return base ? 100.0 * double(bytesRetry + bytesGrt) / double(base)
                : 0.0;
}

double
ExperimentResult::fencesPer1000Instr(uint64_t count) const
{
    return instrRetired ? 1000.0 * double(count) / double(instrRetired)
                        : 0.0;
}

void
harvestStats(System &sys, ExperimentResult &r, bool require_sc)
{
    r.cores = sys.numCores();
    r.breakdown = sys.breakdown();
    r.instrRetired = sys.totalInstrRetired();
    r.watchdogFired = sys.watchdogFired();

    r.tasks = sys.guestCounter(marks::taskDone);
    r.steals = sys.guestCounter(marks::taskStolen);
    r.commits = sys.guestCounter(marks::txCommit);
    r.commitsRw = sys.guestCounter(workloads::markTxCommitRw);
    r.aborts = sys.guestCounter(marks::txAbort);

    uint64_t bs_samples = 0;
    double bs_sum = 0.0;
    uint64_t retry_samples = 0;
    double retry_sum = 0.0;
    for (unsigned i = 0; i < sys.numCores(); i++) {
        const StatGroup &cs = sys.core(NodeId(i)).stats();
        r.fencesStrong += cs.get("fencesStrong");
        r.fencesWeak += cs.get("fencesWeak") + cs.get("fencesWee");
        r.weeDemotions += cs.get("weeMultiModuleDemotions") +
                          cs.get("weeWatchdogDemotions");
        r.bouncedWrites += cs.get("bouncedWrites");
        r.wPlusRecoveries += cs.get("wPlusRecoveries");
        r.loadSquashes += cs.get("loadSquashes");
        r.bsFullHolds += cs.get("bsFullHolds");
        // Merge the per-core averages weighted by sample count.
        StatGroup &mut = sys.core(NodeId(i)).stats();
        bs_samples += mut.average("bsLinesPerWf").count();
        bs_sum += mut.average("bsLinesPerWf").sum();
        retry_samples += mut.average("retriesPerBouncedWrite").count();
        retry_sum += mut.average("retriesPerBouncedWrite").sum();
    }
    r.bsLinesPerWf = bs_samples ? bs_sum / double(bs_samples) : 0.0;
    r.retriesPerBouncedWrite =
        retry_samples ? retry_sum / double(retry_samples) : 0.0;

    const StatGroup &ns = sys.mesh().stats();
    r.bytesBase = ns.get("bytesBase");
    r.bytesRetry = ns.get("bytesRetry");
    r.bytesGrt = ns.get("bytesGrt");

    if (const check::ExecutionRecorder *rec = sys.executionRecorder()) {
        check::CheckOptions copt;
        copt.requireSc = require_sc;
        r.checkVerdict =
            check::verdictName(check::checkExecution(*rec, copt).verdict);
    }
}

namespace
{

/** What one workload family contributes to a run; runExperiment does
 *  everything else. */
struct Family
{
    /** ExperimentResult::workload, and the head of the run label. */
    std::string workload;
    /** Run identity outside SystemConfig: the ConfigKey's `extra`. */
    std::string extra;
    /** The System::run() limit. */
    Tick budget = 0;
    /** The budget is a cap the workload must finish within; false for
     *  a measuring window (ustm throughput). */
    bool mustFinish = true;
    /** Record and check the execution whatever --check says (synth). */
    bool forceCheck = false;
    /** The execution verdict requires SC, not just TSO. */
    bool requireSc = false;
    /** Called on a cache miss before the System is built (synth
     *  synthesizes here); `cache` is null unless this run may use it. */
    std::function<void(service::ResultCache *cache)> prepare = {};
    /** Install the workload on the fresh System. */
    std::function<void(System &)> setup;
    /** The family's validity check of a run that neither tripped the
     *  watchdog nor overran a cap: "" when valid, else the reason. */
    std::function<std::string(System &, const ExperimentResult &)> check;
};

/**
 * The one run engine behind every runner: derive the config, check the
 * cache, build and run the System, harvest, judge, record.
 */
ExperimentResult
runExperiment(const SystemConfig &machine, const Family &f,
              std::ostream *stats_out)
{
    // The host and observer fields come from the process-wide defaults.
    SystemConfig cfg = machine;
    cfg.fastForward = fastForwardEnabled();
    cfg.watchdogCycles = watchdogCyclesDefault();
    cfg.fenceProfileRaw = !fenceProfilePath().empty();
    cfg.checkExecution = f.forceCheck || checkExecutionEnabled();
    cfg.statsInterval = statsIntervalDefault();

    std::string label = runLabel(f.workload, cfg.design, cfg.numCores);
    ASF_TRACE(beginRun(label));

    // The cache front. Runs that need a live System on the side (a
    // --stats dump, a raw fence profile, a Chrome trace) neither read
    // nor fill the cache, so stored documents come from plain runs and
    // a hit never loses side outputs. A hit splices the stored document
    // into the log, with zero cycles simulated.
    service::ResultCache *cache = service::activeResultCache();
    bool eligible = cache && !stats_out && fenceProfilePath().empty() &&
                    !Trace::get().enabled();
    service::ConfigKey key;
    size_t hb_job;
    if (cache || activeHeartbeat(hb_job))
        key = service::makeConfigKey(cfg, label, f.extra);
    heartbeatBindRun(cfg, label, key.digest);
    if (eligible) {
        if (auto hit = cache->lookup(key)) {
            deliverRunDoc(std::move(hit->doc));
            hit->result.configDigest = key.digest;
            return std::move(hit->result);
        }
    }
    auto started = std::chrono::steady_clock::now();
    if (f.prepare)
        f.prepare(eligible ? cache : nullptr);

    System sys(cfg);
    f.setup(sys);
    ExperimentResult r;
    r.workload = f.workload;
    r.design = cfg.design;

    auto result = sys.run(f.budget);
    r.cycles = sys.now();
    harvestStats(sys, r, f.requireSc);
    if (stats_out)
        sys.dumpStats(*stats_out);

    if (result == System::RunResult::Watchdog)
        r.validationError = "livelock watchdog fired (no forward progress)";
    else if (f.mustFinish && result != System::RunResult::AllDone)
        r.validationError = "did not finish within the cycle budget";
    else
        r.validationError = f.check(sys, r);
    r.valid = r.validationError.empty();
    r.configDigest = key.digest;

    appendFenceProfileRaw(sys);
    // A capture sink (or the cache) wants the document even when no log
    // file is set (the bytes may end up in a file chosen at merge time).
    if (statsJsonPathRef().empty() && !runCaptureSink && !eligible)
        return r;
    std::string doc = runDocument(sys, r);
    if (eligible)
        cache->store(key, r, doc,
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - started)
                         .count());
    deliverRunDoc(std::move(doc));
    return r;
}

SystemConfig
defaultMachine(FenceDesign design, unsigned cores)
{
    SystemConfig m;
    m.numCores = cores;
    m.design = design;
    return m;
}

std::string
budgetText(Tick budget)
{
    return format("budget %llu", (unsigned long long)budget);
}

/** Shared TLRW validation: lock-protected increments must balance. */
std::string
tlrwError(System &sys, const workloads::TlrwBench &bench,
          const workloads::TlrwSetup &setup, bool exact,
          const ExperimentResult &r)
{
    uint64_t sum = workloads::sumTlrwData(sys, setup);
    uint64_t expect = uint64_t(bench.writesRw) * r.commitsRw;
    // Mid-run snapshots race the protocol. The observable sum may UNDER-
    // count by any amount (a dirty line in flight inside an InvAck hides
    // every increment it accumulated), so only drained runs check the
    // lower bound. Overcounting is bounded by the in-flight transactions
    // (unmarked increments), one per core.
    uint64_t slack =
        exact ? 0 : uint64_t(bench.writesRw) * sys.numCores();
    uint64_t lower = exact ? expect : 0;
    if (sum >= lower && sum <= expect + slack)
        return "";
    return format(
        "data sum %llu outside [%llu, %llu]: serializability broken",
        (unsigned long long)sum, (unsigned long long)lower,
        (unsigned long long)(expect + slack));
}

} // namespace

ExperimentResult
runCilkExperiment(const workloads::CilkApp &app,
                  const SystemConfig &machine, Tick max_cycles,
                  std::ostream *stats_out)
{
    uint64_t expected = 0;
    Family f{
        .workload = app.name,
        .extra = budgetText(max_cycles),
        .budget = max_cycles,
        .setup =
            [&](System &sys) {
                expected = workloads::setupCilkApp(sys, app).expectedTasks;
            },
        .check = [&](System &, const ExperimentResult &r) -> std::string {
            if (r.tasks == expected)
                return "";
            return format("executed %llu tasks, expected %llu (SC "
                          "violation or lost/duplicated task)",
                          (unsigned long long)r.tasks,
                          (unsigned long long)expected);
        }};
    return runExperiment(machine, f, stats_out);
}

ExperimentResult
runCilkExperiment(const workloads::CilkApp &app, FenceDesign design,
                  unsigned cores, Tick max_cycles,
                  std::ostream *stats_out)
{
    return runCilkExperiment(app, defaultMachine(design, cores),
                             max_cycles, stats_out);
}

ExperimentResult
runUstmExperiment(const workloads::TlrwBench &bench,
                  const SystemConfig &machine, Tick run_cycles,
                  std::ostream *stats_out)
{
    workloads::TlrwSetup setup;
    Family f{
        .workload = bench.name,
        .extra = budgetText(run_cycles),
        .budget = run_cycles,
        .mustFinish = false,
        .setup =
            [&](System &sys) {
                setup = workloads::setupTlrwWorkload(sys, bench, 0);
            },
        // In-flight transactions may have performed their increments
        // but not yet reached the commit mark, hence the per-thread
        // slack.
        .check = [&](System &sys, const ExperimentResult &r) {
            return tlrwError(sys, bench, setup, false, r);
        }};
    return runExperiment(machine, f, stats_out);
}

ExperimentResult
runUstmExperiment(const workloads::TlrwBench &bench, FenceDesign design,
                  unsigned cores, Tick run_cycles,
                  std::ostream *stats_out)
{
    return runUstmExperiment(bench, defaultMachine(design, cores),
                             run_cycles, stats_out);
}

ExperimentResult
runStampExperiment(const workloads::StampApp &app,
                   const SystemConfig &machine, Tick max_cycles,
                   std::ostream *stats_out)
{
    workloads::TlrwSetup setup;
    Family f{
        .workload = app.bench.name,
        .extra = budgetText(max_cycles),
        .budget = max_cycles,
        .setup =
            [&](System &sys) {
                setup = workloads::setupTlrwWorkload(sys, app.bench,
                                                     app.txnsPerThread);
            },
        .check = [&](System &sys, const ExperimentResult &r) -> std::string {
            uint64_t expected = uint64_t(app.txnsPerThread) * sys.numCores();
            if (r.commits != expected)
                return format("committed %llu txns, expected %llu",
                              (unsigned long long)r.commits,
                              (unsigned long long)expected);
            return tlrwError(sys, app.bench, setup, true, r);
        }};
    return runExperiment(machine, f, stats_out);
}

ExperimentResult
runStampExperiment(const workloads::StampApp &app, FenceDesign design,
                   unsigned cores, Tick max_cycles,
                   std::ostream *stats_out)
{
    return runStampExperiment(app, defaultMachine(design, cores),
                              max_cycles, stats_out);
}

ExperimentResult
runSynthExperiment(const std::string &kit, FenceDesign design,
                   bool minimize_placement, Tick max_cycles,
                   std::ostream *stats_out)
{
    analysis::CorpusEntry entry = analysis::buildCorpusEntry(kit);
    unsigned cores =
        unsigned(std::max<size_t>(4, entry.threads.size()));
    bool sc = entry.property == analysis::MinimizeProperty::ScEquivalence;
    std::vector<std::shared_ptr<const Program>> progs;
    Family f{
        .workload = "synth:" + kit,
        .extra = format("budget %llu minimize %d",
                        (unsigned long long)max_cycles,
                        minimize_placement ? 1 : 0),
        .budget = max_cycles ? max_cycles : entry.maxCycles,
        // The verdict is the point of a synth run; checking is not
        // optional. Delay-set covered placements must look SC, not
        // merely TSO (Shasha-Snir).
        .forceCheck = true,
        .requireSc = sc,
        // Synthesis waits for the cache check on purpose: a hit saves
        // the (deterministic) synthesis work too, not just the
        // simulation.
        .prepare =
            [&](service::ResultCache *cache) {
                analysis::SynthResult synth =
                    analysis::synthesize(entry.threads);
                progs = synth.fenced;
                if (!minimize_placement)
                    return;
                analysis::MinimizeOptions mopt = entry.minimizeOptions();
                auto compute = [&] {
                    return analysis::minimize(synth, mopt).insertions;
                };
                // The minimizer never reads `design`, so a cached run
                // shares the kit's placement with the other designs'.
                Placement placed =
                    cache ? cache->placement(
                                service::makePlacementKey(
                                    kit, synth.insertions, mopt),
                                synth, compute)
                          : compute();
                progs = analysis::applyPlacement(synth.input, placed);
            },
        .setup =
            [&](System &sys) {
                for (size_t t = 0; t < progs.size(); t++)
                    sys.loadProgram(NodeId(t), progs[t]);
                if (entry.setup)
                    entry.setup(sys);
            },
        .check = [&](System &sys, const ExperimentResult &r) -> std::string {
            if (r.checkVerdict ==
                check::verdictName(check::Verdict::Violation)) {
                check::CheckOptions copt;
                copt.requireSc = sc;
                return format(
                    "axiomatic checker violation: %s",
                    check::checkExecution(*sys.executionRecorder(), copt)
                        .axiom.c_str());
            }
            if (entry.invariant && !entry.invariant(sys))
                return "functional invariant does not hold";
            return "";
        }};
    return runExperiment(defaultMachine(design, cores), f, stats_out);
}

} // namespace asf::harness

/**
 * @file
 * Microbenchmarks of the simulator substrate itself, in two parts:
 *
 * 1. A host-performance report (BENCH_simcore.json, schemaVersion 4):
 *    each workload is run under both run-loop modes — `noFastForward`
 *    (the reference: every core ticks every cycle) and `fastForward`
 *    (per-core sleep plus the all-asleep jump; see DESIGN.md "Run-loop
 *    arbitration") — recording host wall-clock (the median of five
 *    interleaved rounds), simulated cycles per host second and
 *    executed events per second for each, plus the speedup over the
 *    reference. The workloads span a fence-heavy cold-miss stream
 *    (idle-dominated), 8- and 32-core busy spins (compute-bound, so
 *    sleep rarely pays), and a mixed compute+fence kernel. Both modes
 *    must produce a byte-identical full stats dump — the report
 *    carries a per-mode FNV-1a digest of it and the run aborts on any
 *    mismatch (tests/sys/test_fast_forward.cc checks the same
 *    invariant over fuzz programs and runtime kernels). An
 *    `observatory` block records the wall-clock overhead of interval
 *    sampling plus hot-line tracking on the busy-spin kernel (target
 *    <= 5%, gated at 10% by tools/stats_diff.py check-perf), with the
 *    same observation-only identity requirement.
 *
 * 2. google-benchmark microbenchmarks of the individual kernels:
 *    event-queue throughput, cache-array lookups, Bypass Set probes,
 *    mesh routing, and end-to-end simulated cycles per host second.
 *
 * Usage: simcore_microbench [--out PATH] [--json-only] [--quick]
 *                           [--only SUBSTRING] [google-benchmark flags]
 * --only filters the report's workloads by name substring (their
 * relative timings are only meaningful within one process run).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fence/bypass_set.hh"
#include "harness/report.hh"
#include "mem/cache_array.hh"
#include "noc/mesh.hh"
#include "prog/assembler.hh"
#include "sim/interval_stats.hh"
#include "sim/logging.hh"
#include "sys/system.hh"

using namespace asf;

namespace
{

// --- part 1: run-loop host-performance report --------------------------

/** Report keys of the two run-loop modes, indexed by fastForward. */
const char *const modeKey[] = {"noFastForward", "fastForward"};

struct HostRun
{
    double seconds = 0;
    /** Process CPU time: the sim is single-threaded, so this is the
     *  same quantity as `seconds` minus scheduler/SMT noise. The
     *  observatory overhead ratio uses it; the throughput numbers keep
     *  wall-clock. */
    double cpuSeconds = 0;
    uint64_t simCycles = 0;
    uint64_t events = 0;
    uint64_t instrRetired = 0;
    uint64_t fastForwardedCycles = 0;
    /** Interval samples taken (stored + dropped), 0 when off. */
    uint64_t samplesTaken = 0;
    /** Full stats dump, for the cross-mode identity check. */
    std::string statsJson;

    double cyclesPerSec() const
    {
        return seconds > 0 ? double(simCycles) / seconds : 0.0;
    }
    double eventsPerSec() const
    {
        return seconds > 0 ? double(events) / seconds : 0.0;
    }
};

/** FNV-1a 64 over the stats dump; the report carries the digest so
 *  tools/stats_diff.py check-perf can re-verify cross-mode identity
 *  without shipping the full dumps. */
std::string
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

/** Each core streams stores through a never-revisited region — every
 *  one a ~200-cycle off-chip miss — draining each through a strong
 *  fence, then cold-loads from a second region. Nearly every cycle is
 *  a fence or miss stall with only a handful of in-flight events, so
 *  the clock can jump in large steps: the fast-forward best case, and
 *  the access pattern fence-heavy code (streaming producers behind
 *  release fences) actually exhibits. */
std::shared_ptr<const Program>
fenceHeavyProgram(int64_t iters)
{
    Assembler a("fence_heavy");
    // r1 = store-stream cursor, r2 = load-stream cursor (host-set).
    a.li(4, 0);
    a.li(5, iters);
    a.bind("loop");
    a.addi(3, 3, 1);
    a.st(1, 0, 3);
    a.fence(FenceRole::Critical);
    a.ld(6, 2, 0);
    a.addi(1, 1, 4096);
    a.addi(2, 2, 4096);
    a.addi(4, 4, 1);
    a.blt(4, 5, "loop");
    a.halt();
    return std::make_shared<const Program>(a.finish());
}

/** Dependent ALU chain with a same-line load/store: no idle cycles, so
 *  fast-forward never triggers. Control for the report. */
std::shared_ptr<const Program>
busySpinProgram(int64_t iters)
{
    Assembler a("busy_spin");
    a.li(4, 0);
    a.li(5, iters);
    a.bind("loop");
    a.ld(2, 1, 0);
    a.addi(2, 2, 1);
    a.st(1, 0, 2);
    a.addi(4, 4, 1);
    a.blt(4, 5, "loop");
    a.halt();
    return std::make_shared<const Program>(a.finish());
}

/** Alternating regimes inside one loop body: a 64-cycle compute block
 *  (busy, so the core stays awake) followed by a cold-miss store
 *  drained through a strong fence and a cold-miss load (fast-forward's
 *  best case). */
std::shared_ptr<const Program>
computeFenceMixProgram(int64_t iters)
{
    Assembler a("compute_fence_mix");
    a.li(4, 0);
    a.li(5, iters);
    a.bind("loop");
    a.compute(64);
    a.addi(3, 3, 1);
    a.st(1, 0, 3);
    a.fence(FenceRole::Critical);
    a.ld(6, 2, 0);
    a.addi(1, 1, 4096);
    a.addi(2, 2, 4096);
    a.addi(4, 4, 1);
    a.blt(4, 5, "loop");
    a.halt();
    return std::make_shared<const Program>(a.finish());
}

enum class Kernel
{
    FenceHeavy,
    BusySpin,
    ComputeFenceMix,
};

HostRun
timeWorkload(Kernel kernel, unsigned cores, bool fast_forward,
             int64_t iters, Tick stats_interval = 0, bool hotline = true,
             bool neutral_dump = false)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.design = FenceDesign::SPlus;
    cfg.fastForward = fast_forward;
    cfg.statsInterval = stats_interval;
    cfg.hotLineTracking = hotline;
    System sys(cfg);
    auto prog = kernel == Kernel::FenceHeavy ? fenceHeavyProgram(iters)
                : kernel == Kernel::BusySpin ? busySpinProgram(iters)
                                             : computeFenceMixProgram(iters);
    for (unsigned i = 0; i < cores; i++) {
        sys.loadProgram(NodeId(i), prog);
        // Disjoint per-core streams; the 4 KiB stride stays inside
        // the same home-node residue class (homes rotate every 512 B),
        // so every access cold-misses to memory via the core's LOCAL
        // directory. All cores then have identical per-iteration
        // timing and stay phase-locked, the natural behaviour of a
        // bank-aligned streaming producer.
        sys.core(NodeId(i)).setReg(1, 0x1000000 + Addr(i) * 512);
        sys.core(NodeId(i)).setReg(2, 0x4000000 + Addr(i) * 512);
    }

    std::clock_t cpu_start = std::clock();
    auto start = std::chrono::steady_clock::now();
    auto result = sys.run(1'000'000'000);
    auto stop = std::chrono::steady_clock::now();
    std::clock_t cpu_stop = std::clock();
    if (result != System::RunResult::AllDone)
        fatal("microbench workload did not finish");

    HostRun r;
    r.seconds = std::chrono::duration<double>(stop - start).count();
    r.cpuSeconds = double(cpu_stop - cpu_start) / CLOCKS_PER_SEC;
    r.simCycles = sys.now();
    r.events = sys.eventQueue().executedEvents();
    r.instrRetired = sys.totalInstrRetired();
    r.fastForwardedCycles = sys.fastForwardedCycles();
    if (const IntervalStats *is = sys.intervalStats())
        r.samplesTaken = is->size() + is->dropped();
    std::ostringstream ss;
    // neutral_dump excludes the timeline/hotLines blocks so the dump is
    // comparable between observatory-on and observatory-off runs.
    sys.dumpStatsJson(ss, /*include_profile=*/true,
                      /*include_check=*/true,
                      /*include_observatory=*/!neutral_dump);
    r.statsJson = ss.str();
    return r;
}

/**
 * Observatory overhead: the busy-spin kernel (the highest event rate
 * per simulated cycle, so sampling and hot-line bookkeeping have the
 * least useful work to hide behind) with the observatory fully off
 * versus interval sampling at ~10k intervals plus hot-line tracking.
 * Overhead is measured on process CPU time (wall-clock on a shared
 * host swings tens of percent on runs this size, drowning a
 * single-digit effect). Off and on runs alternate, off first and last,
 * and the overhead is the median over the `reps` on-runs of each one's
 * ratio to the mean of the off-runs on either side, so a slow or fast
 * spell of a shared host lands on both sides of a ratio. The neutral
 * stats dumps must be byte-identical — observation only, enforced here
 * too.
 */
struct ObsOverhead
{
    Tick intervalCycles = 0;
    uint64_t samplesTaken = 0;
    double secondsOff = 0; ///< median over the off-runs
    double secondsOn = 0;  ///< median over the on-runs
    double ratio = 1.0;    ///< median of the bracketed on/off ratios
    bool identical = false;

    double overheadPct() const { return (ratio - 1.0) * 100.0; }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

ObsOverhead
measureObservatory(int64_t iters, int reps)
{
    constexpr unsigned cores = 8;
    // Fast-forward on: the busy spin never idles, so the run loop
    // crosses every interval boundary cycle-by-cycle and actually
    // takes ~10k samples.
    constexpr bool ff = true;
    // Size the interval off a probe run so the on-run takes ~10k
    // samples regardless of --quick scaling.
    HostRun probe = timeWorkload(Kernel::BusySpin, cores, ff, iters,
                                 /*stats_interval=*/0, /*hotline=*/false,
                                 /*neutral_dump=*/true);
    ObsOverhead o;
    o.intervalCycles = std::max<Tick>(1, probe.simCycles / 10'000);
    o.identical = true;
    auto run_off = [&] {
        return timeWorkload(Kernel::BusySpin, cores, ff, iters, 0, false,
                            true);
    };
    HostRun off = run_off();
    std::vector<double> offs{off.cpuSeconds}, ons, ratios;
    HostRun on_last;
    for (int i = 0; i < reps; i++) {
        HostRun on = timeWorkload(Kernel::BusySpin, cores, ff, iters,
                                  o.intervalCycles, true, true);
        HostRun next_off = run_off();
        o.identical = o.identical && on.statsJson == off.statsJson &&
                      next_off.statsJson == off.statsJson;
        ons.push_back(on.cpuSeconds);
        offs.push_back(next_off.cpuSeconds);
        ratios.push_back(2.0 * on.cpuSeconds /
                         (off.cpuSeconds + next_off.cpuSeconds));
        off = next_off;
        on_last = on;
    }
    o.secondsOff = median(offs);
    o.secondsOn = median(ons);
    o.ratio = median(ratios);
    o.samplesTaken = on_last.samplesTaken;
    return o;
}

void
emitRun(harness::JsonWriter &w, const char *key, const HostRun &r)
{
    w.key(key).beginObject();
    w.field("hostSeconds", r.seconds);
    w.field("simCycles", r.simCycles);
    w.field("simCyclesPerSec", r.cyclesPerSec());
    w.field("eventsExecuted", r.events);
    w.field("eventsPerSec", r.eventsPerSec());
    w.field("instrRetired", r.instrRetired);
    w.field("fastForwardedCycles", r.fastForwardedCycles);
    w.field("statsDigest", fnv1a(r.statsJson));
    w.endObject();
}

void
writeReport(const std::string &path, bool quick,
            const std::string &only)
{
    struct Entry
    {
        const char *name;
        Kernel kernel;
        unsigned cores;
        int64_t iters;
    };
    // ~1M simulated cycles each: long enough that host timing is
    // dominated by the simulation loop, short enough for CI. --quick
    // divides the iteration counts by 4.
    const Entry entries[] = {
        {"fence_heavy_8core", Kernel::FenceHeavy, 8, 2000},
        {"busy_spin_8core", Kernel::BusySpin, 8, 100000},
        {"busy_spin_32core", Kernel::BusySpin, 32, 20000},
        {"compute_fence_mix_8core", Kernel::ComputeFenceMix, 8, 3000},
    };
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        fatal("cannot write '%s'", path.c_str());
    harness::JsonWriter w(f);
    w.beginObject();
    w.field("schemaVersion", uint64_t(4));
    w.field("design", "S+");
    w.field("quick", quick);
    w.key("workloads").beginArray();
    for (const Entry &e : entries) {
        if (!only.empty() && std::string(e.name).find(only) ==
                                 std::string::npos)
            continue;
        int64_t iters = quick ? e.iters / 4 : e.iters;
        // Warm-up run absorbs first-touch host effects (page faults,
        // allocator growth), then time both modes in kRounds
        // interleaved rounds and keep each mode's median time: one
        // slow or fast spell of a shared host then moves no ratio.
        timeWorkload(e.kernel, e.cores, false, iters / 4);
        constexpr int kRounds = 5;
        HostRun runs[2];
        std::vector<double> seconds[2];
        for (int round = 0; round < kRounds; round++)
            for (bool ff : {false, true}) {
                runs[ff] = timeWorkload(e.kernel, e.cores, ff, iters);
                seconds[ff].push_back(runs[ff].seconds);
            }
        for (int m = 0; m < 2; m++)
            runs[m].seconds = median(seconds[m]);
        const HostRun &base = runs[0];
        // The identity invariant, over the FULL stats dump: any
        // divergence between run-loop modes is a simulator bug, not a
        // benchmarking artifact — refuse to write a report.
        if (runs[1].statsJson != base.statsJson)
            fatal("%s: fastForward changed simulated results "
                  "(cycles %llu vs %llu)",
                  e.name, (unsigned long long)runs[1].simCycles,
                  (unsigned long long)base.simCycles);
        double speedup_ff = runs[1].seconds > 0
                                ? base.seconds / runs[1].seconds : 0.0;
        w.beginObject();
        w.field("name", e.name);
        w.field("cores", e.cores);
        for (int m = 0; m < 2; m++)
            emitRun(w, modeKey[m], runs[m]);
        w.field("speedupFastForward", speedup_ff);
        w.field("statsIdentical", true);
        w.endObject();
        std::printf("%-24s %9.0f cyc/s exact, %9.0f ff (%.2fx; "
                    "%llu/%llu cycles jumped)\n",
                    e.name, base.cyclesPerSec(), runs[1].cyclesPerSec(),
                    speedup_ff,
                    (unsigned long long)runs[1].fastForwardedCycles,
                    (unsigned long long)runs[1].simCycles);
    }
    w.endArray();

    // Full-length runs even under --quick: the measured effect is a
    // few percent, so the ~45ms quick-sized runs would be dominated by
    // host noise.
    ObsOverhead obs = measureObservatory(100'000, 11);
    if (!obs.identical)
        fatal("observatory changed simulated results");
    w.key("observatory").beginObject();
    w.field("workload", "busy_spin_8core");
    w.field("intervalCycles", uint64_t(obs.intervalCycles));
    w.field("samplesTaken", obs.samplesTaken);
    w.field("hostSecondsOff", obs.secondsOff);
    w.field("hostSecondsOn", obs.secondsOn);
    w.field("overheadPct", obs.overheadPct());
    w.field("statsIdentical", obs.identical);
    w.endObject();
    std::printf("observatory overhead: %.1f%% host CPU "
                "(%llu samples every %llu cycles, stats identical)\n",
                obs.overheadPct(),
                (unsigned long long)obs.samplesTaken,
                (unsigned long long)obs.intervalCycles);

    w.endObject();
    f << '\n';
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

// --- part 2: kernel microbenchmarks -------------------------------------

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        uint64_t fired = 0;
        for (int i = 0; i < 1000; i++)
            eq.schedule(Tick(i % 97), [&] { fired++; });
        eq.runUntil(100);
        benchmark::DoNotOptimize(fired);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_CacheArrayLookup(benchmark::State &state)
{
    CacheArray c(32 * 1024, 4);
    bool valid;
    for (Addr a = 0; a < 32 * 1024; a += 32) {
        CacheLine &slot = c.victimFor(a, valid);
        c.install(slot, a, MesiState::Shared, LineData{});
    }
    Addr probe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.find(probe));
        probe = (probe + 32) & (32 * 1024 - 1);
    }
}
BENCHMARK(BM_CacheArrayLookup);

static void
BM_BypassSetProbe(benchmark::State &state)
{
    BypassSet bs(32);
    for (int i = 0; i < 8; i++)
        bs.insert(0x1000 + Addr(i) * 32);
    Addr probe = 0x100000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bs.match(probe, 0));
        probe += 32;
    }
}
BENCHMARK(BM_BypassSetProbe);

static void
BM_MeshRouting(benchmark::State &state)
{
    EventQueue eq;
    Mesh mesh(eq, 16);
    uint64_t delivered = 0;
    for (unsigned n = 0; n < 16; n++)
        mesh.setSink(NodeId(n), [&](const Message &) { delivered++; });
    NodeId src = 0;
    for (auto _ : state) {
        Message m;
        m.src = src;
        m.dst = NodeId((src + 7) % 16);
        mesh.send(std::move(m));
        src = NodeId((src + 1) % 16);
        eq.runUntil(eq.now() + 1);
    }
    benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_MeshRouting);

static void
BM_EndToEndSimCyclesPerSecond(benchmark::State &state)
{
    // Simulated-cycle throughput of a busy 8-core system.
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.numCores = 8;
        System sys(cfg);
        Assembler a("spin");
        // Register 1 (the data pointer) is set per-core by the host.
        a.bind("loop");
        a.ld(2, 1, 0);
        a.addi(2, 2, 1);
        a.st(1, 0, 2);
        a.jmp("loop");
        auto prog = std::make_shared<const Program>(a.finish());
        for (int i = 0; i < 8; i++) {
            sys.loadProgram(NodeId(i), prog);
            // Separate lines per core: no contention, pure throughput.
            sys.core(NodeId(i)).setReg(1, 0x1000 + Addr(i) * 0x1000);
        }
        sys.run(10'000);
        benchmark::DoNotOptimize(sys.now());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 10'000 * 8);
}
BENCHMARK(BM_EndToEndSimCyclesPerSecond);

int
main(int argc, char **argv)
{
    std::string out = "BENCH_simcore.json";
    std::string only;
    bool json_only = false;
    bool quick = false;
    // Strip our flags so google-benchmark does not reject them.
    int kept = 1;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out = argv[++i];
        else if (!std::strncmp(argv[i], "--out=", 6))
            out = argv[i] + 6;
        else if (!std::strcmp(argv[i], "--only") && i + 1 < argc)
            only = argv[++i];
        else if (!std::strncmp(argv[i], "--only=", 7))
            only = argv[i] + 7;
        else if (!std::strcmp(argv[i], "--json-only"))
            json_only = true;
        else if (!std::strcmp(argv[i], "--quick"))
            quick = true;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;

    setVerbose(false);
    writeReport(out, quick, only);
    if (json_only)
        return 0;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

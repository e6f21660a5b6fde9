/**
 * @file
 * One pass of a workload, untraced (the end-to-end numbers) or traced
 * (the per-layer numbers). An untraced pass runs the job list cold into
 * a fresh result cache, then replays it warm from that cache; the
 * traced pass replays the cold jobs through the public pieces the
 * runners are made of, with one span around each call.
 */

#ifndef PERFBENCH_PASSES_HH
#define PERFBENCH_PASSES_HH

#include <string>
#include <vector>

#include "plan.hh"
#include "spans.hh"

namespace perfbench
{

/** Wall and process-CPU clocks read together. */
struct Stopwatch
{
    Stopwatch();
    double wallS() const;
    double cpuS() const;

  private:
    double wall0_;
    double cpu0_;
};

/** Failure bookkeeping shared by every pass: a count plus the first
 *  few messages for the report. */
struct Failures
{
    size_t count = 0;
    std::vector<std::string> messages;

    void add(std::string msg);
    void merge(const Failures &other);
};

struct PassOptions
{
    std::string workDir;
    unsigned warmReps = 1; ///< warm replays of the job list per pass
    unsigned threads = 2;  ///< campaign workers (synth-campaign)
    bool corruptOne = false; ///< damage one cache object after the cold run
};

/** One pass. Its times are scaled to the reference host speed by the
 *  probe times taken during the pass (see probe.hh); the probes
 *  themselves are not part of any time. */
struct PassResult
{
    double wallS = 0.0; ///< whole pass: cold run plus warm replays
    double cpuS = 0.0;
    double coldWallS = 0.0;
    double coldCpuS = 0.0;
    /** Wall time of each warm replay of the whole job list. */
    std::vector<double> warmRepS;
    /** The pass's wall time as measured, unscaled, for the report. */
    double rawWallS = 0.0;
    std::vector<double> probeS;
    size_t coldJobs = 0;
    size_t warmJobs = 0;
    size_t warmHits = 0;
    uint64_t instrRetired = 0; ///< cold run, final runs only
    /** Cold run documents in job order, and the runner's ConfigKey
     *  digests (simulation workloads). */
    std::vector<std::string> docs;
    std::vector<std::string> keys;
    Failures failures;
};

PassResult runPass(const Plan &plan, const PassOptions &opt);

/** Run one job once, uncached and uncaptured (the warm-up run). */
bool runWarmup(const Plan &plan, const std::string &work_dir);

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct TracedResult
{
    /** Every per-layer metric but service.fingerprint_s and bench.*. */
    std::vector<Metric> metrics;
    /** The part comparable with an untraced cold run, scaled by probes
     *  taken before and after the traced pass. */
    double coldCpuS = 0.0;
    double wallS = 0.0;
    size_t jobs = 0;
    Failures failures;
};

/**
 * The traced pass. `ref` is an untraced pass of the same plan: its
 * documents are stored into the traced cache, and each traced run's
 * dumpStatsJson must match the `system` block of its document.
 */
TracedResult runTracedPass(const Plan &plan, const PassResult &ref,
                           const std::string &work_dir, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_PASSES_HH

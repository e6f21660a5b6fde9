/**
 * @file
 * Live sweep telemetry: a JSONL heartbeat file that makes a multi-hour
 * `--jobs N` campaign observable mid-flight. The sweep runner opens one
 * SweepHeartbeat per campaign; every job emits `job-start` / `job-end`
 * lines, and a background writer thread appends periodic `progress`
 * lines with the per-job live cycle counts (published lock-free from
 * inside System::run via SystemConfig::progressSink) and a wall-clock
 * ETA. `tools/sweep_status.py` renders the file.
 *
 * All of it is host-side: the simulation never reads the heartbeat
 * state, so results are byte-identical with it on or off (same
 * argument as the sweep runner itself).
 */

#ifndef ASF_HARNESS_HEARTBEAT_HH
#define ASF_HARNESS_HEARTBEAT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/types.hh"

namespace asf
{
struct SystemConfig;
}

namespace asf::harness
{

class SweepHeartbeat
{
  public:
    /** Truncates `path` and emits the `sweep-start` line. The writer
     *  thread appends a `progress` line every `period_ms`. */
    SweepHeartbeat(std::string path, size_t total_jobs,
                   unsigned period_ms = 200);
    /** Emits the final `sweep-end` line and joins the writer. */
    ~SweepHeartbeat();

    SweepHeartbeat(const SweepHeartbeat &) = delete;
    SweepHeartbeat &operator=(const SweepHeartbeat &) = delete;

    /** Job `job` began running configuration `label`; emits
     *  `job-start`. `config_digest` is the canonical ConfigKey digest
     *  (src/service/config_key.hh) — the same 64-hex key the result
     *  cache files the run under. */
    void jobStarted(size_t job, const std::string &label,
                    const std::string &config_digest);

    /** The live cycle slot System::run publishes into
     *  (SystemConfig::progressSink). */
    std::atomic<uint64_t> *cyclesSlot(size_t job);

    /** Job `job` finished; emits `job-end`. `status` is "ok" or the
     *  validation error; `cache_hit` marks a run served from the result
     *  cache, `skipped` a campaign job claimed/completed elsewhere. */
    void jobFinished(size_t job, Tick cycles, bool valid,
                     bool watchdog_fired, const std::string &status,
                     bool cache_hit = false, bool skipped = false);

  private:
    enum class JobState : uint8_t
    {
        Pending,
        Running,
        Done,
    };

    struct Job
    {
        std::atomic<uint64_t> cycles{0};
        std::atomic<JobState> state{JobState::Pending};
        std::string label;      ///< guarded by mu_
        std::string configHash; ///< ConfigKey digest, guarded by mu_
    };

    /** Append the line `line(t)` builds for the current time `t`.
     *  The stamp is taken under mu_, so lines from the job threads
     *  and the writer thread reach the file in timestamp order. */
    void writeLine(const std::function<std::string(double)> &line);
    void writeProgress();
    void writerLoop();
    double nowSeconds() const;

    std::string path_;
    std::vector<std::unique_ptr<Job>> jobs_;
    std::atomic<size_t> done_{0};
    std::mutex mu_; ///< file appends + label/hash access
    std::ofstream file_;
    double startedAt_ = 0.0;
    unsigned periodMs_;
    std::mutex wakeMu_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::thread writer_;
};

// --- process-global wiring (mirrors the stats-JSON globals) -------------

/** Heartbeat JSONL path for subsequent sweeps (`--heartbeat`); resolved
 *  against the observability directory. Empty disables. */
void setHeartbeatPath(const std::string &path);
const std::string &heartbeatPath();

/**
 * While alive, binds the calling thread's experiment runs to heartbeat
 * job `job`: heartbeatBindRun() attaches their SystemConfig to the
 * job's live cycle slot. Installed by the sweep runner around each job.
 */
class ScopedHeartbeatJob
{
  public:
    ScopedHeartbeatJob(SweepHeartbeat *hb, size_t job);
    ~ScopedHeartbeatJob();
    ScopedHeartbeatJob(const ScopedHeartbeatJob &) = delete;
    ScopedHeartbeatJob &operator=(const ScopedHeartbeatJob &) = delete;

  private:
    SweepHeartbeat *prevHb_;
    size_t prevJob_;
};

/**
 * Called by the experiment runners once the run's SystemConfig is
 * final: when the calling thread has an active heartbeat job, points
 * cfg.progressSink at its live cycle slot and emits the `job-start`
 * line. `config_digest` is the run's canonical ConfigKey digest; pass
 * "" to have it computed here (makeConfigKey(cfg, label)) — the
 * runners pass the digest they already computed for the result cache,
 * so the heartbeat, the cache, and the campaign queue all publish the
 * same key. No-op without an active heartbeat job.
 */
void heartbeatBindRun(SystemConfig &cfg, const std::string &label,
                      const std::string &config_digest = "");

/** The calling thread's active heartbeat, if any (sweep runner use). */
SweepHeartbeat *activeHeartbeat(size_t &job_out);

} // namespace asf::harness

#endif // ASF_HARNESS_HEARTBEAT_HH

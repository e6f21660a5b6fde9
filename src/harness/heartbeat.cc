#include "harness/heartbeat.hh"

#include <chrono>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "service/config_key.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "sys/config.hh"

namespace asf::harness
{

namespace
{

std::string &
heartbeatPathRef()
{
    static std::string path;
    return path;
}

thread_local SweepHeartbeat *activeHb = nullptr;
thread_local size_t activeHbJob = 0;

} // namespace

SweepHeartbeat::SweepHeartbeat(std::string path, size_t total_jobs,
                               unsigned period_ms)
    : path_(std::move(path)), periodMs_(period_ms ? period_ms : 1)
{
    jobs_.reserve(total_jobs);
    for (size_t i = 0; i < total_jobs; i++)
        jobs_.push_back(std::make_unique<Job>());
    file_.open(path_, std::ios::trunc);
    if (!file_)
        warn("cannot write sweep heartbeat to '%s'", path_.c_str());
    startedAt_ = nowSeconds();
    writeLine(format("{\"event\":\"sweep-start\",\"t\":%.3f,"
                     "\"total\":%zu}",
                     startedAt_, total_jobs));
    writer_ = std::thread([this] { writerLoop(); });
}

SweepHeartbeat::~SweepHeartbeat()
{
    {
        std::lock_guard<std::mutex> lock(wakeMu_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (writer_.joinable())
        writer_.join();
    double t = nowSeconds();
    writeLine(format("{\"event\":\"sweep-end\",\"t\":%.3f,"
                     "\"done\":%zu,\"total\":%zu,"
                     "\"elapsedSeconds\":%.3f}",
                     t, done_.load(), jobs_.size(), t - startedAt_));
}

double
SweepHeartbeat::nowSeconds() const
{
    using namespace std::chrono;
    return duration<double>(system_clock::now().time_since_epoch())
        .count();
}

void
SweepHeartbeat::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_)
        return;
    file_ << line << '\n';
    file_.flush(); // the whole point is mid-flight visibility
}

void
SweepHeartbeat::jobStarted(size_t job, const std::string &label,
                           const std::string &config_digest)
{
    if (job >= jobs_.size())
        return;
    Job &j = *jobs_[job];
    {
        std::lock_guard<std::mutex> lock(mu_);
        j.label = label;
        j.configHash = config_digest;
    }
    j.state.store(JobState::Running, std::memory_order_release);
    writeLine(format("{\"event\":\"job-start\",\"t\":%.3f,"
                     "\"job\":%zu,\"label\":\"%s\","
                     "\"configHash\":\"%s\"}",
                     nowSeconds(), job, jsonEscape(label).c_str(),
                     jsonEscape(config_digest).c_str()));
}

std::atomic<uint64_t> *
SweepHeartbeat::cyclesSlot(size_t job)
{
    return job < jobs_.size() ? &jobs_[job]->cycles : nullptr;
}

void
SweepHeartbeat::jobFinished(size_t job, Tick cycles, bool valid,
                            bool watchdog_fired,
                            const std::string &status, bool cache_hit,
                            bool skipped)
{
    if (job >= jobs_.size())
        return;
    Job &j = *jobs_[job];
    j.cycles.store(cycles, std::memory_order_relaxed);
    j.state.store(JobState::Done, std::memory_order_release);
    done_.fetch_add(1, std::memory_order_relaxed);
    writeLine(format("{\"event\":\"job-end\",\"t\":%.3f,\"job\":%zu,"
                     "\"cycles\":%llu,\"valid\":%s,\"watchdog\":%s,"
                     "\"status\":\"%s\",\"cacheHit\":%s,"
                     "\"skipped\":%s}",
                     nowSeconds(), job, (unsigned long long)cycles,
                     valid ? "true" : "false",
                     watchdog_fired ? "true" : "false",
                     jsonEscape(status).c_str(),
                     cache_hit ? "true" : "false",
                     skipped ? "true" : "false"));
}

void
SweepHeartbeat::writeProgress()
{
    double t = nowSeconds();
    size_t done = done_.load(std::memory_order_relaxed);
    size_t total = jobs_.size();
    // Naive completed-jobs ETA; good enough for "is it stuck?".
    std::string eta = "null";
    if (done > 0 && done < total) {
        double per_job = (t - startedAt_) / double(done);
        eta = format("%.1f", per_job * double(total - done));
    }
    std::string active;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < jobs_.size(); i++) {
            Job &j = *jobs_[i];
            if (j.state.load(std::memory_order_acquire) !=
                JobState::Running)
                continue;
            if (!active.empty())
                active += ",";
            active += format(
                "{\"job\":%zu,\"label\":\"%s\","
                "\"configHash\":\"%s\",\"cycles\":%llu}",
                i, jsonEscape(j.label).c_str(),
                jsonEscape(j.configHash).c_str(),
                (unsigned long long)j.cycles.load(
                    std::memory_order_relaxed));
        }
    }
    writeLine(format("{\"event\":\"progress\",\"t\":%.3f,"
                     "\"done\":%zu,\"total\":%zu,\"etaSeconds\":%s,"
                     "\"active\":[%s]}",
                     t, done, total, eta.c_str(), active.c_str()));
}

void
SweepHeartbeat::writerLoop()
{
    std::unique_lock<std::mutex> lock(wakeMu_);
    while (!stopping_) {
        wake_.wait_for(lock, std::chrono::milliseconds(periodMs_));
        if (stopping_)
            break;
        lock.unlock();
        writeProgress();
        lock.lock();
    }
}

void
setHeartbeatPath(const std::string &path)
{
    heartbeatPathRef() = resolveObsPath(path);
}

const std::string &
heartbeatPath()
{
    return heartbeatPathRef();
}

ScopedHeartbeatJob::ScopedHeartbeatJob(SweepHeartbeat *hb, size_t job)
    : prevHb_(activeHb), prevJob_(activeHbJob)
{
    activeHb = hb;
    activeHbJob = job;
}

ScopedHeartbeatJob::~ScopedHeartbeatJob()
{
    activeHb = prevHb_;
    activeHbJob = prevJob_;
}

SweepHeartbeat *
activeHeartbeat(size_t &job_out)
{
    job_out = activeHbJob;
    return activeHb;
}

void
heartbeatBindRun(SystemConfig &cfg, const std::string &label,
                 const std::string &config_digest)
{
    if (!activeHb)
        return;
    cfg.progressSink = activeHb->cyclesSlot(activeHbJob);
    if (cfg.progressSink)
        cfg.progressSink->store(0, std::memory_order_relaxed);
    activeHb->jobStarted(activeHbJob, label,
                         config_digest.empty()
                             ? service::makeConfigKey(cfg, label).digest
                             : config_digest);
}

} // namespace asf::harness

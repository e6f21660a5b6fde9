/**
 * @file
 * The traced run's span log. Spans are recorded from the benchmark's
 * own code around each public library call, kept in memory and written
 * out when the benchmark ends. Each span has a name, start, end and
 * parent; every span of one job carries the job's id.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    uint64_t job = 0;
    int parent = -1; ///< index into SpanLog::spans(), -1 at the top
    double start = 0.0; ///< seconds since the log was created
    double end = 0.0;

    double seconds() const { return end - start; }
};

class SpanLog
{
  public:
    SpanLog() : origin_(std::chrono::steady_clock::now()) {}

    /** Seconds since the log was created. */
    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /** Time `fn()` as a span named `name` of job `job`, nested under
     *  the innermost span still open. */
    template <class Fn>
    decltype(auto) time(const char *name, uint64_t job, Fn &&fn)
    {
        Open open(*this, name, job);
        return fn();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of every span named `name`. */
    double total(const std::string &name) const
    {
        double t = 0.0;
        for (const Span &s : spans_)
            if (s.name == name)
                t += s.seconds();
        return t;
    }

    /** Number of spans named `name`. */
    size_t count(const std::string &name) const
    {
        size_t n = 0;
        for (const Span &s : spans_)
            n += s.name == name;
        return n;
    }

    /** Summed duration of the spans directly under a top-level span, or
     *  of a top-level span that has no children: the time the layer
     *  spans cover. */
    double layerTime() const
    {
        std::vector<char> has_child(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                has_child[size_t(s.parent)] = 1;
        double t = 0.0;
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            bool layer = s.parent >= 0 ? spans_[size_t(s.parent)].parent < 0
                                       : !has_child[i];
            if (layer)
                t += s.seconds();
        }
        return t;
    }

    /** One JSON object per line: name, job, parent, start and end in
     *  microseconds, and self time (duration minus direct children). */
    void writeJsonl(std::ostream &os) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[size_t(s.parent)] += s.seconds();
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            os << "{\"id\":" << i << ",\"name\":\"" << s.name
               << "\",\"job\":" << s.job << ",\"parent\":" << s.parent
               << ",\"startUs\":" << s.start * 1e6
               << ",\"endUs\":" << s.end * 1e6
               << ",\"selfUs\":" << (s.seconds() - child[i]) * 1e6
               << "}\n";
        }
    }

  private:
    class Open
    {
      public:
        Open(SpanLog &log, const char *name, uint64_t job) : log_(log)
        {
            idx_ = log.spans_.size();
            Span s;
            s.name = name;
            s.job = job;
            s.parent = log.stack_.empty() ? -1 : int(log.stack_.back());
            log.stack_.push_back(idx_);
            s.start = log.now();
            log.spans_.push_back(std::move(s));
        }
        ~Open()
        {
            log_.spans_[idx_].end = log_.now();
            log_.stack_.pop_back();
        }
        Open(const Open &) = delete;
        Open &operator=(const Open &) = delete;

      private:
        SpanLog &log_;
        size_t idx_ = 0;
    };

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

/**
 * @file
 * A small statistics package in the spirit of gem5's: named scalar
 * counters, averages, and histograms registered in groups, dumped as
 * name/value pairs or serialized to the machine-readable JSON report
 * (see harness/report.hh and System::dumpStatsJson).
 */

#ifndef ASF_SIM_STATS_HH
#define ASF_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace asf
{

/** A named scalar statistic (a 64-bit counter). */
class StatScalar
{
  public:
    StatScalar() = default;

    void inc(uint64_t n = 1) { value_ += n; }
    void set(uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/** Running average: accumulates samples, reports sum/count/mean. */
class StatAverage
{
  public:
    void sample(double v);
    void reset();

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Mean of the samples; 0.0 if nothing was ever sampled. */
    double mean() const;

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** Fixed-bucket histogram over [0, bucketCount * bucketWidth). */
class StatHistogram
{
  public:
    StatHistogram(unsigned bucket_count = 16, double bucket_width = 1.0);

    void sample(double v);

    /**
     * Record `n` identical samples of value `v`. Produces exactly the
     * same state as calling sample(v) n times (the sum update uses one
     * v*n product, which is exact for the small-integer sample values
     * the simulator records) — used by the fast-forward path to replay
     * skipped quiescent cycles.
     */
    void sampleN(double v, uint64_t n);

    void reset();

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Mean of the samples; 0.0 if nothing was ever sampled. */
    double mean() const;
    double max() const { return max_; }
    uint64_t bucket(unsigned i) const;
    uint64_t overflow() const { return overflow_; }
    unsigned numBuckets() const { return buckets_.size(); }
    double bucketWidth() const { return bucketWidth_; }

    /**
     * Value at quantile p in [0, 1], linearly interpolated from the
     * bucket geometry (overflow samples report the observed max).
     * Returns 0.0 for an empty histogram.
     */
    double percentile(double p) const;

  private:
    std::vector<uint64_t> buckets_;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
    double bucketWidth_;
};

class StatGroup;

/**
 * Hot-path handle to a named scalar or average that binds lazily: the
 * underlying stat is created in the group on the first update, as a
 * StatGroup::scalar() or average() call there would create it (so the
 * report has the same shape: untouched stats stay unregistered), while
 * steady-state updates cost one null check instead of a string map
 * lookup.
 */
template <typename Stat>
class LazyStat
{
  public:
    LazyStat(StatGroup &group, const char *name)
        : group_(group), name_(name)
    {
    }

    Stat &get();

    void inc(uint64_t n = 1) { get().inc(n); }
    void sample(double v) { get().sample(v); }

  private:
    StatGroup &group_;
    const char *name_;
    Stat *stat_ = nullptr;
};

using LazyStatScalar = LazyStat<StatScalar>;
using LazyStatAverage = LazyStat<StatAverage>;

/**
 * A group of named statistics. Components own a StatGroup and register
 * their counters in it; the harness walks groups to produce reports.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    StatScalar &scalar(const std::string &name);
    StatAverage &average(const std::string &name);

    /** Named histogram; geometry is fixed on first use. */
    StatHistogram &histogram(const std::string &name,
                             unsigned bucket_count = 16,
                             double bucket_width = 1.0);

    /** Value of a scalar (0 if never touched). */
    uint64_t get(const std::string &name) const;

    /** The scalar itself, or nullptr if never touched. Lets read-side
     *  hot paths cache the handle (map nodes are stable) without
     *  registering counters the component never incremented. */
    const StatScalar *find(const std::string &name) const;

    /** Mean of an average (0 if never sampled). */
    double getMean(const std::string &name) const;

    void resetAll();

    const std::string &name() const { return name_; }

    /** All scalar name/value pairs, sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> dumpScalars() const;

    // Sorted iteration for report serializers.
    const std::map<std::string, StatScalar> &scalars() const
    {
        return scalars_;
    }
    const std::map<std::string, StatAverage> &averages() const
    {
        return averages_;
    }
    const std::map<std::string, StatHistogram> &histograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    std::map<std::string, StatScalar> scalars_;
    std::map<std::string, StatAverage> averages_;
    std::map<std::string, StatHistogram> histograms_;
};

template <typename Stat>
inline Stat &
LazyStat<Stat>::get()
{
    if (!stat_) {
        if constexpr (std::is_same_v<Stat, StatAverage>)
            stat_ = &group_.average(name_);
        else
            stat_ = &group_.scalar(name_);
    }
    return *stat_;
}

} // namespace asf

#endif // ASF_SIM_STATS_HH

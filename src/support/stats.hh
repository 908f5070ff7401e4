/**
 * @file
 * Streaming sample distributions with mean / stdev / min / max and
 * percentile queries, for latency and batch-size figures. Counters
 * live on their components and are listed once in the counter table
 * in core/system.cc.
 */

#ifndef GENESYS_SUPPORT_STATS_HH
#define GENESYS_SUPPORT_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace genesys::stats
{

/** Streaming distribution that retains its samples. */
class Distribution
{
  public:
    void sample(double v) { samples_.push_back(v); sorted_ = false; }
    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double sum() const;
    double mean() const;
    /** Sample standard deviation (n-1 denominator; 0 for n < 2). */
    double stdev() const;
    double min() const;
    double max() const;
    /** Linear-interpolated percentile; @p p in [0, 100]. */
    double percentile(double p) const;

    const std::vector<double> &samples() const { return samples_; }
    void reset() { samples_.clear(); sorted_ = false; }

  private:
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_samples_;
    mutable bool sorted_ = false;
};

} // namespace genesys::stats

#endif // GENESYS_SUPPORT_STATS_HH

/**
 * @file
 * Streaming statistics accumulators used by the fabric simulator.
 */

#ifndef WSS_UTIL_STATS_ACCUMULATOR_HPP
#define WSS_UTIL_STATS_ACCUMULATOR_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace wss {

/**
 * Mean / min / max / variance of a stream of samples (Welford update,
 * so it is numerically stable even for millions of latency samples).
 */
class StatsAccumulator
{
  public:
    /// Add one sample.
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return n_; }
    bool empty() const { return n_ == 0; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /// Population variance.
    double
    variance() const
    {
        return n_ ? m2_ / static_cast<double>(n_) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Sample container with exact quantiles; used for tail latency where
 * a streaming mean is not enough. Stores all samples.
 */
class QuantileSampler
{
  public:
    void add(double x) { samples_.push_back(x); }
    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /// Pre-size the sample store. A caller that knows an upper bound
    /// on its sample count (the simulator: terminals x window cycles)
    /// reserves up front so add() never reallocates mid-measurement —
    /// part of the cycle loop's zero-steady-state-allocation
    /// invariant.
    void reserve(std::size_t n) { samples_.reserve(n); }

    /**
     * Exact quantile by nearest-rank, q in [0, 1].
     * Selects on a reused scratch buffer (O(n) nth_element, no full
     * sort), leaving the sample stream itself untouched — callers
     * can keep adding afterwards, and no copy of the
     * sampler is ever needed just to read a quantile.
     * @return NaN for an empty sampler — "no samples" must not be
     *         confusable with a measured 0; callers that want a
     *         sentinel check empty() first.
     */
    double
    quantile(double q) const
    {
        if (samples_.empty())
            return std::numeric_limits<double>::quiet_NaN();
        scratch_ = samples_;
        const double pos = q * static_cast<double>(samples_.size() - 1);
        const auto idx = std::min(static_cast<std::size_t>(pos + 0.5),
                                  samples_.size() - 1);
        std::nth_element(scratch_.begin(),
                         scratch_.begin() +
                             static_cast<std::ptrdiff_t>(idx),
                         scratch_.end());
        return scratch_[idx];
    }

  private:
    std::vector<double> samples_;
    /// Selection workspace; mutable so quantile() stays const.
    mutable std::vector<double> scratch_;
};

} // namespace wss

#endif // WSS_UTIL_STATS_ACCUMULATOR_HPP

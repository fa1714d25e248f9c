/**
 * @file
 * Observability instruments: a registry of named counters and
 * histograms with hot-path costs cheap enough for the cycle-accurate
 * simulator's inner loops.
 *
 * Design contract (benchmarked in bench_micro):
 *  - An *enabled* instrument is a handle holding a raw pointer into
 *    registry-owned storage; bumping it is a plain `++*cell` — no
 *    lookup, no lock, no atomic.
 *  - A *disabled* (default-constructed) instrument holds a null
 *    pointer; bumping it is a single always-false, perfectly
 *    predicted branch. Instrumented code therefore pays ≤1% on the
 *    router hot loop when observability is off.
 *
 * A MetricsRegistry is intentionally NOT thread-safe: each simulation
 * run (one thread) owns its own registry. Handles point into std::map
 * nodes, so they stay valid as the registry grows (and across
 * registry moves), but must not outlive it.
 */

#ifndef WSS_OBS_METRICS_HPP
#define WSS_OBS_METRICS_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wss::obs {

class MetricsRegistry;

/// Monotonic event count. Default-constructed handles are no-ops.
class Counter
{
  public:
    Counter() = default;

    void
    inc(std::uint64_t n = 1)
    {
        if (cell_)
            *cell_ += n;
    }

    bool enabled() const { return cell_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Counter(std::uint64_t *cell) : cell_(cell) {}

    std::uint64_t *cell_ = nullptr;
};

/**
 * Bucketed distribution with "less-or-equal" upper edges (bucket i
 * counts samples v <= edges[i]; one implicit overflow bucket at the
 * end) plus exact count/sum/min/max.
 */
struct HistogramData
{
    /// Ascending upper bucket edges.
    std::vector<double> edges;
    /// edges.size() + 1 counts; the last one is the overflow bucket.
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    void record(double v);
};

/// Histogram handle. Default-constructed handles are no-ops.
class Histogram
{
  public:
    Histogram() = default;

    void
    record(double v)
    {
        if (data_)
            data_->record(v);
    }

    bool enabled() const { return data_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Histogram(HistogramData *data) : data_(data) {}

    HistogramData *data_ = nullptr;
};

/**
 * A point-in-time copy of every counter, name-sorted. Per-phase
 * statistics are deltas between successive snapshots.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /// Value of @p name, 0 when absent.
    std::uint64_t value(const std::string &name) const;

    /// Counter-wise `later - earlier` (names only ever accumulate,
    /// so every `earlier` entry also exists in `later`).
    static MetricsSnapshot delta(const MetricsSnapshot &later,
                                 const MetricsSnapshot &earlier);
};

/**
 * Owns instrument storage and hands out handles. Creation is
 * idempotent: asking for an existing name returns a handle to the
 * same cell (histograms additionally require matching edges).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    // Handles hold raw pointers into the maps; copying the registry
    // would silently detach them, so copies are forbidden. Moves are
    // fine: std::map moves keep node addresses stable.
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;
    MetricsRegistry(MetricsRegistry &&) = default;
    MetricsRegistry &operator=(MetricsRegistry &&) = default;

    Counter counter(const std::string &name);
    Histogram histogram(const std::string &name,
                        std::vector<double> edges);

    std::uint64_t counterValue(const std::string &name) const;
    /// nullptr when absent.
    const HistogramData *findHistogram(const std::string &name) const;

    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }

    const std::map<std::string, HistogramData> &
    histograms() const
    {
        return histograms_;
    }

    bool
    empty() const
    {
        return counters_.empty() && histograms_.empty();
    }

    /// Copy of every counter, name-sorted.
    MetricsSnapshot snapshot() const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, HistogramData> histograms_;
};

} // namespace wss::obs

#endif // WSS_OBS_METRICS_HPP

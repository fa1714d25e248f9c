#include "obs/metrics.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace wss::obs {

void
HistogramData::record(double v)
{
    // First bucket whose upper edge is >= v ("le" semantics); values
    // above every edge land in the trailing overflow bucket.
    const auto it = std::lower_bound(edges.begin(), edges.end(), v);
    ++buckets[static_cast<std::size_t>(it - edges.begin())];
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
}

std::uint64_t
MetricsSnapshot::value(const std::string &name) const
{
    const auto it = std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const auto &entry, const std::string &key) {
            return entry.first < key;
        });
    return it != counters.end() && it->first == name ? it->second : 0;
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &later,
                       const MetricsSnapshot &earlier)
{
    MetricsSnapshot out;
    out.counters.reserve(later.counters.size());
    for (const auto &[name, value] : later.counters) {
        const std::uint64_t before = earlier.value(name);
        if (value < before)
            panic("MetricsSnapshot::delta: counter '", name,
                  "' went backwards (", before, " -> ", value, ")");
        out.counters.emplace_back(name, value - before);
    }
    return out;
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    return Counter(&counters_[name]);
}

Histogram
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> edges)
{
    if (edges.empty())
        fatal("MetricsRegistry: histogram '", name,
              "' needs at least one bucket edge");
    if (!std::is_sorted(edges.begin(), edges.end()) ||
        std::adjacent_find(edges.begin(), edges.end()) != edges.end())
        fatal("MetricsRegistry: histogram '", name,
              "' needs strictly ascending bucket edges");

    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
        if (it->second.edges != edges)
            fatal("MetricsRegistry: histogram '", name,
                  "' already exists with different bucket edges");
        return Histogram(&it->second);
    }

    HistogramData data;
    data.buckets.assign(edges.size() + 1, 0);
    data.edges = std::move(edges);
    auto [inserted, ok] = histograms_.emplace(name, std::move(data));
    (void)ok;
    return Histogram(&inserted->second);
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const HistogramData *
MetricsRegistry::findHistogram(const std::string &name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    snap.counters.assign(counters_.begin(), counters_.end());
    return snap;
}

} // namespace wss::obs

/**
 * @file
 * The benchmark harness: workloads as lists of timed cells, the span
 * log of a traced pass, and the measurement loops behind
 * `hostbench --trace 0` (end-to-end metrics) and `--trace 1`
 * (per-layer metrics).
 *
 * A workload sets up its inputs, then exposes a fixed list of cells
 * (one dcn run, one collective execution, one load sweep, one solved
 * design). One pass runs every cell once. The harness cycles passes
 * until the run's time is up and reports, per cell, the median of its
 * samples; wall_s is the sum of those medians, i.e. the host seconds
 * of one pass.
 */

#ifndef HOSTBENCH_HARNESS_HPP
#define HOSTBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace hostbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/// Median of @p values (0 when empty).
double median(std::vector<double> values);

/// @p q-quantile (0..1) of @p values by linear interpolation.
double quantile(std::vector<double> values, double q);

/// FNV-1a 64 over the bit patterns of simulated outputs.
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(int v) { add(static_cast<std::uint64_t>(v)); }
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Everything a traced pass collects: the benchmark's own spans
/// around each call into wss, plus the hooks wss already exposes.
struct Trace
{
    struct Span
    {
        std::string call;
        std::string tag;
        double seconds = 0.0;
    };
    std::vector<Span> spans;
    wss::obs::Profiler profiler;
    wss::obs::MetricsRegistry metrics;

    /// Summed seconds of the spans named @p call (any tag when @p tag
    /// is empty).
    double spanSeconds(std::string_view call,
                       std::string_view tag = {}) const;
    /// Duration of each span named @p call, in call order.
    std::vector<double> spanDurations(std::string_view call) const;
};

/// RAII span around one call into wss; a no-op on untraced passes
/// (null trace).
class Span
{
  public:
    Span(Trace *trace, std::string call, std::string tag = {});
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Trace *trace_;
    std::string call_;
    std::string tag_;
    Clock::time_point start_;
};

/// The checked outcome of one cell execution.
struct CellCheck
{
    /// Operations the cell attempted (dcn cells, collective cells,
    /// sweep points, solved designs) and how many failed a check.
    std::int64_t operations = 1;
    std::int64_t failed = 0;
    /// Units of work done, for ops_per_s (flows, messages, flits,
    /// designs).
    double work = 0.0;
    /// Digest of the cell's simulated outputs.
    std::uint64_t digest = 0;
};

/// Per-layer metric values by name.
using LayerValues = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /// Build every input of the timed work (repeated to time it; each
    /// call rebuilds from scratch). Spans go to @p trace when set.
    virtual void setup(Trace *trace) = 0;
    /// Per-layer values of one traced setup.
    virtual LayerValues setupLayers(const Trace &trace) const = 0;

    virtual std::size_t cellCount() const = 0;
    virtual std::string cellName(std::size_t cell) const = 0;
    /// The timed work of one cell. Traced passes hook @p trace in.
    virtual void runCell(std::size_t cell, Trace *trace) = 0;
    /// Check the last runCell(@p cell) result (untimed).
    virtual CellCheck checkCell(std::size_t cell) const = 0;
    /// Per-layer values of one traced pass over every cell.
    virtual LayerValues passLayers(const Trace &trace) const = 0;
    /// What ops_per_s counts on this workload.
    virtual std::string workUnit() const = 0;
};

/// Inputs every workload is built from.
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory holding the shipped SwitchProfile JSONs.
    std::string profiles = "hostbench/profiles";
};

/// Workload names, in the order traced runs visit them.
const std::vector<std::string> &workloadNames();

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &options);

std::unique_ptr<Workload> makeDcnWebsearch(const Options &options);
std::unique_ptr<Workload> makeColl512(const Options &options);
std::unique_ptr<Workload> makeFabricSweep(const Options &options);
std::unique_ptr<Workload> makePaperSolver(const Options &options);

/// Run the benchmark as @p options ask; prints a human-readable log
/// and, as the last line of stdout, the result JSON. Returns the exit
/// code.
int runBenchmark(const Options &options);

} // namespace hostbench

#endif // HOSTBENCH_HARNESS_HPP

/**
 * @file
 * Experiment campaigns: many heterogeneous jobs, one pool, one
 * artifact.
 *
 * A Campaign batches sweep jobs (full latency-vs-load curves) and
 * generic timed tasks (e.g. radix-solver design points) in a single
 * invocation. All cells of all jobs are flattened into one
 * parallelFor, so a short job cannot leave the pool idle while a
 * long one finishes. Each cell writes its result and its seconds to
 * its own slot, keyed by cell index, so nothing on the execution
 * path takes a lock; per-job timing is summarized from those slots,
 * in cell order, once the barrier has passed. This is the only loop
 * that schedules cells: SweepRunner::run is a one-job campaign.
 *
 * CampaignResult carries wall-clock and per-job timing and can emit
 * itself as CSV (one row per cell) or JSON (nested per-job summary)
 * for the figure benches' artifact trail.
 */

#ifndef WSS_EXEC_CAMPAIGN_HPP
#define WSS_EXEC_CAMPAIGN_HPP

#include <array>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"

namespace wss::exec {

/// Timing/result summary of one campaign job.
struct CampaignJobResult
{
    std::string name;
    /// "sweep" or "task".
    std::string kind;
    /// Sweep output (curves, outcomes); empty for generic tasks.
    SweepRunOutput sweep;
    /// Sum of the job's per-cell wall times. Cells run
    /// concurrently, so this exceeds the campaign wall-clock; it is
    /// the job's serial-equivalent cost.
    double seconds = 0.0;
    /// Distribution of per-cell seconds.
    double mean_cell_seconds = 0.0;
    double max_cell_seconds = 0.0;
    double p95_cell_seconds = 0.0;
    int cells = 0;
};

/// What a whole campaign produced.
struct CampaignResult
{
    std::vector<CampaignJobResult> jobs;
    /// Wall-clock of the whole campaign (all jobs, one barrier).
    double wall_seconds = 0.0;
    /// Worker threads the campaign ran on (1 when run serially).
    int threads = 1;

    /// One row per executed cell plus `# key=value` header lines.
    void writeCsv(std::ostream &os) const;
    /// Nested per-job summary, full precision.
    void writeJson(std::ostream &os) const;

    /// writeCsv()/writeJson() to @p path through a flush-checked
    /// stream: the data hits the file (or a fatal() reports the I/O
    /// failure) before control returns, so later fatal() exits can
    /// never truncate the artifact.
    void writeCsvFile(const std::string &path) const;
    void writeJsonFile(const std::string &path) const;
};

/**
 * A batch of jobs executed together on one pool.
 */
class Campaign
{
  public:
    /// Add a load-sweep job (checked by the SweepRunner
    /// constructor); returns its job index.
    int addSweep(std::string name, SweepJob job);

    /// Add a generic timed task (runs once); returns its job index.
    int addTask(std::string name, std::function<void()> fn);

    int jobCount() const { return static_cast<int>(entries_.size()); }

    /**
     * Execute every cell of every job. @p pool nullptr runs
     * serially; otherwise all cells share the pool's workers plus
     * the calling thread. @p trace, when given, records one span per
     * cell on per-worker tracks (args: job, kind, and for sweep
     * cells repetition/rate_index/rate) plus thread-name metadata —
     * deterministic in content at any pool size. @p profiler, when
     * given, accumulates one "campaign/<job>" phase per cell (job
     * names are '/'-sanitized): workers time into per-worker
     * profilers merged into @p profiler after the barrier. The
     * cells also drive the flight recorder (JobStart/JobFinish, a
     * WorkerScope naming the cell) and the watchdog's progress.
     */
    CampaignResult run(ThreadPool *pool = nullptr,
                       obs::TraceEventSink *trace = nullptr,
                       obs::Profiler *profiler = nullptr) const;

  private:
    struct Entry
    {
        std::string name;
        /// Set for sweep jobs; generic tasks run fn instead.
        std::optional<SweepRunner> sweep;
        std::function<void()> fn;
    };

    std::vector<Entry> entries_;
};

/// Flat grid index -> its index on each axis of a @p shape[0] x
/// shape[1] x shape[2] grid, the last axis varying fastest. Fatal
/// when @p index is past the grid.
std::array<std::size_t, 3> gridAxes(std::size_t index,
                                    const std::array<std::size_t, 3> &shape);

/**
 * The fan-out of a grid campaign (DCN, collective, resilience): run
 * each cell of a @p shape grid as one Campaign task, in flat index
 * order (gridAxes() decodes an index). Cell i is named name(i) (its
 * trace span and its "campaign/<name>" profiler phase) and stores
 * body(i) into result.cells[i]. Once the barrier has passed, the
 * result's wall_seconds, threads and each cell's seconds are filled
 * in from the campaign's timing.
 */
template <class Result, class Name, class Body>
Result
runGrid(const std::array<std::size_t, 3> &shape, const Name &name,
        const Body &body, ThreadPool *pool, obs::TraceEventSink *trace,
        obs::Profiler *profiler)
{
    const std::size_t count = shape[0] * shape[1] * shape[2];
    Result result;
    result.cells.resize(count);
    Campaign campaign;
    for (std::size_t i = 0; i < count; ++i)
        campaign.addTask(name(i), [&result, &body, i] {
            result.cells[i] = body(i);
        });
    const CampaignResult timing = campaign.run(pool, trace, profiler);
    result.wall_seconds = timing.wall_seconds;
    result.threads = timing.threads;
    for (std::size_t i = 0; i < count; ++i)
        result.cells[i].seconds = timing.jobs[i].seconds;
    return result;
}

} // namespace wss::exec

#endif // WSS_EXEC_CAMPAIGN_HPP

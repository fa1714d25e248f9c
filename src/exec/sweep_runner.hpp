/**
 * @file
 * Deterministic parallel load sweeps.
 *
 * SweepRunner fans the (repetition x rate) grid of a load sweep out
 * across a ThreadPool, as a one-job Campaign named "sweep".
 * Determinism is by construction: every run's
 * RNG seed is derived from the base seed and the *repetition index*
 * alone (deriveSeed, a splitmix64 finalizer in the spirit of
 * Rng::split), each point executes through the exact serial code
 * path (sim::runLoadPoint), and results land in preallocated slots
 * keyed by index — so the output is bit-identical whether the grid
 * runs serially, on 1 thread, or on 64, in any scheduling order.
 *
 * Repetition 0 uses the base seed unchanged, which keeps a
 * 1-repetition SweepRunner bit-identical to the legacy serial
 * sim::sweepLoad for the same inputs (asserted by test_exec).
 */

#ifndef WSS_EXEC_SWEEP_RUNNER_HPP
#define WSS_EXEC_SWEEP_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"
#include "sim/load_sweep.hpp"
#include "util/seed.hpp"

namespace wss::exec {

/// Builds a fresh network for one run, seeded explicitly.
using SeededNetworkFactory =
    std::function<std::unique_ptr<sim::Network>(std::uint64_t seed)>;
/// Builds the workload for one run at the given offered load.
using SeededWorkloadFactory = std::function<std::unique_ptr<sim::Workload>(
    double rate, std::uint64_t seed)>;

/// The shared splitmix64 per-index seed derivation (util/seed.hpp);
/// re-exported here because the sweeps' determinism contract is
/// stated in terms of it.
using wss::deriveSeed;

/// Everything needed to run one load-sweep curve.
struct SweepJob
{
    SeededNetworkFactory make_network;
    SeededWorkloadFactory make_workload;
    /// Offered loads, one sweep point each.
    std::vector<double> rates;
    /// Phase configuration; cfg.seed is the base seed the
    /// per-repetition seeds derive from.
    sim::SimConfig cfg;
    /// Independent repetitions (seeds derived per index).
    int repetitions = 1;
};

/// One executed (repetition, rate) cell.
struct PointOutcome
{
    int repetition = 0;
    int rate_index = 0;
    sim::LoadPoint point;
    sim::SimResult result;
    /// Wall-clock spent simulating this cell.
    double seconds = 0.0;
};

/// What a sweep produced.
struct SweepRunOutput
{
    /// Finalized curve per repetition.
    std::vector<sim::SweepResult> reps;
    /// Points averaged across repetitions (== reps[0] when
    /// repetitions == 1, bit-identically).
    sim::SweepResult combined;
    /// Flat repetition-major cell outcomes (timing, full SimResult).
    std::vector<PointOutcome> outcomes;
    /// Wall-clock of the whole sweep.
    double wall_seconds = 0.0;
};

/**
 * Runs a SweepJob, serially or on a pool.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepJob job);

    /// Execute every (repetition, rate) cell through
    /// Campaign::run (which documents @p pool, @p trace and
    /// @p profiler; cells profile as "campaign/sweep").
    /// wall_seconds is the whole sweep's wall clock.
    SweepRunOutput run(ThreadPool *pool = nullptr,
                       obs::TraceEventSink *trace = nullptr,
                       obs::Profiler *profiler = nullptr) const;

    /// Execute a single cell (the unit Campaign schedules).
    PointOutcome runPoint(int repetition, int rate_index) const;

    const SweepJob &job() const { return job_; }

  private:
    SweepJob job_;
};

} // namespace wss::exec

#endif // WSS_EXEC_SWEEP_RUNNER_HPP

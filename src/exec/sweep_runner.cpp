#include "exec/sweep_runner.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "util/logging.hpp"
#include "util/stats_accumulator.hpp"

namespace wss::exec {

namespace {

double
elapsedSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

SweepRunner::SweepRunner(SweepJob job) : job_(std::move(job))
{
    if (job_.rates.empty())
        fatal("SweepRunner: need at least one rate");
    if (job_.repetitions < 1)
        fatal("SweepRunner: need at least one repetition");
    if (!job_.make_network || !job_.make_workload)
        fatal("SweepRunner: need network and workload factories");
}

PointOutcome
SweepRunner::runPoint(int repetition, int rate_index) const
{
    const auto start = std::chrono::steady_clock::now();

    sim::SimConfig cfg = job_.cfg;
    cfg.seed = deriveSeed(job_.cfg.seed,
                          static_cast<std::uint64_t>(repetition));

    // Design-point boundary for crash post-mortems; purely passive.
    obs::recordEvent(
        obs::EventKind::DesignPoint, repetition, rate_index,
        "rate " +
            std::to_string(job_.rates[static_cast<std::size_t>(rate_index)]));

    PointOutcome outcome;
    outcome.repetition = repetition;
    outcome.rate_index = rate_index;
    // Route through the shared serial code path so parallel and
    // serial sweeps cannot diverge.
    outcome.point = sim::runLoadPoint(
        [&] { return job_.make_network(cfg.seed); },
        [&](double rate) { return job_.make_workload(rate, cfg.seed); },
        job_.rates[static_cast<std::size_t>(rate_index)], cfg,
        &outcome.result);
    outcome.seconds = elapsedSeconds(start);
    return outcome;
}

SweepRunOutput
SweepRunner::run(ThreadPool *pool, obs::TraceEventSink *trace,
                 obs::Profiler *profiler) const
{
    const auto start = std::chrono::steady_clock::now();
    const auto reps = static_cast<std::int64_t>(job_.repetitions);
    const auto rates = static_cast<std::int64_t>(job_.rates.size());

    std::vector<PointOutcome> outcomes(
        static_cast<std::size_t>(reps * rates));
    // Workers time into their own profiler (slot pool->size() is the
    // calling thread), merged into @p profiler after the barrier —
    // the same per-worker-buffer pattern Campaign uses for timing.
    std::vector<obs::Profiler> worker_prof(
        profiler ? static_cast<std::size_t>(pool ? pool->size() + 1 : 1)
                 : 0);
    const auto runCell = [&](std::int64_t index) {
        const int rep = static_cast<int>(index / rates);
        const int ri = static_cast<int>(index % rates);
        const int slot = pool ? pool->workerSlot() : 0;
        char detail[48];
        std::snprintf(detail, sizeof detail, "sweep rep %d rate %.3g", rep,
                      job_.rates[static_cast<std::size_t>(ri)]);
        const obs::WorkerScope liveness(workerLabel(pool, slot), detail);
        const std::int64_t ts = trace ? trace->nowMicros() : 0;
        obs::ScopedPhase cell_phase(
            profiler ? &worker_prof[static_cast<std::size_t>(slot)]
                     : nullptr,
            "point");
        outcomes[static_cast<std::size_t>(index)] = runPoint(rep, ri);
        if (trace)
            trace->complete(
                "sweep point", "sweep", slot, ts,
                trace->nowMicros() - ts,
                {obs::TraceArg::num("repetition",
                                    static_cast<std::int64_t>(rep)),
                 obs::TraceArg::num("rate_index",
                                    static_cast<std::int64_t>(ri)),
                 obs::TraceArg::num(
                     "rate",
                     job_.rates[static_cast<std::size_t>(ri)])});
    };
    if (pool)
        pool->parallelFor(reps * rates, runCell);
    else
        for (std::int64_t i = 0; i < reps * rates; ++i)
            runCell(i);

    if (profiler)
        for (const obs::Profiler &wp : worker_prof)
            profiler->merge(wp, "sweep");

    return finalizeSweepRun(job_, std::move(outcomes),
                            elapsedSeconds(start));
}

SweepRunOutput
finalizeSweepRun(const SweepJob &job, std::vector<PointOutcome> outcomes,
                 double wall_seconds)
{
    const auto rates = job.rates.size();

    SweepRunOutput out;
    out.wall_seconds = wall_seconds;
    out.outcomes = std::move(outcomes);

    out.reps.reserve(static_cast<std::size_t>(job.repetitions));
    for (int rep = 0; rep < job.repetitions; ++rep) {
        std::vector<sim::LoadPoint> points(rates);
        for (std::size_t i = 0; i < rates; ++i)
            points[i] =
                out.outcomes[static_cast<std::size_t>(rep) * rates + i]
                    .point;
        out.reps.push_back(sim::finalizeSweep(std::move(points)));
    }

    if (job.repetitions == 1) {
        out.combined = out.reps.front();
        return out;
    }

    // Average each rate's point across repetitions; a point is
    // stable only when every repetition's run was.
    std::vector<sim::LoadPoint> combined(rates);
    for (std::size_t i = 0; i < rates; ++i) {
        StatsAccumulator offered, accepted, avg, p99;
        bool stable = true;
        for (const auto &rep : out.reps) {
            const auto &p = rep.points[i];
            offered.add(p.offered);
            accepted.add(p.accepted);
            avg.add(p.avg_latency);
            p99.add(p.p99_latency);
            stable = stable && p.stable;
        }
        combined[i].offered = offered.mean();
        combined[i].accepted = accepted.mean();
        combined[i].avg_latency = avg.mean();
        combined[i].p99_latency = p99.mean();
        combined[i].stable = stable;
    }
    out.combined = sim::finalizeSweep(std::move(combined));
    return out;
}

} // namespace wss::exec

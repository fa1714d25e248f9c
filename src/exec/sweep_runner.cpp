#include "exec/sweep_runner.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "exec/campaign.hpp"
#include "obs/flight_recorder.hpp"
#include "util/logging.hpp"

namespace wss::exec {

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
    outcome.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return outcome;
}

SweepRunOutput
SweepRunner::run(ThreadPool *pool, obs::TraceEventSink *trace,
                 obs::Profiler *profiler) const
{
    Campaign campaign;
    campaign.addSweep("sweep", job_);
    CampaignResult result = campaign.run(pool, trace, profiler);
    SweepRunOutput out = std::move(result.jobs.front().sweep);
    out.wall_seconds = result.wall_seconds;
    return out;
}

} // namespace wss::exec

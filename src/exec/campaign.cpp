#include "exec/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <limits>
#include <ostream>
#include <string_view>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/watchdog.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"
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

/// Finalize a job's rep-major outcome grid into per-repetition
/// curves plus the combined curve.
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

} // namespace

int
Campaign::addSweep(std::string name, SweepJob job)
{
    entries_.push_back({std::move(name), SweepRunner(std::move(job)), {}});
    return jobCount() - 1;
}

int
Campaign::addTask(std::string name, std::function<void()> fn)
{
    if (!fn)
        fatal("Campaign: task '", name, "' needs a callable");
    entries_.push_back({std::move(name), std::nullopt, std::move(fn)});
    return jobCount() - 1;
}

CampaignResult
Campaign::run(ThreadPool *pool, obs::TraceEventSink *trace,
              obs::Profiler *profiler) const
{
    const auto start = std::chrono::steady_clock::now();

    // Flatten every job into cells: one per (repetition, rate) for
    // sweeps (rep-major), one per generic task. A job's cells are
    // contiguous.
    struct Cell
    {
        int job = 0;
        int repetition = 0;
        int rate_index = 0;
    };
    std::vector<Cell> cells;
    for (int j = 0; j < jobCount(); ++j) {
        const Entry &entry = entries_[static_cast<std::size_t>(j)];
        if (!entry.sweep) {
            cells.push_back({j, 0, 0});
            continue;
        }
        const SweepJob &job = entry.sweep->job();
        for (int rep = 0; rep < job.repetitions; ++rep)
            for (int ri = 0; ri < static_cast<int>(job.rates.size()); ++ri)
                cells.push_back({j, rep, ri});
    }

    // Slots keyed by cell index, each written exactly once, and
    // per-worker profilers (slot pool->size() is the calling
    // thread), so nothing on the execution path takes a lock.
    std::vector<PointOutcome> outcomes(cells.size());
    std::vector<obs::Profiler> worker_prof(
        profiler ? static_cast<std::size_t>(pool ? pool->size() + 1 : 1)
                 : 0);
    // One profiler phase per job; job names may contain '/' (which
    // the profiler reserves for nesting), so sanitize them once.
    std::vector<std::string> phase_names;
    if (profiler) {
        phase_names.reserve(entries_.size());
        for (const Entry &entry : entries_) {
            std::string name = entry.name;
            for (char &c : name)
                if (c == '/')
                    c = ':';
            phase_names.push_back(std::move(name));
        }
    }

    // Liveness/progress plumbing (flight recorder + watchdog): all
    // of it is passive — events never feed back into the cells, so
    // results stay bit-identical with it on or off.
    obs::Watchdog::setProgressTotal(cells.size());

    const auto runCell = [&](std::int64_t index) {
        const Cell &cell = cells[static_cast<std::size_t>(index)];
        const Entry &entry =
            entries_[static_cast<std::size_t>(cell.job)];
        const int slot = pool ? pool->workerSlot() : 0;
        const double rate =
            entry.sweep ? entry.sweep->job().rates.at(
                              static_cast<std::size_t>(cell.rate_index))
                        : 0.0;
        std::string detail = entry.name;
        if (entry.sweep) {
            char point[48];
            std::snprintf(point, sizeof point, " rep %d rate %.3g",
                          cell.repetition, rate);
            detail += point;
        }
        const obs::WorkerScope liveness(workerLabel(pool, slot), detail);
        obs::recordEvent(obs::EventKind::JobStart, index, cell.job,
                         entry.name);
        obs::ScopedPhase cell_phase(
            profiler ? &worker_prof[static_cast<std::size_t>(slot)]
                     : nullptr,
            profiler ? phase_names[static_cast<std::size_t>(cell.job)]
                     : std::string_view());
        const std::int64_t ts = trace ? trace->nowMicros() : 0;
        PointOutcome &outcome = outcomes[static_cast<std::size_t>(index)];
        if (entry.sweep) {
            outcome = entry.sweep->runPoint(cell.repetition,
                                            cell.rate_index);
        } else {
            const auto cell_start = std::chrono::steady_clock::now();
            entry.fn();
            outcome.seconds = elapsedSeconds(cell_start);
        }

        if (trace) {
            std::vector<obs::TraceArg> args;
            args.push_back(obs::TraceArg::str("job", entry.name));
            args.push_back(obs::TraceArg::str(
                "kind", entry.sweep ? "sweep" : "task"));
            if (entry.sweep) {
                args.push_back(obs::TraceArg::num(
                    "repetition",
                    static_cast<std::int64_t>(cell.repetition)));
                args.push_back(obs::TraceArg::num(
                    "rate_index",
                    static_cast<std::int64_t>(cell.rate_index)));
                args.push_back(obs::TraceArg::num("rate", rate));
            }
            trace->complete(entry.name, entry.sweep ? "sweep" : "task",
                            slot, ts, trace->nowMicros() - ts,
                            std::move(args));
        }

        obs::recordEvent(obs::EventKind::JobFinish, index, cell.job,
                         entry.name);
        obs::Watchdog::addProgressDone();
    };
    if (pool)
        pool->parallelFor(static_cast<std::int64_t>(cells.size()),
                          runCell);
    else
        for (std::int64_t i = 0;
             i < static_cast<std::int64_t>(cells.size()); ++i)
            runCell(i);

    // Barrier passed: merge the profilers and summarize each job
    // from its contiguous run of cell slots.
    if (profiler)
        for (const obs::Profiler &wp : worker_prof)
            profiler->merge(wp, "campaign");
    if (trace) {
        const int workers = pool ? pool->size() : 0;
        for (int w = 0; w < workers; ++w)
            trace->setThreadName(w, "worker " + std::to_string(w));
        trace->setThreadName(workers, "caller");
    }
    CampaignResult result;
    result.wall_seconds = elapsedSeconds(start);
    result.threads = pool ? pool->size() : 1;
    result.jobs.resize(entries_.size());

    auto first = outcomes.begin();
    for (std::size_t j = 0; j < entries_.size(); ++j) {
        const Entry &entry = entries_[j];
        CampaignJobResult &job_result = result.jobs[j];
        job_result.name = entry.name;
        job_result.kind = entry.sweep ? "sweep" : "task";
        const SweepJob *job = entry.sweep ? &entry.sweep->job() : nullptr;
        job_result.cells =
            job ? job->repetitions * static_cast<int>(job->rates.size())
                : 1;
        const auto last = first + job_result.cells;

        QuantileSampler seconds;
        for (auto it = first; it != last; ++it) {
            seconds.add(it->seconds);
            job_result.seconds += it->seconds;
            job_result.max_cell_seconds =
                std::max(job_result.max_cell_seconds, it->seconds);
        }
        job_result.mean_cell_seconds =
            job_result.seconds / static_cast<double>(job_result.cells);
        job_result.p95_cell_seconds = seconds.quantile(0.95);

        if (job)
            job_result.sweep = finalizeSweepRun(
                *job,
                std::vector<PointOutcome>(std::make_move_iterator(first),
                                          std::make_move_iterator(last)),
                job_result.seconds);
        first = last;
    }
    return result;
}

std::array<std::size_t, 3>
gridAxes(std::size_t index, const std::array<std::size_t, 3> &shape)
{
    if (index >= shape[0] * shape[1] * shape[2])
        fatal("grid cell ", index, " is out of range (", shape[0], " x ",
              shape[1], " x ", shape[2], " cells)");
    return {index / (shape[1] * shape[2]), index / shape[2] % shape[1],
            index % shape[2]};
}

void
CampaignResult::writeCsv(std::ostream &os) const
{
    os << "# wall_seconds=" << wall_seconds << "\n";
    os << "# threads=" << threads << "\n";
    os << "job,kind,repetition,offered,accepted,avg_latency,"
          "p99_latency,stable,seconds\n";
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const auto &job : jobs) {
        if (job.kind == "task") {
            os << job.name << ",task,,,,,,," << job.seconds << "\n";
            continue;
        }
        for (const auto &outcome : job.sweep.outcomes) {
            os << job.name << ",sweep," << outcome.repetition << ","
               << outcome.point.offered << ","
               << outcome.point.accepted << ","
               << outcome.point.avg_latency << ","
               << outcome.point.p99_latency << ","
               << (outcome.point.stable ? 1 : 0) << ","
               << outcome.seconds << "\n";
        }
    }
}

void
CampaignResult::writeJson(std::ostream &os) const
{
    util::JsonWriter json(os);
    json.beginObject(util::JsonWriter::kLines)
        .field("wall_seconds", wall_seconds).field("threads", threads)
        .key("jobs").beginArray(util::JsonWriter::kLines);
    for (const auto &job : jobs) {
        json.beginObject()
            .field("name", job.name).field("kind", job.kind)
            .field("seconds", job.seconds).field("cells", job.cells)
            .field("mean_cell_seconds", job.mean_cell_seconds)
            .field("max_cell_seconds", job.max_cell_seconds)
            .field("p95_cell_seconds", job.p95_cell_seconds);
        if (job.kind == "sweep") {
            json.field("repetitions", job.sweep.reps.size())
                .field("zero_load_latency",
                       job.sweep.combined.zero_load_latency)
                .field("saturation_throughput",
                       job.sweep.combined.saturation_throughput)
                .key("points").beginArray();
            for (const auto &p : job.sweep.combined.points)
                json.beginObject()
                    .field("offered", p.offered).field("accepted", p.accepted)
                    .field("avg_latency", p.avg_latency)
                    .field("p99_latency", p.p99_latency)
                    .field("stable", p.stable).end();
            json.end();
        }
        json.end();
    }
    json.end().end();
}

void
CampaignResult::writeCsvFile(const std::string &path) const
{
    util::writeArtifactFile(
        path, "CampaignResult",
        [this](std::ostream &os) { writeCsv(os); });
}

void
CampaignResult::writeJsonFile(const std::string &path) const
{
    util::writeArtifactFile(
        path, "CampaignResult",
        [this](std::ostream &os) { writeJson(os); });
}

} // namespace wss::exec

#include "exec/campaign.hpp"

#include <chrono>
#include <cstdio>
#include <iomanip>
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

} // namespace

int
Campaign::addSweep(std::string name, SweepJob job)
{
    if (job.rates.empty())
        fatal("Campaign: sweep '", name, "' needs at least one rate");
    if (job.repetitions < 1)
        fatal("Campaign: sweep '", name,
              "' needs at least one repetition");
    if (!job.make_network || !job.make_workload)
        fatal("Campaign: sweep '", name, "' needs factories");
    Entry entry;
    entry.name = std::move(name);
    entry.is_sweep = true;
    entry.sweep = std::move(job);
    entries_.push_back(std::move(entry));
    return static_cast<int>(entries_.size()) - 1;
}

int
Campaign::addTask(std::string name, std::function<void()> fn)
{
    if (!fn)
        fatal("Campaign: task '", name, "' needs a callable");
    Entry entry;
    entry.name = std::move(name);
    entry.is_sweep = false;
    entry.fn = std::move(fn);
    entries_.push_back(std::move(entry));
    return static_cast<int>(entries_.size()) - 1;
}

CampaignResult
Campaign::run(ThreadPool *pool, obs::TraceEventSink *trace,
              obs::Profiler *profiler) const
{
    const auto start = std::chrono::steady_clock::now();

    // Flatten every job into cells: one per (repetition, rate) for
    // sweeps, one per generic task.
    struct Cell
    {
        int job = 0;
        int repetition = 0;
        int rate_index = 0;
    };
    std::vector<Cell> cells;
    for (int j = 0; j < jobCount(); ++j) {
        const Entry &entry = entries_[static_cast<std::size_t>(j)];
        if (!entry.is_sweep) {
            cells.push_back({j, 0, 0});
            continue;
        }
        for (int rep = 0; rep < entry.sweep.repetitions; ++rep)
            for (int ri = 0;
                 ri < static_cast<int>(entry.sweep.rates.size()); ++ri)
                cells.push_back({j, rep, ri});
    }

    // Slots keyed by cell index (each written exactly once) and
    // per-worker timing buffers: slot pool->size() is the calling
    // thread, so nothing on the execution path takes a lock.
    std::vector<PointOutcome> outcomes(cells.size());
    const int buffers = pool ? pool->size() + 1 : 1;
    struct WorkerBuffer
    {
        std::vector<StatsAccumulator> cell_seconds;
        std::vector<QuantileSampler> cell_seconds_q;
    };
    std::vector<WorkerBuffer> per_worker(
        static_cast<std::size_t>(buffers));
    for (auto &buffer : per_worker) {
        buffer.cell_seconds.resize(entries_.size());
        buffer.cell_seconds_q.resize(entries_.size());
    }

    // One profiler phase per job; job names may contain '/' (which
    // the profiler reserves for nesting), so sanitize them once.
    std::vector<obs::Profiler> worker_prof(
        profiler ? static_cast<std::size_t>(buffers) : 0);
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
        const int prof_slot = pool ? pool->workerSlot() : 0;
        std::string detail = entry.name;
        if (entry.is_sweep) {
            char point[48];
            std::snprintf(point, sizeof point, " rep %d rate %.3g",
                          cell.repetition,
                          entry.sweep.rates[static_cast<std::size_t>(
                              cell.rate_index)]);
            detail += point;
        }
        const obs::WorkerScope liveness(workerLabel(pool, prof_slot),
                                        detail);
        obs::recordEvent(obs::EventKind::JobStart, index, cell.job,
                         entry.name);
        obs::ScopedPhase cell_phase(
            profiler
                ? &worker_prof[static_cast<std::size_t>(prof_slot)]
                : nullptr,
            profiler ? phase_names[static_cast<std::size_t>(cell.job)]
                     : std::string_view());
        const std::int64_t ts = trace ? trace->nowMicros() : 0;
        PointOutcome outcome;
        if (entry.is_sweep) {
            outcome = SweepRunner(entry.sweep)
                          .runPoint(cell.repetition, cell.rate_index);
        } else {
            const auto cell_start = std::chrono::steady_clock::now();
            entry.fn();
            outcome.seconds = elapsedSeconds(cell_start);
        }
        outcomes[static_cast<std::size_t>(index)] = outcome;

        const int slot = pool ? pool->workerSlot() : 0;
        if (trace) {
            std::vector<obs::TraceArg> args;
            args.push_back(obs::TraceArg::str("job", entry.name));
            args.push_back(obs::TraceArg::str(
                "kind", entry.is_sweep ? "sweep" : "task"));
            if (entry.is_sweep) {
                args.push_back(obs::TraceArg::num(
                    "repetition",
                    static_cast<std::int64_t>(cell.repetition)));
                args.push_back(obs::TraceArg::num(
                    "rate_index",
                    static_cast<std::int64_t>(cell.rate_index)));
                args.push_back(obs::TraceArg::num(
                    "rate", entry.sweep.rates[static_cast<std::size_t>(
                                cell.rate_index)]));
            }
            trace->complete(entry.name,
                            entry.is_sweep ? "sweep" : "task", slot,
                            ts, trace->nowMicros() - ts,
                            std::move(args));
        }

        auto &buffer =
            per_worker[static_cast<std::size_t>(slot)];
        buffer.cell_seconds[static_cast<std::size_t>(cell.job)].add(
            outcome.seconds);
        buffer.cell_seconds_q[static_cast<std::size_t>(cell.job)].add(
            outcome.seconds);

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

    // Barrier passed: merge the per-worker buffers and finalize.
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

    std::vector<std::size_t> cursor(entries_.size());
    std::vector<std::vector<PointOutcome>> per_job(entries_.size());
    for (int j = 0; j < jobCount(); ++j) {
        const Entry &entry = entries_[static_cast<std::size_t>(j)];
        if (entry.is_sweep)
            per_job[static_cast<std::size_t>(j)].resize(
                static_cast<std::size_t>(entry.sweep.repetitions) *
                entry.sweep.rates.size());
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto j = static_cast<std::size_t>(cells[i].job);
        if (entries_[j].is_sweep)
            per_job[j][cursor[j]++] = outcomes[i];
    }

    for (int j = 0; j < jobCount(); ++j) {
        const auto ji = static_cast<std::size_t>(j);
        const Entry &entry = entries_[ji];
        CampaignJobResult &job_result = result.jobs[ji];
        job_result.name = entry.name;
        job_result.kind = entry.is_sweep ? "sweep" : "task";

        StatsAccumulator seconds;
        QuantileSampler seconds_q;
        for (const auto &buffer : per_worker) {
            seconds.merge(buffer.cell_seconds[ji]);
            seconds_q.merge(buffer.cell_seconds_q[ji]);
        }
        job_result.cells = static_cast<int>(seconds.count());
        job_result.seconds =
            seconds.mean() * static_cast<double>(seconds.count());
        job_result.mean_cell_seconds = seconds.mean();
        job_result.max_cell_seconds = seconds.max();
        job_result.p95_cell_seconds =
            seconds_q.empty() ? 0.0 : seconds_q.quantile(0.95);

        if (entry.is_sweep)
            job_result.sweep = finalizeSweepRun(
                entry.sweep, std::move(per_job[ji]), job_result.seconds);
    }
    return result;
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

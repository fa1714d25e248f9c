#include "coll/execute.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "flow/flow_sim.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "trace/coll_lowering.hpp"
#include "trace/trace_workload.hpp"
#include "util/artifact.hpp"
#include "util/logging.hpp"

namespace wss::coll {

namespace {

/// Shared result assembly: bandwidth figures from (schedule,
/// payload, completion time).
CollExecResult
finalize(const Schedule &schedule, double payload_bytes, double seconds,
         double bytes_on_wire)
{
    CollExecResult r;
    r.seconds = seconds;
    r.steps = schedule.steps;
    r.messages = static_cast<std::int64_t>(schedule.messages.size());
    r.bytes_on_wire = bytes_on_wire;
    if (seconds > 0.0) {
        r.algbw_gbps = payload_bytes * 8.0 / seconds / 1e9;
        r.busbw_gbps =
            r.algbw_gbps *
            busBandwidthFactor(schedule.collective, schedule.ranks);
    }
    return r;
}

void
requireValid(const Schedule &schedule, double payload_bytes,
             const char *who)
{
    const std::string err = schedule.validate();
    if (!err.empty())
        fatal(who, ": invalid ", schedule.name(), " schedule: ", err);
    if (payload_bytes <= 0.0)
        fatal(who, ": payload must be positive, got ", payload_bytes);
}

void
countCollective(const CollExecConfig &cfg, const Schedule &schedule,
                double bytes_on_wire)
{
    if (!cfg.metrics)
        return;
    cfg.metrics->counter("coll.steps")
        .inc(static_cast<std::uint64_t>(schedule.steps));
    cfg.metrics->counter("coll.messages")
        .inc(static_cast<std::uint64_t>(schedule.messages.size()));
    cfg.metrics->counter("coll.bytes")
        .inc(static_cast<std::uint64_t>(bytes_on_wire));
}

} // namespace

std::int64_t
CollTelemetry::totalMessages() const
{
    std::int64_t total = 0;
    for (const Step &s : steps)
        total += s.messages;
    return total;
}

std::int64_t
CollTelemetry::totalFailed() const
{
    std::int64_t total = 0;
    for (const Step &s : steps)
        total += s.failed;
    return total;
}

double
CollTelemetry::totalBytes() const
{
    // Step order, like executeOnDcn's bytes_on_wire accumulation —
    // identical addition sequence, identical double.
    double total = 0.0;
    for (const Step &s : steps)
        total += s.bytes;
    return total;
}

void
CollTelemetry::dumpCsv(std::ostream &os) const
{
    os << "# wss coll telemetry\n";
    os << "# steps=" << steps.size() << " ranks=" << ranks << "\n";
    os << "record,step,scope,metric,value\n";

    for (const Step &s : steps) {
        os << "step," << s.step << ",-,start_s,"
           << util::formatDouble(s.start_s) << "\n";
        os << "step," << s.step << ",-,seconds,"
           << util::formatDouble(s.seconds) << "\n";
        os << "step," << s.step << ",-,messages," << s.messages
           << "\n";
        os << "step," << s.step << ",-,failed," << s.failed << "\n";
        os << "step," << s.step << ",-,bytes," << util::formatDouble(s.bytes)
           << "\n";
    }

    for (const Step &s : steps)
        for (std::size_t r = 0; r < s.rank_busy_s.size(); ++r)
            if (s.rank_busy_s[r] > 0.0 || s.rank_bytes[r] > 0.0) {
                os << "rank," << s.step << ",r" << r << ",busy_s,"
                   << util::formatDouble(s.rank_busy_s[r]) << "\n";
                os << "rank," << s.step << ",r" << r << ",bytes,"
                   << util::formatDouble(s.rank_bytes[r]) << "\n";
            }

    os << "total,run,-,messages," << totalMessages() << "\n";
    os << "total,run,-,failed," << totalFailed() << "\n";
    os << "total,run,-,bytes," << util::formatDouble(totalBytes()) << "\n";
}

void
CollTelemetry::dumpCsvFile(const std::string &path) const
{
    util::writeArtifactFile(path, "CollTelemetry",
                            [this](std::ostream &os) { dumpCsv(os); });
}

CollExecResult
executeAlphaBeta(const Schedule &schedule, double payload_bytes,
                 const AlphaBeta &cost)
{
    requireValid(schedule, payload_bytes, "executeAlphaBeta");
    return finalize(schedule, payload_bytes,
                    alphaBetaSeconds(schedule, payload_bytes, cost),
                    schedule.bytesOnWire(payload_bytes));
}

AlphaBeta
alphaBetaOf(const flow::SwitchProfile &profile, double line_rate_gbps,
            int hops)
{
    if (line_rate_gbps <= 0.0)
        fatal("alphaBetaOf: line rate must be positive");
    if (hops < 1) fatal("alphaBetaOf: hops must be >= 1");
    AlphaBeta ab;
    ab.alpha_s = static_cast<double>(hops) * profile.zero_load_latency *
                 profile.cycle_seconds;
    const double sat = std::min(profile.saturation, 1.0);
    ab.beta_s_per_byte = 1.0 / (line_rate_gbps * 1e9 / 8.0 * sat);
    return ab;
}

CollExecResult
executeOnDcn(const Schedule &schedule, double payload_bytes,
             flow::DcnTopology &topo, const flow::SwitchProfile &profile,
             const CollExecConfig &cfg)
{
    requireValid(schedule, payload_bytes, "executeOnDcn");
    if (topo.hostCount() < schedule.ranks)
        fatal("executeOnDcn: ", schedule.ranks, "-rank ",
              schedule.name(), " needs ", schedule.ranks,
              " hosts but the topology has ", topo.hostCount());
    if (cfg.fault.at_step >= 0) {
        const auto count = static_cast<int>(
            cfg.fault.kill_switch ? topo.switchCount()
                                  : topo.links().size());
        if (cfg.fault.id < 0 || cfg.fault.id >= count)
            fatal("executeOnDcn: fault id ", cfg.fault.id,
                  " is out of range: ", topo.name(), " has ", count,
                  cfg.fault.kill_switch ? " switches" : " trunks");
    }

    obs::ScopedPhase exec_phase(cfg.profiler, "coll-dcn");
    // Step spans and fault instants are in simulated time: they get
    // their own track, never a campaign worker's wall-clock one.
    const int trace_tid =
        cfg.trace ? cfg.trace->allocateTrack(cfg.trace_label) : 0;

    double seconds = 0.0;
    double bytes_on_wire = 0.0;
    std::int64_t failed = 0;
    std::vector<flow::FlowArrival> step_flows;
    std::size_t mi = 0;
    std::uint64_t flow_id = 1;

    std::shared_ptr<CollTelemetry> telemetry;
    std::vector<flow::FlowRecord> records;
    if (cfg.telemetry) {
        telemetry = std::make_shared<CollTelemetry>();
        telemetry->ranks = schedule.ranks;
    }

    for (int step = 0; step < schedule.steps; ++step) {
        obs::ScopedPhase step_phase(cfg.profiler, "step");
        // Step boundary mark: a collective hung inside a step names
        // the step in the stall dump. Purely passive.
        obs::recordEvent(obs::EventKind::SimEpoch, step, schedule.steps,
                         schedule.name());
        if (cfg.fault.at_step == step) {
            if (cfg.fault.kill_switch)
                topo.setSwitchAlive(cfg.fault.id, false);
            else
                topo.setLinkAlive(cfg.fault.id, false);
            if (cfg.trace)
                cfg.trace->instant(
                    cfg.fault.kill_switch ? "switch down" : "trunk down",
                    "fault", trace_tid,
                    static_cast<std::int64_t>(seconds * 1e6),
                    {obs::TraceArg::num(
                        "id", static_cast<std::int64_t>(cfg.fault.id))});
            obs::recordEvent(obs::EventKind::FaultInjection, cfg.fault.id,
                             step,
                             cfg.fault.kill_switch ? "switch down"
                                                   : "trunk down");
        }

        step_flows.clear();
        while (mi < schedule.messages.size() &&
               schedule.messages[mi].step == step) {
            const CollMessage &m = schedule.messages[mi++];
            flow::FlowArrival a;
            a.id = flow_id++;
            a.arrival_s = 0.0;
            a.src_host = m.src;
            a.dst_host = m.dst;
            a.bytes = m.fraction * payload_bytes;
            step_flows.push_back(a);
        }

        // Dependency-aware release: the whole batch starts at the
        // step barrier, the barrier's span is its slowest flow.
        flow::FlowSimConfig step_cfg;
        step_cfg.profiler = cfg.profiler;
        if (telemetry) {
            records.clear();
            step_cfg.flow_records = &records;
        }
        const flow::FlowSimResult r =
            flow::simulateFlows(topo, profile, step_flows, {}, step_cfg);
        const double step_seconds = r.fct_max_s;
        failed += r.failed;
        bytes_on_wire += r.completed_bytes;
        if (cfg.trace)
            cfg.trace->complete(
                "step " + std::to_string(step), cfg.trace_label,
                trace_tid, static_cast<std::int64_t>(seconds * 1e6),
                static_cast<std::int64_t>(step_seconds * 1e6),
                {obs::TraceArg::num(
                     "messages",
                     static_cast<std::int64_t>(step_flows.size())),
                 obs::TraceArg::num(
                     "failed", static_cast<std::int64_t>(r.failed))});

        if (telemetry) {
            CollTelemetry::Step ts;
            ts.step = step;
            ts.start_s = seconds;
            ts.seconds = step_seconds;
            ts.messages =
                static_cast<std::int64_t>(step_flows.size());
            ts.failed = r.failed;
            ts.bytes = r.completed_bytes;
            const auto ranks =
                static_cast<std::size_t>(schedule.ranks);
            ts.rank_busy_s.assign(ranks, 0.0);
            ts.rank_bytes.assign(ranks, 0.0);
            for (const flow::FlowRecord &rec : records) {
                if (rec.failed)
                    continue;
                const auto src = static_cast<std::size_t>(rec.src);
                ts.rank_busy_s[src] =
                    std::max(ts.rank_busy_s[src], rec.fct_s);
                ts.rank_bytes[src] += rec.bytes;
            }
            if (cfg.trace)
                // The Gantt view: one span per sending rank, on a
                // per-rank track owned by the sink (so coll ranks
                // never collide with flow or campaign tracks).
                for (std::size_t rk = 0; rk < ranks; ++rk) {
                    if (ts.rank_busy_s[rk] <= 0.0)
                        continue;
                    const int tid = cfg.trace->allocateTrack(
                        cfg.trace_label + "/rank " +
                        std::to_string(rk));
                    cfg.trace->complete(
                        "step " + std::to_string(step),
                        cfg.trace_label, tid,
                        static_cast<std::int64_t>(seconds * 1e6),
                        static_cast<std::int64_t>(ts.rank_busy_s[rk] *
                                                  1e6),
                        {obs::TraceArg::num("bytes",
                                            ts.rank_bytes[rk])});
                }
            telemetry->steps.push_back(std::move(ts));
        }
        seconds += step_seconds;
    }

    countCollective(cfg, schedule, bytes_on_wire);
    CollExecResult result =
        finalize(schedule, payload_bytes, seconds, bytes_on_wire);
    result.failed_messages = failed;
    result.telemetry = telemetry;
    return result;
}

CollExecResult
executeOnFabric(const Schedule &schedule, double payload_bytes,
                const topology::LogicalTopology &topo,
                const sim::NetworkSpec &spec, double cycle_seconds,
                double flit_bytes, const CollExecConfig &cfg)
{
    requireValid(schedule, payload_bytes, "executeOnFabric");
    obs::ScopedPhase exec_phase(cfg.profiler, "coll-fabric");
    if (cycle_seconds <= 0.0 || flit_bytes <= 0.0)
        fatal("executeOnFabric: cycle_seconds and flit_bytes must be "
              "positive");
    if (topo.totalExternalPorts() < schedule.ranks)
        fatal("executeOnFabric: ", schedule.ranks, "-rank ",
              schedule.name(), " needs ", schedule.ranks,
              " external ports but '", topo.name(), "' has ",
              topo.totalExternalPorts());

    // Lower to a one-cycle-per-step trace; barrier_period = 1 makes
    // every step an iteration barrier, i.e. the schedule's
    // dependency order.
    trace::MessageTrace mt;
    mt.name = schedule.name();
    mt.ranks = static_cast<int>(topo.totalExternalPorts());
    const int payload_flits = static_cast<int>(std::max<long>(
        1, std::lround(payload_bytes / flit_bytes)));
    trace::appendSchedule(mt, schedule, 0, 1, payload_flits);

    sim::Network net(topo, spec, 1);
    trace::TraceWorkload workload(mt, 1.0, 1);
    sim::SimConfig sim_cfg;
    sim_cfg.run_to_exhaustion = true;
    sim_cfg.warmup = 0;
    // Generous completion bound: per step, the largest message plus
    // pipeline/contention slack; fatal below if it is ever hit.
    std::int64_t largest = 1;
    for (const CollMessage &m : schedule.messages)
        largest = std::max<std::int64_t>(
            largest, std::lround(m.fraction * payload_flits));
    sim_cfg.measure = static_cast<sim::Cycle>(
        static_cast<std::int64_t>(schedule.steps) *
            (8 * largest + 4096) +
        100000);
    sim_cfg.drain_limit = 0;
    obs::recordEvent(obs::EventKind::SimEpoch, schedule.steps,
                     payload_flits, schedule.name());
    sim::Simulator sim(net, workload, sim_cfg);
    const sim::SimResult r = sim.run();
    if (!r.stable)
        fatal("executeOnFabric: ", schedule.name(), " on '",
              topo.name(), "' did not complete within ",
              sim_cfg.measure, " cycles");

    const double bytes_on_wire =
        static_cast<double>(mt.totalFlits()) * flit_bytes;
    countCollective(cfg, schedule, bytes_on_wire);
    if (cfg.trace)
        cfg.trace->complete(
            schedule.name(), cfg.trace_label,
            cfg.trace->allocateTrack(cfg.trace_label), 0,
            static_cast<std::int64_t>(
                static_cast<double>(r.end_cycle) * cycle_seconds * 1e6),
            {obs::TraceArg::num("cycles", static_cast<std::int64_t>(
                                              r.end_cycle))});
    return finalize(schedule, payload_bytes,
                    static_cast<double>(r.end_cycle) * cycle_seconds,
                    bytes_on_wire);
}

} // namespace wss::coll

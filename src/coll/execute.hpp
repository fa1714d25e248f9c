/**
 * @file
 * Collective execution at three fidelities over one shared semantic —
 * the bulk-synchronous step barrier of coll::Schedule:
 *
 *  - executeAlphaBeta: the closed-form cost model, instant;
 *  - executeOnDcn: each step becomes a batch of flow::simulateFlows
 *    flows released together (dependency-aware release: step s+1's
 *    flows only exist after step s's slowest flow completes), so
 *    congestion, ECMP collisions and faults shape the completion
 *    time;
 *  - executeOnFabric: the schedule is lowered to a MessageTrace
 *    (trace::appendSchedule, one cycle per step) and replayed
 *    closed-loop through the cycle-accurate sim:: fabric with
 *    iteration barriers of one step.
 *
 * On an uncongested single-switch topology the flow fidelity matches
 * the alpha-beta model exactly (each step's flows all get the full
 * derated line rate and the zero-load latency) — ctest asserts this;
 * the fabric fidelity agrees within the tolerance set by flit
 * quantization and router pipelining.
 */

#ifndef WSS_COLL_EXECUTE_HPP
#define WSS_COLL_EXECUTE_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "coll/schedule.hpp"
#include "flow/dcn_topology.hpp"
#include "flow/switch_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"
#include "sim/network.hpp"
#include "topology/logical_topology.hpp"

namespace wss::coll {

/**
 * Per-step, per-rank time-resolved telemetry of one executeOnDcn()
 * run (enabled by CollExecConfig::telemetry): when each step's
 * barrier released, how long it ran, and how long each rank's
 * slowest outgoing message took inside it — the collective's Gantt
 * chart. Integer totals reconcile exactly with the run's counters
 * and totalBytes() is bit-identical to bytes_on_wire (both
 * ctest-asserted).
 */
struct CollTelemetry
{
    int ranks = 0;
    struct Step
    {
        int step = 0;
        /// Barrier instant the step released at (seconds).
        double start_s = 0.0;
        /// Step span: its slowest flow (seconds).
        double seconds = 0.0;
        std::int64_t messages = 0;
        std::int64_t failed = 0;
        /// Bytes the step's completed flows delivered.
        double bytes = 0.0;
        /// Per-rank busy time: the slowest completed flow sourced at
        /// that rank (0 when the rank sent nothing this step).
        std::vector<double> rank_busy_s;
        /// Bytes each rank sourced via completed flows.
        std::vector<double> rank_bytes;
    };
    std::vector<Step> steps;

    std::int64_t totalMessages() const;
    std::int64_t totalFailed() const;
    /// Per-step bytes summed in step order — the same accumulation
    /// executeOnDcn uses for bytes_on_wire, so the two are
    /// bit-identical.
    double totalBytes() const;

    /// Long-format CSV (`record,step,scope,metric,value` with record
    /// ∈ {step, rank, total}); rank rows only where the rank sent.
    void dumpCsv(std::ostream &os) const;
    /// Flush-checked file counterpart (util::writeArtifactFile).
    void dumpCsvFile(const std::string &path) const;
};

/// What one collective execution produced, at any fidelity.
struct CollExecResult
{
    /// Collective completion time (seconds).
    double seconds = 0.0;
    /// Algorithmic bandwidth: payload / time (Gbps) — what the
    /// application observes.
    double algbw_gbps = 0.0;
    /// Bus bandwidth: algbw x busBandwidthFactor — what the wires
    /// carry; comparable across algorithms and rank counts.
    double busbw_gbps = 0.0;
    int steps = 0;
    std::int64_t messages = 0;
    /// Bytes the network actually carried.
    double bytes_on_wire = 0.0;
    /// Flow fidelity only: messages that found no live path (after a
    /// mid-collective fault). Nonzero means the collective would
    /// hang; seconds then covers only the delivered messages.
    std::int64_t failed_messages = 0;
    /// Per-step per-rank Gantt data; null unless
    /// CollExecConfig::telemetry (flow fidelity only).
    std::shared_ptr<CollTelemetry> telemetry;
};

/// Optional mid-collective fault, applied just before the given step
/// releases (flow fidelity only).
struct CollFaultSpec
{
    /// Step index the fault precedes; -1 disables.
    int at_step = -1;
    /// Kill a switch (true) or a trunk bundle (false).
    bool kill_switch = true;
    /// Switch or trunk id.
    int id = 0;
};

/// Optional instrumentation / fault injection for one execution.
struct CollExecConfig
{
    /// coll.steps / coll.messages / coll.bytes counters land here.
    obs::MetricsRegistry *metrics = nullptr;
    /// One span per collective step (simulated microseconds), on
    /// the trace track named trace_label.
    obs::TraceEventSink *trace = nullptr;
    std::string trace_label = "coll";
    CollFaultSpec fault;
    /// Collect CollExecResult::telemetry in executeOnDcn; with
    /// `trace` also set, emits one span per (rank, step) on per-rank
    /// tracks from TraceEventSink::allocateTrack. Purely additive:
    /// behavioural results are bit-identical on/off.
    bool telemetry = false;
    /// Scoped phase timers when set ("coll-dcn" with "step" and the
    /// flow simulator's own phases nested).
    obs::Profiler *profiler = nullptr;
};

/// Price @p schedule with the closed-form model (same result shape
/// as the simulated fidelities, for uniform reporting).
CollExecResult executeAlphaBeta(const Schedule &schedule,
                                double payload_bytes,
                                const AlphaBeta &cost);

/**
 * The alpha-beta parameters a calibrated switch design implies for
 * hosts @p hops switches apart: alpha = hops x zero-load latency,
 * beta = 1 / (saturation-derated line rate). This is what the flow
 * fidelity charges an uncongested flow, so the two fidelities agree
 * exactly on a single-switch (hops = 1) fabric.
 */
AlphaBeta alphaBetaOf(const flow::SwitchProfile &profile,
                      double line_rate_gbps, int hops);

/**
 * Execute @p schedule rank-per-host over @p topo (rank i = host i;
 * topo must cover schedule.ranks hosts). Each step runs as one
 * simulateFlows batch; @p cfg.fault can kill a switch/trunk between
 * steps (routes rebuild, later steps reroute or fail). @p topo is
 * mutated (fault state); build a fresh topology per run.
 */
CollExecResult executeOnDcn(const Schedule &schedule,
                            double payload_bytes, flow::DcnTopology &topo,
                            const flow::SwitchProfile &profile,
                            const CollExecConfig &cfg = {});

/**
 * Execute @p schedule cycle-accurately: rank-per-external-port on the
 * chiplet fabric @p topo (which must expose >= schedule.ranks
 * external ports), message sizes quantized to @p flit_bytes-byte
 * flits, completion time = makespan cycles x @p cycle_seconds.
 * fatal() if the replay hits its cycle bound without completing.
 */
CollExecResult executeOnFabric(const Schedule &schedule,
                               double payload_bytes,
                               const topology::LogicalTopology &topo,
                               const sim::NetworkSpec &spec,
                               double cycle_seconds, double flit_bytes,
                               const CollExecConfig &cfg = {});

} // namespace wss::coll

#endif // WSS_COLL_EXECUTE_HPP

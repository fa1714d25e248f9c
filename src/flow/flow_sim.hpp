/**
 * @file
 * Discrete-event max-min fair-share flow simulator over a
 * DcnTopology of calibrated switches.
 *
 * The classic flow-level abstraction: flows (host-to-host byte
 * transfers) share link bandwidth by max-min fairness, recomputed at
 * every arrival, completion and fault event. The solver is
 * flow::maxMinRates (max_min.hpp): a progressive waterfill whose
 * bottleneck search is a lazy min-heap keyed on (fair share, first
 * use), bit-identical to the linear scan it replaced — the oracle and
 * golden tests in tests/test_flow.cpp hold it to that.
 * What sets this engine apart from a generic flow simulator is that
 * every bandwidth and latency figure is *calibrated*: link
 * capacities are derated by the switch fabric's measured saturation
 * throughput, and each flow pays a per-switch latency read off the
 * cycle-accurate load–latency curve (SwitchProfile) at the switch's
 * offered load when the flow starts. The DCN-scale FCT/slowdown
 * tails therefore inherit the single-switch fidelity of Figs. 21-24.
 *
 * The engine is single-threaded and strictly deterministic: same
 * topology, profile, flow list and fault schedule — same statistics,
 * bit for bit. Parallel campaigns run independent cells, never
 * concurrent events.
 */

#ifndef WSS_FLOW_FLOW_SIM_HPP
#define WSS_FLOW_FLOW_SIM_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "fault/flow_faults.hpp"
#include "flow/dcn_topology.hpp"
#include "flow/switch_profile.hpp"
#include "flow/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"

namespace wss::flow {

/// One terminal flow outcome, appended to
/// FlowSimConfig::flow_records when that is set. coll:: turns these
/// into per-rank Gantt spans.
struct FlowRecord
{
    std::uint64_t id = 0;
    std::int64_t src = 0;
    std::int64_t dst = 0;
    double bytes = 0.0;
    /// Completion time (transfer + calibrated latency) for completed
    /// flows; time spent in flight before failing otherwise.
    double fct_s = 0.0;
    bool failed = false;
};

/// Optional instrumentation of one simulateFlows() run.
struct FlowSimConfig
{
    /// Counters (flow.started/completed/failed/rerouted,
    /// flow.fault_events) and the flow.slowdown histogram land here
    /// when set. Not thread-safe: one registry per concurrent run.
    obs::MetricsRegistry *metrics = nullptr;
    /// One complete span for the run plus an instant event per
    /// applied fault (simulated milliseconds as timestamps).
    obs::TraceEventSink *trace = nullptr;
    /// Span label and name of the run's own trace track.
    std::string trace_label = "flow-sim";
    /// Scoped phase timers ("flow-sim" with "waterfill" nested) when
    /// set. Like metrics: nullptr costs one predicted branch.
    obs::Profiler *profiler = nullptr;
    /// > 0 collects windowed time-resolved telemetry
    /// (FlowSimResult::telemetry) with this window length in
    /// simulated seconds; 0 (default) disables it. Purely additive:
    /// the behavioural results are bit-identical either way.
    double telemetry_window_s = 0.0;
    /// When set, every terminal flow outcome (completed or failed)
    /// appends one FlowRecord here, in event order.
    std::vector<FlowRecord> *flow_records = nullptr;
};

/**
 * Windowed time series of one simulateFlows() run: where congestion
 * lives, and when. Per window: flow start/completion/failure counts,
 * the in-flight gauge at window close, delivered bytes, and bytes
 * carried per trunk (so per-link utilization over time falls out).
 * Integer totals reconcile exactly with the run's counters
 * (ctest-asserted) — every event lands in exactly one window.
 */
struct FlowTelemetry
{
    /// Window length (simulated seconds).
    double window_s = 0.0;
    /// Derated capacity (bytes/s) per trunk, for utilization.
    std::vector<double> link_capacity_bps;
    struct Window
    {
        std::int64_t started = 0;
        std::int64_t completed = 0;
        std::int64_t failed = 0;
        /// Active flows when the window's last event batch ended.
        std::int64_t in_flight_end = 0;
        /// Bytes delivered by flows completing in this window.
        double completed_bytes = 0.0;
        /// Bytes carried per trunk during this window.
        std::vector<double> link_bytes;
    };
    /// Window k covers [k*window_s, (k+1)*window_s).
    std::vector<Window> windows;

    std::int64_t totalStarted() const;
    std::int64_t totalCompleted() const;
    std::int64_t totalFailed() const;

    /// Mean utilization of @p link during window @p w (0 when the
    /// trunk has no capacity).
    double linkUtilization(std::size_t w, std::size_t link) const;

    /// Long-format CSV, same shape as SimObservation::dumpCsv:
    /// `record,window,scope,metric,value` with record ∈ {capacity,
    /// window, link, total}. Link rows are emitted only for trunks
    /// that carried bytes in that window.
    void dumpCsv(std::ostream &os) const;
    /// Flush-checked file counterpart (util::writeArtifactFile).
    void dumpCsvFile(const std::string &path) const;
};

/// What one flow-level run produced.
struct FlowSimResult
{
    std::int64_t started = 0;
    std::int64_t completed = 0;
    /// Flows dropped because no live path existed (at arrival or
    /// after a fault).
    std::int64_t failed = 0;
    /// Flows whose path was rebuilt around a fault mid-transfer.
    std::int64_t rerouted = 0;
    /// Fault transitions applied during the run.
    std::int64_t fault_events = 0;
    /// Simulated seconds until the last flow finished.
    double duration_s = 0.0;
    /// Bytes delivered by completed flows.
    double completed_bytes = 0.0;
    /// Goodput of completed flows over the run (Gbps).
    double throughput_gbps = 0.0;
    /// Flow completion time (seconds): transfer time plus the
    /// calibrated per-switch latency terms.
    double fct_avg_s = 0.0;
    /// Largest FCT of any completed flow — the completion time of
    /// the whole batch when all flows are released together (how
    /// coll:: prices one bulk-synchronous collective step).
    double fct_max_s = 0.0;
    double fct_p50_s = 0.0;
    double fct_p99_s = 0.0;
    double fct_p999_s = 0.0;
    /// FCT normalised by the ideal lone-flow time on the same path.
    double slowdown_avg = 0.0;
    double slowdown_p50 = 0.0;
    double slowdown_p99 = 0.0;
    double slowdown_p999 = 0.0;
    /// Mean switches traversed per started flow.
    double avg_hops = 0.0;
    /// Windowed time series; null unless
    /// FlowSimConfig::telemetry_window_s > 0.
    std::shared_ptr<FlowTelemetry> telemetry;
};

/**
 * The flow-conservation invariant: every started flow is accounted
 * for as completed, failed, or still in flight. panic() (abort) on
 * violation — a broken engine must never quietly produce statistics.
 * The engine checks this after every event batch and again at drain
 * (where in_flight must be 0).
 */
void verifyFlowConservation(std::int64_t started, std::int64_t completed,
                            std::int64_t failed, std::int64_t in_flight);

/**
 * Run @p flows (sorted by arrival time, as generateFlows produces)
 * over @p topo, each switch modeled by @p profile. @p faults is
 * applied in time order: a dead switch or trunk triggers an ECMP
 * table rebuild, in-flight flows crossing it are rerouted onto
 * surviving paths (or counted failed when none exists), and flows
 * arriving while no path exists fail immediately.
 *
 * Degenerate flows are handled explicitly: a same-host (src == dst)
 * flow is host loopback — it completes in bytes/line_rate without
 * touching NICs, trunks or switch latency (0 hops); a zero-byte flow
 * completes at arrival paying only the calibrated path latency.
 * Neither ever enters the fair-share waterfill, so they cannot stall
 * the engine or steal bandwidth. Negative or non-finite byte counts,
 * non-finite arrival times and a flow arriving before its
 * predecessor are fatal input errors naming the flow.
 *
 * @p topo is mutated (fault state, routing tables); build a fresh
 * topology per run.
 */
FlowSimResult simulateFlows(DcnTopology &topo,
                            const SwitchProfile &profile,
                            const std::vector<FlowArrival> &flows,
                            const fault::DcnFaultSchedule &faults = {},
                            const FlowSimConfig &cfg = {});

} // namespace wss::flow

#endif // WSS_FLOW_FLOW_SIM_HPP

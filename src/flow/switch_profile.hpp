/**
 * @file
 * Load–latency profiles of whole switches, calibrated from the
 * cycle-accurate fabric simulator.
 *
 * The flow-level DCN simulator (flow::FlowSimulator) models each
 * switch of a multi-switch network as a black box with a latency
 * that depends on its offered load. A SwitchProfile is that box:
 * a piecewise-linear latency-vs-load curve plus the saturation
 * throughput, obtained by sweeping the *cycle-accurate* simulator
 * (`sim::`) over the switch's internal chiplet fabric — so the DCN
 * results inherit the fidelity of Figs. 21-24 without re-simulating
 * every flit at datacenter scale.
 *
 * Profiles serialize to a small JSON document and load back
 * bit-exactly (numbers round-trip through max_digits10), so a
 * calibration is run once per switch design and reused by every
 * DCN campaign.
 */

#ifndef WSS_FLOW_SWITCH_PROFILE_HPP
#define WSS_FLOW_SWITCH_PROFILE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"
#include "power/ssc.hpp"
#include "sim/load_sweep.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace wss::flow {

/// One calibrated point of the latency-vs-load curve.
struct ProfilePoint
{
    /// Offered load (fraction of per-port line rate).
    double offered = 0.0;
    /// Mean packet latency at that load (fabric cycles).
    double avg_latency = 0.0;
    /// 99th-percentile packet latency (fabric cycles).
    double p99_latency = 0.0;
};

/**
 * A whole switch condensed to what the flow-level simulator needs.
 */
struct SwitchProfile
{
    /// Design label ("ws-6400", "th5-64", ...).
    std::string name;
    /// External ports (the DCN-level radix of this switch).
    std::int64_t radix = 0;
    /// Per-port line rate (Gbps).
    double line_rate_gbps = 0.0;
    /// Wall-clock seconds per fabric cycle (converts the calibrated
    /// cycle latencies to seconds; a 200G port moving 64 B flits
    /// runs one flit time in 2.56 ns).
    double cycle_seconds = 2.56e-9;
    /// Total switch power (W) — the solver's breakdown for the
    /// waferscale design, an SSC+I/O estimate otherwise.
    double power_watts = 0.0;
    /// Zero-load latency (cycles), from the sweep's lowest point.
    double zero_load_latency = 0.0;
    /// Highest stable offered load (fraction of line rate). Flow-
    /// level link capacities are derated by this factor, so a fabric
    /// that saturates at 62% cannot be driven past it at DCN scale
    /// either.
    double saturation = 1.0;
    /// Stable sweep points, ascending in offered load.
    std::vector<ProfilePoint> points;

    /// Mean latency at @p offered (fraction of line rate):
    /// piecewise-linear through (0, zero_load_latency) and the
    /// calibrated points, clamped at the last point beyond it.
    double latencyCycles(double offered) const;

    /// p99 latency at @p offered, same interpolation.
    double p99LatencyCycles(double offered) const;

    /// latencyCycles() converted to seconds.
    double
    latencySeconds(double offered) const
    {
        return latencyCycles(offered) * cycle_seconds;
    }

    /// Serialize as a standalone JSON document (full precision).
    void writeJson(std::ostream &os) const;
    /// Flush-checked file counterpart (fatal on I/O error).
    void writeJsonFile(const std::string &path) const;

    /// Parse a document produced by writeJson(); fatal() on
    /// malformed input or missing fields.
    static SwitchProfile fromJson(std::istream &is);
    /// fromJson() on @p path; fatal() when the file cannot be read.
    static SwitchProfile loadJsonFile(const std::string &path);
};

/**
 * Everything calibrateSwitchProfile() needs: the switch's internal
 * fabric and the load sweep to run on it. The defaults are the one
 * calibration of the DCN and collective studies (`wss dcn`'s flags,
 * bench_dcn and bench_coll, hostbench's shipped profiles).
 */
struct CalibrationSpec
{
    /// Profile label.
    std::string name;
    /// External ports; must be a positive multiple of ssc.radix / 2
    /// (the switch's internal fabric is a 2-level folded Clos of
    /// these chiplets, exactly like the paper's waferscale switch).
    std::int64_t ports = 512;
    /// The profile's radix when not ports (a capped fabric); 0 = ports.
    std::int64_t radix = 0;
    /// Sub-switch chiplet of the internal fabric.
    power::SscConfig ssc;
    /// Offered loads to sweep (fractions of line rate).
    std::vector<double> rates = sim::geometricRates(0.05, 0.95, 5);
    /// Flits per packet in the calibration runs.
    int packet_flits = 4;
    /// Router/channel parameters of the internal fabric.
    sim::NetworkSpec net_spec{
        .buffer_per_port = 64, .rc_delay_ingress = 2, .rc_delay_transit = 2,
        .pipeline_delay = 9, .terminal_link_latency = 8, .link_latency = {}};
    /// Phase configuration (cfg.seed is the calibration's base seed).
    sim::SimConfig sim_cfg{
        .warmup = 1000, .measure = 4000, .drain_limit = 20000};
    /// Carried into the profile verbatim.
    double power_watts = 0.0;
};

/**
 * Run the cycle-accurate load sweep for @p spec and condense it to a
 * SwitchProfile. Points execute through exec::SweepRunner, so a
 * pool parallelizes the sweep while the profile stays bit-identical
 * to the serial run. Unstable (saturated) points contribute to the
 * saturation estimate but are excluded from the latency curve.
 * @p profiler, when given, times the whole calibration as a
 * "calibrate" phase with the sweep's per-point phases nested below.
 */
SwitchProfile calibrateSwitchProfile(const CalibrationSpec &spec,
                                     exec::ThreadPool *pool = nullptr,
                                     obs::TraceEventSink *trace = nullptr,
                                     obs::Profiler *profiler = nullptr);

} // namespace wss::flow

#endif // WSS_FLOW_SWITCH_PROFILE_HPP

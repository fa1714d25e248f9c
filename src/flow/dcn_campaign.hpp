/**
 * @file
 * Design-comparison campaigns at datacenter-network scale — the
 * flow-level generalisation of the paper's Table IX.
 *
 * A DcnCampaign sweeps (switch design x workload x load): for each
 * cell it builds the smallest fabric of that design covering the
 * host count, generates a flow workload, runs the max-min flow
 * simulator, and records both the structural comparison the paper
 * makes in closed form (switch count, tiers, cables, worst-case
 * hops, power) and what only a simulator can produce — FCT and
 * slowdown tails under contention, incast and faults.
 *
 * Execution is exec::runGrid: one exec::Campaign task per cell
 * writing a preallocated slot, all randomness derived per cell from
 * (seed, cell index) — so the CSV artifact is byte-identical at any
 * --jobs value, and runCell() recomputes any one cell on its own.
 */

#ifndef WSS_FLOW_DCN_CAMPAIGN_HPP
#define WSS_FLOW_DCN_CAMPAIGN_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/flow_faults.hpp"
#include "flow/dcn_topology.hpp"
#include "flow/flow_sim.hpp"
#include "flow/switch_profile.hpp"
#include "flow/workload.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"

namespace wss::util {
class JsonWriter;
} // namespace wss::util

namespace wss::flow {

/// The sweep grid of one DCN campaign.
struct DcnCampaignConfig
{
    /// Calibrated switch designs to compare (>= 1; the canonical
    /// campaign holds one waferscale and one conventional profile).
    std::vector<SwitchProfile> designs;
    /// Fabric shape built from each design.
    DcnKind kind = DcnKind::FatTree;
    /// Hosts every fabric must cover.
    std::int64_t hosts = 1024;
    /// Flow workloads to sweep (each spec's load field is overridden
    /// by the swept load).
    std::vector<DcnWorkloadSpec> workloads;
    /// Offered loads (fraction of aggregate host bandwidth).
    std::vector<double> loads = {0.3, 0.7};
    /// Flows per cell.
    std::int64_t flows_per_cell = 100000;
    /// Field-failure model: when node_field_failure > 0, each cell
    /// samples switch kills over its workload's arrival window and
    /// replays them mid-run (reroutes included).
    fault::FaultModel fault_model{};
    /// Base seed; per-cell seeds derive from (seed, cell index).
    std::uint64_t seed = 1;
};

/// One (design, workload, load) cell.
struct DcnCellResult
{
    std::string design;
    std::string topology;
    std::string workload;
    double load = 0.0;
    std::int64_t hosts = 0;
    int switches = 0;
    int tiers = 0;
    std::int64_t cables = 0;
    int worst_hops = 0;
    /// switches x profile power.
    double power_kw = 0.0;
    FlowSimResult sim;
    /// Serial compute cost (excluded from the CSV so artifacts stay
    /// bit-identical across thread counts).
    double seconds = 0.0;
};

/// What a whole campaign produced.
struct DcnResult
{
    std::vector<DcnCellResult> cells;
    double wall_seconds = 0.0;
    int threads = 1;

    /// `# key=value` provenance lines plus one quoted row per cell
    /// (Table::printCsv). No timing — byte-identical for a given
    /// (config, seed) at any --jobs value.
    void writeCsv(std::ostream &os) const;
    /// Full-precision nested summary, including timing.
    void writeJson(std::ostream &os) const;
    /// The same object written as the next value of @p json.
    void writeJson(util::JsonWriter &json) const;
};

/**
 * Runs the (design x workload x load) grid.
 */
class DcnCampaign
{
  public:
    explicit DcnCampaign(DcnCampaignConfig config);

    /// @p pool nullptr runs serially. @p trace records one span per
    /// cell on per-worker tracks. @p profiler accumulates one
    /// "campaign/<cell>" phase per cell (merged across workers after
    /// the barrier).
    DcnResult run(exec::ThreadPool *pool = nullptr,
                  obs::TraceEventSink *trace = nullptr,
                  obs::Profiler *profiler = nullptr) const;

    /// Compute cell @p index (flat, load fastest, then workload,
    /// then design; fatal past the grid) with its own seed-derived
    /// flows and faults, simulated under @p sim_cfg. run() calls
    /// this with the default config; the observers set there
    /// (telemetry, trace, profiler) never change the results.
    DcnCellResult runCell(std::size_t index,
                          const FlowSimConfig &sim_cfg = {}) const;

  private:
    /// {designs, workloads, loads}: the grid's axis lengths.
    std::array<std::size_t, 3> shape() const;

    DcnCampaignConfig config_;
};

} // namespace wss::flow

#endif // WSS_FLOW_DCN_CAMPAIGN_HPP

/**
 * @file
 * Collective-comparison campaigns: (switch design x collective x
 * payload) grids answering the headline question — what does a ring
 * allreduce or an MoE all-to-all cost on a waferscale switch versus
 * a conventional leaf-spine — with every cell cross-checked against
 * the closed-form alpha-beta model.
 *
 * Execution is exec::runGrid, exactly like DcnCampaign: one task
 * per cell into a preallocated slot, no randomness in the engine, so
 * the CSV artifact is byte-identical at any --jobs value
 * (ctest-asserted).
 */

#ifndef WSS_COLL_CAMPAIGN_HPP
#define WSS_COLL_CAMPAIGN_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "coll/execute.hpp"
#include "exec/thread_pool.hpp"
#include "flow/switch_profile.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"

namespace wss::coll {

/// One collective x algorithm point of the sweep.
struct CollSpec
{
    Collective collective = Collective::AllReduce;
    Algorithm algorithm = Algorithm::Ring;
};

/// The canonical comparison set: ring / halving-doubling / tree
/// allreduce plus the MoE all-to-all.
std::vector<CollSpec> defaultCollSpecs();

/// Build the schedule a CollSpec names (fatal on unsupported
/// combinations, e.g. tree reduce-scatter).
Schedule buildSchedule(const CollSpec &spec, int ranks);

/// The sweep grid of one collective campaign.
struct CollCampaignConfig
{
    /// Calibrated switch designs to compare (>= 1).
    std::vector<flow::SwitchProfile> designs;
    /// Fabric shape built from each design.
    flow::DcnKind kind = flow::DcnKind::FatTree;
    /// Ranks (one host per rank).
    int ranks = 64;
    /// Collectives to sweep.
    std::vector<CollSpec> collectives = defaultCollSpecs();
    /// Per-rank payloads (bytes) to sweep.
    std::vector<double> payload_bytes = {1 << 20};
    /// Optional mid-collective fault applied in every cell.
    CollFaultSpec fault;
};

/// One (design, collective, payload) cell.
struct CollCellResult
{
    std::string design;
    std::string collective; ///< Schedule::name()
    int ranks = 0;
    double payload_bytes = 0.0;
    std::string topology;
    int switches = 0;
    int tiers = 0;
    int hops = 0; ///< worst-case switch hops (alpha-beta hop count)
    /// Flow-level execution and the closed-form model of the same
    /// schedule.
    CollExecResult flow;
    CollExecResult model;
    /// Serial compute cost (excluded from the CSV so artifacts stay
    /// bit-identical across thread counts).
    double seconds = 0.0;
};

/// What a whole campaign produced.
struct CollResult
{
    std::vector<CollCellResult> cells;
    double wall_seconds = 0.0;
    int threads = 1;

    /// `# key=value` provenance plus one quoted row per cell. No
    /// timing — byte-identical at any --jobs value.
    void writeCsv(std::ostream &os) const;
    /// Full-precision nested summary, including timing.
    void writeJson(std::ostream &os) const;
};

/**
 * Runs the (design x collective x payload) grid.
 */
class CollCampaign
{
  public:
    explicit CollCampaign(CollCampaignConfig config);

    /// @p pool nullptr runs serially. @p trace records one span per
    /// cell on per-worker tracks. @p profiler accumulates one
    /// "campaign/<cell>" phase per cell (merged across workers after
    /// the barrier).
    CollResult run(exec::ThreadPool *pool = nullptr,
                   obs::TraceEventSink *trace = nullptr,
                   obs::Profiler *profiler = nullptr) const;

    /// Compute cell @p index (flat, payload fastest, then
    /// collective, then design; fatal past the grid) with the
    /// campaign's fault, executed under @p exec_cfg (whose own fault
    /// is ignored). run() calls this with the default config; the
    /// observers set there (telemetry, metrics, trace, profiler)
    /// never change the results.
    CollCellResult runCell(std::size_t index,
                           const CollExecConfig &exec_cfg = {}) const;

  private:
    /// {designs, collectives, payloads}: the grid's axis lengths.
    std::array<std::size_t, 3> shape() const;

    CollCampaignConfig config_;
};

} // namespace wss::coll

#endif // WSS_COLL_CAMPAIGN_HPP

/**
 * @file
 * Monte-Carlo resilience campaigns: defect density x spare count x
 * radix.
 *
 * For every cell of the grid, a ResilienceCampaign samples many
 * DefectMaps of a folded-Clos switch (maps are shared across spare
 * counts of the same radix/density pair, so the spare axis is a true
 * paired comparison), repairs them with the paper's spare-socket
 * scheme, degrades the topology, and aggregates: survival
 * probability (the sampled analogue of tech::chipletSystemYield,
 * extended with link and field failures), expected usable radix, and
 * the surviving bisection fraction. Optionally the first few samples
 * of each cell are also *simulated* — packet-level saturation
 * throughput of the degraded fabric versus the healthy one.
 *
 * Execution rides src/exec: one exec::Campaign task per cell on a
 * plain shared-queue pool, results landing in preallocated slots,
 * and every random draw keyed by (seed, indices) through
 * util/seed.hpp — so the emitted CSV is bit-identical at any
 * --jobs value.
 */

#ifndef WSS_FAULT_RESILIENCE_HPP
#define WSS_FAULT_RESILIENCE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/defect.hpp"
#include "fault/degrade.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"
#include "power/ssc.hpp"
#include "sim/simulator.hpp"

namespace wss::fault {

/// The sweep grid and Monte-Carlo knobs of one campaign.
struct ResilienceConfig
{
    /// Switch radices to study (external ports of the folded Clos;
    /// each must be a positive multiple of ssc.radix / 2).
    std::vector<std::int64_t> radices = {512};
    /// Die defect densities to sweep (defects per cm^2).
    std::vector<double> defect_densities = {0.1};
    /// Spare-SSC counts to sweep.
    std::vector<int> spare_counts = {0, 1, 2};
    /// Sub-switch chiplet; its area drives the KGD-escape term.
    power::SscConfig ssc;
    /// Failure model template. Per cell, yield.defect_density_cm2 is
    /// replaced by the swept density and die_area by ssc.area. The
    /// defaults include a small KGD test-escape and field-failure
    /// rate so the density axis is not a no-op under perfect
    /// screening.
    FaultModel model{
        .yield = {},
        .die_area = 800.0,
        .test_escape = 0.05,
        .node_field_failure = 0.002,
        .link_field_failure = 0.0005,
    };
    /// Defect maps sampled per cell.
    int samples = 1000;
    /// Of those, how many of the first samples additionally run a
    /// packet-level degraded-throughput simulation (0 = none).
    int sim_samples = 0;
    /// Offered load for the throughput simulations
    /// (flits/terminal/cycle; pick near saturation).
    double sim_rate = 0.9;
    /// Flits per packet in the throughput simulations.
    int sim_packet_size = 4;
    /// Fabric parameters for the throughput simulations.
    sim::NetworkSpec net_spec;
    /// Phase configuration for the throughput simulations (the seed
    /// field is ignored; per-run seeds are derived).
    sim::SimConfig sim_cfg;
    /// Base seed every per-cell and per-sample seed derives from.
    std::uint64_t seed = 1;
};

/// Aggregated outcome of one (radix, density, spares) cell.
struct ResilienceCellResult
{
    /// Topology label, e.g. "clos(512,256)" — note the comma: CSV
    /// emission must quote it.
    std::string topology;
    std::int64_t ports = 0;
    int chiplets = 0;
    double defect_density = 0.0;
    int spares = 0;
    int samples = 0;
    /// Per-draw failure probabilities the maps were sampled from.
    double p_node_fail = 0.0;
    double p_link_fail = 0.0;
    /// P(fully connected after spare repair) — the survival
    /// probability.
    double survival = 0.0;
    double p_degraded = 0.0;
    double p_partitioned = 0.0;
    double expected_usable_ports = 0.0;
    /// expected_usable_ports / ports.
    double usable_fraction = 0.0;
    double mean_bisection_fraction = 0.0;
    /// tech::chipletSystemYield(chiplets, spares) — the closed-form
    /// bond-only yield this campaign generalizes.
    double analytic_bond_yield = 0.0;
    /// Throughput simulations actually run (<= config.sim_samples).
    int sim_samples = 0;
    /// Accepted throughput of the pristine fabric at sim_rate.
    double healthy_throughput = 0.0;
    /// Mean accepted throughput over the simulated degraded maps.
    double mean_degraded_throughput = 0.0;
    /// Serial compute cost of the cell (excluded from the CSV so
    /// artifacts stay bit-identical across thread counts).
    double seconds = 0.0;
};

/// What a whole campaign produced.
struct ResilienceResult
{
    std::vector<ResilienceCellResult> cells;
    double wall_seconds = 0.0;
    int threads = 1;

    /// `# key=value` provenance lines plus one quoted CSV row per
    /// cell (via Table::printCsv, so embedded commas in topology
    /// names are escaped). Contains no timing — bit-identical for a
    /// given (config, seed) at any thread count.
    void writeCsv(std::ostream &os) const;
    /// Full-precision nested summary, including timing.
    void writeJson(std::ostream &os) const;
};

/**
 * Runs the grid. Cells execute as exec::Campaign tasks; @p pool
 * nullptr runs serially.
 */
class ResilienceCampaign
{
  public:
    explicit ResilienceCampaign(ResilienceConfig config);

    /// @p trace, when given, records one span per grid cell on
    /// per-worker tracks (design-point labels in the args).
    /// @p profiler accumulates one "campaign/<cell>" phase per cell.
    ResilienceResult run(exec::ThreadPool *pool = nullptr,
                         obs::TraceEventSink *trace = nullptr,
                         obs::Profiler *profiler = nullptr) const;

  private:
    /// Compute one (radix, density, spares) cell; @p map_seed is the
    /// shared-by-spares defect-map seed of its (radix, density) pair.
    ResilienceCellResult runCell(std::size_t ri, std::size_t di,
                                 std::size_t si,
                                 std::uint64_t map_seed) const;

    ResilienceConfig config_;
};

} // namespace wss::fault

#endif // WSS_FAULT_RESILIENCE_HPP

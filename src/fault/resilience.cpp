#include "fault/resilience.hpp"

#include <array>
#include <ostream>
#include <sstream>
#include <utility>

#include "exec/campaign.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "topology/clos.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/seed.hpp"
#include "util/table.hpp"

namespace wss::fault {

namespace {

// Seed-derivation offsets keeping the map stream (indices
// [0, samples)) disjoint from the simulation streams of the same
// (radix, density) pair. Arbitrary constants well above any sample
// count.
constexpr std::uint64_t kHealthySimStream = 0xe5f1u << 16;
constexpr std::uint64_t kDegradedSimStream = 0xd3a7u << 16;

/// Accepted uniform-traffic throughput of @p topo at cfg.sim_rate
/// (flits/terminal/cycle). Fabrics with fewer than two terminals
/// cannot carry traffic and report 0.
double
acceptedThroughput(const topology::LogicalTopology &topo,
                   const ResilienceConfig &cfg, std::uint64_t seed)
{
    sim::Network network(topo, cfg.net_spec, seed);
    if (network.terminalCount() < 2)
        return 0.0;
    sim::SyntheticWorkload workload(
        sim::uniformTraffic(network.terminalCount()), cfg.sim_rate,
        cfg.sim_packet_size);
    sim::SimConfig sim_cfg = cfg.sim_cfg;
    sim_cfg.seed = seed;
    return sim::Simulator(network, workload, sim_cfg).run().accepted;
}

} // namespace

ResilienceCampaign::ResilienceCampaign(ResilienceConfig config)
    : config_(std::move(config))
{
    if (config_.radices.empty() || config_.defect_densities.empty() ||
        config_.spare_counts.empty())
        fatal("ResilienceCampaign: every sweep axis needs at least one "
              "value");
    if (config_.samples < 1)
        fatal("ResilienceCampaign: need at least one sample per cell");
    if (config_.sim_samples < 0 ||
        config_.sim_samples > config_.samples)
        fatal("ResilienceCampaign: sim_samples must be in [0, samples]");
    if (config_.sim_rate <= 0.0)
        fatal("ResilienceCampaign: sim_rate must be positive");
    for (int spares : config_.spare_counts)
        if (spares < 0)
            fatal("ResilienceCampaign: spare counts must be >= 0");
    for (double density : config_.defect_densities)
        if (density < 0.0)
            fatal("ResilienceCampaign: defect densities must be >= 0");
}

ResilienceResult
ResilienceCampaign::run(exec::ThreadPool *pool,
                        obs::TraceEventSink *trace,
                        obs::Profiler *profiler) const
{
    const auto &cfg = config_;
    const std::array<std::size_t, 3> grid{cfg.radices.size(),
                                          cfg.defect_densities.size(),
                                          cfg.spare_counts.size()};
    return exec::runGrid<ResilienceResult>(
        grid,
        [&](std::size_t index) {
            const auto [ri, di, si] = exec::gridAxes(index, grid);
            std::ostringstream name;
            name << "clos(" << cfg.radices[ri] << "," << cfg.ssc.radix
                 << ")/d=" << cfg.defect_densities[di]
                 << "/s=" << cfg.spare_counts[si];
            return name.str();
        },
        [&](std::size_t index) {
            // The defect-map seed depends only on the (radix, density)
            // pair, so cells along the spare axis repair the *same*
            // sampled maps — survival is monotone in spares by
            // construction, not just in expectation.
            const auto [ri, di, si] = exec::gridAxes(index, grid);
            return runCell(
                ri, di, si,
                deriveSeed(deriveSeed(cfg.seed, ri + 1), di + 1));
        },
        pool, trace, profiler);
}

ResilienceCellResult
ResilienceCampaign::runCell(std::size_t ri, std::size_t di,
                            std::size_t si, std::uint64_t map_seed) const
{
    const auto &cfg = config_;
    const std::int64_t ports = cfg.radices[ri];
    const double density = cfg.defect_densities[di];
    const int spares = cfg.spare_counts[si];

    const topology::LogicalTopology topo =
        topology::buildFoldedClos({ports, cfg.ssc, 1});

    FaultModel model = cfg.model;
    model.yield.defect_density_cm2 = density;
    model.die_area = cfg.ssc.area;
    const DefectSampler sampler(topo, model, map_seed);

    ResilienceCellResult cell;
    {
        std::ostringstream label;
        label << "clos(" << ports << "," << cfg.ssc.radix << ")";
        cell.topology = label.str();
    }
    cell.ports = ports;
    cell.chiplets = topo.nodeCount();
    cell.defect_density = density;
    cell.spares = spares;
    cell.samples = cfg.samples;
    cell.p_node_fail = model.nodeFailureProbability();
    cell.p_link_fail = model.linkFailureProbability();
    cell.analytic_bond_yield =
        tech::chipletSystemYield(topo.nodeCount(), spares, model.yield);

    if (cfg.sim_samples > 0)
        cell.healthy_throughput = acceptedThroughput(
            topo, cfg,
            deriveSeed(map_seed,
                       kHealthySimStream +
                           static_cast<std::uint64_t>(si)));

    std::int64_t fully = 0;
    std::int64_t degraded = 0;
    std::int64_t partitioned = 0;
    double usable_sum = 0.0;
    double bisection_sum = 0.0;
    double degraded_throughput_sum = 0.0;
    int sims = 0;
    for (int s = 0; s < cfg.samples; ++s) {
        DefectMap map = sampler.sample(static_cast<std::uint64_t>(s));
        applySpares(map, topo, spares);
        const DegradeResult deg = degradeTopology(topo, map);
        switch (deg.classification) {
        case Connectivity::FullyConnected: ++fully; break;
        case Connectivity::Degraded: ++degraded; break;
        case Connectivity::Partitioned: ++partitioned; break;
        }
        usable_sum += static_cast<double>(deg.usable_ports);
        bisection_sum += deg.bisection_fraction;

        // Packet-level check of the first few maps: what uniform
        // throughput does the surviving fabric actually sustain?
        // Partitioned samples are skipped — the largest island's
        // throughput is not comparable to the whole switch's.
        if (s < cfg.sim_samples &&
            deg.classification != Connectivity::Partitioned &&
            deg.topo && deg.usable_ports >= 2) {
            degraded_throughput_sum += acceptedThroughput(
                *deg.topo, cfg,
                deriveSeed(map_seed,
                           kDegradedSimStream +
                               static_cast<std::uint64_t>(si) *
                                   (static_cast<std::uint64_t>(
                                        cfg.samples) +
                                    1) +
                               static_cast<std::uint64_t>(s)));
            ++sims;
        }
    }

    const auto total = static_cast<double>(cfg.samples);
    cell.survival = static_cast<double>(fully) / total;
    cell.p_degraded = static_cast<double>(degraded) / total;
    cell.p_partitioned = static_cast<double>(partitioned) / total;
    cell.expected_usable_ports = usable_sum / total;
    cell.usable_fraction =
        ports > 0 ? cell.expected_usable_ports /
                        static_cast<double>(ports)
                  : 0.0;
    cell.mean_bisection_fraction = bisection_sum / total;
    cell.sim_samples = sims;
    cell.mean_degraded_throughput =
        sims > 0 ? degraded_throughput_sum / static_cast<double>(sims)
                 : 0.0;
    return cell;
}

void
ResilienceResult::writeCsv(std::ostream &os) const
{
    // Provenance only — deliberately no wall-clock and no thread
    // count, so the same (config, seed) produces a byte-identical
    // file at any --jobs value.
    os << "# wss resilience campaign\n";
    os << "# cells=" << cells.size() << "\n";

    Table table("resilience",
                {"topology", "ports", "chiplets", "defect_density",
                 "spares", "samples", "p_node_fail", "p_link_fail",
                 "survival", "p_degraded", "p_partitioned",
                 "expected_usable_ports", "usable_fraction",
                 "mean_bisection_fraction", "analytic_bond_yield",
                 "sim_samples", "healthy_throughput",
                 "mean_degraded_throughput"});
    for (const auto &cell : cells) {
        table.addRow({cell.topology, Table::num(cell.ports),
                      Table::num(cell.chiplets),
                      Table::num(cell.defect_density, 4),
                      Table::num(cell.spares),
                      Table::num(cell.samples),
                      Table::num(cell.p_node_fail, 6),
                      Table::num(cell.p_link_fail, 6),
                      Table::num(cell.survival, 6),
                      Table::num(cell.p_degraded, 6),
                      Table::num(cell.p_partitioned, 6),
                      Table::num(cell.expected_usable_ports, 2),
                      Table::num(cell.usable_fraction, 6),
                      Table::num(cell.mean_bisection_fraction, 6),
                      Table::num(cell.analytic_bond_yield, 6),
                      Table::num(cell.sim_samples),
                      Table::num(cell.healthy_throughput, 4),
                      Table::num(cell.mean_degraded_throughput, 4)});
    }
    table.printCsv(os);
}

void
ResilienceResult::writeJson(std::ostream &os) const
{
    util::JsonWriter json(os);
    json.beginObject(util::JsonWriter::kLines)
        .field("wall_seconds", wall_seconds).field("threads", threads)
        .key("cells").beginArray(util::JsonWriter::kLines);
    for (const auto &c : cells)
        json.beginObject()
            .field("topology", c.topology).field("ports", c.ports)
            .field("chiplets", c.chiplets)
            .field("defect_density", c.defect_density)
            .field("spares", c.spares).field("samples", c.samples)
            .field("p_node_fail", c.p_node_fail)
            .field("p_link_fail", c.p_link_fail).field("survival", c.survival)
            .field("p_degraded", c.p_degraded)
            .field("p_partitioned", c.p_partitioned)
            .field("expected_usable_ports", c.expected_usable_ports)
            .field("usable_fraction", c.usable_fraction)
            .field("mean_bisection_fraction", c.mean_bisection_fraction)
            .field("analytic_bond_yield", c.analytic_bond_yield)
            .field("sim_samples", c.sim_samples)
            .field("healthy_throughput", c.healthy_throughput)
            .field("mean_degraded_throughput",
                   c.mean_degraded_throughput)
            .field("seconds", c.seconds).end();
    json.end().end();
}

} // namespace wss::fault

#include "flow/dcn_campaign.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "exec/campaign.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/seed.hpp"
#include "util/table.hpp"

namespace wss::flow {

namespace {

/// Seed-stream offset keeping fault sampling disjoint from workload
/// generation within one cell.
constexpr std::uint64_t kFaultStream = 0xfa17u << 16;

} // namespace

DcnCampaign::DcnCampaign(DcnCampaignConfig config)
    : config_(std::move(config))
{
    if (config_.designs.empty() || config_.workloads.empty() ||
        config_.loads.empty())
        fatal("DcnCampaign: every sweep axis needs at least one value");
    if (config_.hosts < 2)
        fatal("DcnCampaign: need at least 2 hosts, got ",
              config_.hosts);
    if (config_.flows_per_cell < 1)
        fatal("DcnCampaign: flows_per_cell must be positive");
    for (const auto &design : config_.designs)
        if (design.radix <= 0 || design.line_rate_gbps <= 0.0)
            fatal("DcnCampaign: design '", design.name,
                  "' lacks a positive radix/line rate — was it "
                  "calibrated?");
    for (double load : config_.loads)
        if (load <= 0.0)
            fatal("DcnCampaign: loads must be positive");
}

DcnResult
DcnCampaign::run(exec::ThreadPool *pool, obs::TraceEventSink *trace,
                 obs::Profiler *profiler) const
{
    const auto &cfg = config_;
    const auto grid = shape();
    return exec::runGrid<DcnResult>(
        grid,
        [&](std::size_t index) {
            const auto [di, wi, li] = exec::gridAxes(index, grid);
            std::ostringstream name;
            name << cfg.designs[di].name << "/" << cfg.workloads[wi].name
                 << "/l=" << cfg.loads[li];
            return name.str();
        },
        [this](std::size_t index) { return runCell(index); }, pool,
        trace, profiler);
}

std::array<std::size_t, 3>
DcnCampaign::shape() const
{
    return {config_.designs.size(), config_.workloads.size(),
            config_.loads.size()};
}

DcnCellResult
DcnCampaign::runCell(std::size_t index,
                     const FlowSimConfig &sim_cfg) const
{
    const auto &cfg = config_;
    const auto [di, wi, li] = exec::gridAxes(index, shape());
    const SwitchProfile &profile = cfg.designs[di];
    const std::uint64_t cell_seed = deriveSeed(cfg.seed, index + 1);

    DcnTopology topo =
        DcnTopology::build(cfg.kind, cfg.hosts,
                           static_cast<int>(profile.radix),
                           profile.line_rate_gbps);

    DcnWorkloadSpec workload = cfg.workloads[wi];
    workload.load = cfg.loads[li];
    workload.flow_count = cfg.flows_per_cell;
    const std::vector<FlowArrival> flows = generateFlows(
        workload, topo.hostCount(), profile.line_rate_gbps, cell_seed);

    fault::DcnFaultSchedule faults;
    if (cfg.fault_model.node_field_failure > 0.0 && !flows.empty()) {
        // Mission window = the arrival window, so sampled kills land
        // while traffic is in flight.
        const double window = flows.back().arrival_s;
        if (window > 0.0)
            faults = fault::DcnFaultSchedule::sampleSwitchFailures(
                cfg.fault_model, topo.switchCount(), window,
                deriveSeed(cell_seed, kFaultStream));
    }

    DcnCellResult cell;
    cell.design = profile.name;
    cell.topology = topo.name();
    cell.workload = workload.name;
    cell.load = cfg.loads[li];
    cell.hosts = topo.hostCount();
    cell.switches = topo.switchCount();
    cell.tiers = topo.tiers();
    cell.cables = topo.cableCount();
    cell.worst_hops = topo.worstCaseHops();
    cell.power_kw = static_cast<double>(topo.switchCount()) *
                    profile.power_watts / 1000.0;
    cell.sim = simulateFlows(topo, profile, flows, faults, sim_cfg);
    return cell;
}

void
DcnResult::writeCsv(std::ostream &os) const
{
    // Provenance only — deliberately no wall-clock and no thread
    // count, so the same (config, seed) produces a byte-identical
    // file at any --jobs value.
    os << "# wss dcn campaign\n";
    os << "# cells=" << cells.size() << "\n";

    Table table("dcn",
                {"design", "topology", "workload", "load", "hosts",
                 "switches", "tiers", "cables", "worst_hops",
                 "power_kw", "flows", "completed", "failed",
                 "rerouted", "fault_events", "avg_hops",
                 "throughput_gbps", "fct_avg_us", "fct_p50_us",
                 "fct_p99_us", "fct_p999_us", "slowdown_avg",
                 "slowdown_p50", "slowdown_p99", "slowdown_p999"});
    for (const auto &cell : cells) {
        const auto &sim = cell.sim;
        table.addRow(
            {cell.design, cell.topology, cell.workload,
             Table::num(cell.load, 4), Table::num(cell.hosts),
             Table::num(cell.switches), Table::num(cell.tiers),
             Table::num(cell.cables), Table::num(cell.worst_hops),
             Table::num(cell.power_kw, 3), Table::num(sim.started),
             Table::num(sim.completed), Table::num(sim.failed),
             Table::num(sim.rerouted), Table::num(sim.fault_events),
             Table::num(sim.avg_hops, 3),
             Table::num(sim.throughput_gbps, 3),
             Table::num(sim.fct_avg_s * 1e6, 3),
             Table::num(sim.fct_p50_s * 1e6, 3),
             Table::num(sim.fct_p99_s * 1e6, 3),
             Table::num(sim.fct_p999_s * 1e6, 3),
             Table::num(sim.slowdown_avg, 3),
             Table::num(sim.slowdown_p50, 3),
             Table::num(sim.slowdown_p99, 3),
             Table::num(sim.slowdown_p999, 3)});
    }
    table.printCsv(os);
}

void
DcnResult::writeJson(std::ostream &os) const
{
    util::JsonWriter json(os);
    writeJson(json);
}

void
DcnResult::writeJson(util::JsonWriter &json) const
{
    // Laid out as a top-level document wherever it sits:
    // BENCH_dcn.json embeds it unindented under "campaign".
    constexpr util::JsonLayout kDocument{
        .lines = true, .indent = 2, .close = 0};
    json.beginObject(kDocument)
        .field("wall_seconds", wall_seconds).field("threads", threads)
        .key("cells").beginArray(util::JsonWriter::kLines);
    for (const auto &c : cells) {
        const auto &s = c.sim;
        json.beginObject()
            .field("design", c.design).field("topology", c.topology)
            .field("workload", c.workload).field("load", c.load)
            .field("hosts", c.hosts).field("switches", c.switches)
            .field("tiers", c.tiers).field("cables", c.cables)
            .field("worst_hops", c.worst_hops).field("power_kw", c.power_kw)
            .field("flows", s.started).field("completed", s.completed)
            .field("failed", s.failed).field("rerouted", s.rerouted)
            .field("fault_events", s.fault_events)
            .field("avg_hops", s.avg_hops)
            .field("throughput_gbps", s.throughput_gbps)
            .field("fct_avg_s", s.fct_avg_s).field("fct_p50_s", s.fct_p50_s)
            .field("fct_p99_s", s.fct_p99_s).field("fct_p999_s", s.fct_p999_s)
            .field("slowdown_avg", s.slowdown_avg)
            .field("slowdown_p50", s.slowdown_p50)
            .field("slowdown_p99", s.slowdown_p99)
            .field("slowdown_p999", s.slowdown_p999)
            .field("seconds", c.seconds).end();
    }
    json.end().end();
}

} // namespace wss::flow

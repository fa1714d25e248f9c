#include "coll/campaign.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "exec/campaign.hpp"
#include "flow/dcn_topology.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace wss::coll {

std::vector<CollSpec>
defaultCollSpecs()
{
    return {{Collective::AllReduce, Algorithm::Ring},
            {Collective::AllReduce, Algorithm::HalvingDoubling},
            {Collective::AllReduce, Algorithm::Tree},
            {Collective::AllToAll, Algorithm::Pairwise}};
}

Schedule
buildSchedule(const CollSpec &spec, int ranks)
{
    switch (spec.collective) {
    case Collective::AllReduce:
        return allReduceSchedule(spec.algorithm, ranks);
    case Collective::ReduceScatter:
        if (spec.algorithm != Algorithm::Ring)
            break;
        return reduceScatterSchedule(ranks);
    case Collective::AllGather:
        if (spec.algorithm != Algorithm::Ring)
            break;
        return allGatherSchedule(ranks);
    case Collective::AllToAll:
        if (spec.algorithm != Algorithm::Pairwise)
            break;
        return allToAllSchedule(ranks);
    case Collective::PointToPoint:
        if (spec.algorithm != Algorithm::Direct)
            break;
        return pointToPointSchedule();
    }
    fatal("coll: no ", toString(spec.algorithm), " schedule for ",
          toString(spec.collective));
}

CollCampaign::CollCampaign(CollCampaignConfig config)
    : config_(std::move(config))
{
    if (config_.designs.empty() || config_.collectives.empty() ||
        config_.payload_bytes.empty())
        fatal("CollCampaign: every sweep axis needs at least one value");
    if (config_.ranks < 2)
        fatal("CollCampaign: need at least 2 ranks, got ",
              config_.ranks);
    for (const auto &design : config_.designs)
        if (design.radix <= 0 || design.line_rate_gbps <= 0.0)
            fatal("CollCampaign: design '", design.name,
                  "' lacks a positive radix/line rate — was it "
                  "calibrated?");
    for (double payload : config_.payload_bytes)
        if (payload <= 0.0)
            fatal("CollCampaign: payloads must be positive");
    // Fail fast on rank counts an algorithm cannot schedule, before
    // the campaign spins up workers.
    for (const CollSpec &spec : config_.collectives)
        buildSchedule(spec, config_.ranks);
}

CollResult
CollCampaign::run(exec::ThreadPool *pool, obs::TraceEventSink *trace,
                  obs::Profiler *profiler) const
{
    const auto &cfg = config_;
    const auto grid = shape();
    return exec::runGrid<CollResult>(
        grid,
        [&](std::size_t index) {
            const auto [di, ci, pi] = exec::gridAxes(index, grid);
            std::ostringstream name;
            name << cfg.designs[di].name << "/"
                 << toString(cfg.collectives[ci].collective) << "/"
                 << toString(cfg.collectives[ci].algorithm)
                 << "/b=" << cfg.payload_bytes[pi];
            return name.str();
        },
        [this](std::size_t index) { return runCell(index); }, pool,
        trace, profiler);
}

std::array<std::size_t, 3>
CollCampaign::shape() const
{
    return {config_.designs.size(), config_.collectives.size(),
            config_.payload_bytes.size()};
}

CollCellResult
CollCampaign::runCell(std::size_t index,
                      const CollExecConfig &exec_cfg) const
{
    const auto &cfg = config_;
    const auto [di, ci, pi] = exec::gridAxes(index, shape());
    const flow::SwitchProfile &profile = cfg.designs[di];
    const double payload = cfg.payload_bytes[pi];

    const Schedule schedule =
        buildSchedule(cfg.collectives[ci], cfg.ranks);

    flow::DcnTopology topo = flow::DcnTopology::build(
        cfg.kind, cfg.ranks, static_cast<int>(profile.radix),
        profile.line_rate_gbps);

    CollCellResult cell;
    cell.design = profile.name;
    cell.collective = schedule.name();
    cell.ranks = cfg.ranks;
    cell.payload_bytes = payload;
    cell.topology = topo.name();
    cell.switches = topo.switchCount();
    cell.tiers = topo.tiers();
    cell.hops = topo.worstCaseHops();

    CollExecConfig run_cfg = exec_cfg;
    run_cfg.fault = cfg.fault;
    cell.flow = executeOnDcn(schedule, payload, topo, profile, run_cfg);
    cell.model = executeAlphaBeta(
        schedule, payload,
        alphaBetaOf(profile, topo.lineRateGbps(), cell.hops));
    return cell;
}

void
CollResult::writeCsv(std::ostream &os) const
{
    // Provenance only — deliberately no wall-clock and no thread
    // count, so the same config produces a byte-identical file at
    // any --jobs value.
    os << "# wss coll campaign\n";
    os << "# cells=" << cells.size() << "\n";

    Table table("coll",
                {"design", "collective", "ranks", "payload_bytes",
                 "topology", "switches", "tiers", "hops", "steps",
                 "messages", "bytes_on_wire", "failed", "flow_us",
                 "flow_algbw_gbps", "flow_busbw_gbps", "model_us",
                 "model_busbw_gbps", "flow_vs_model"});
    for (const auto &cell : cells) {
        const double ratio = cell.model.seconds > 0.0
                                 ? cell.flow.seconds / cell.model.seconds
                                 : 0.0;
        table.addRow(
            {cell.design, cell.collective, Table::num(cell.ranks),
             Table::num(cell.payload_bytes, 0),
             cell.topology, Table::num(cell.switches),
             Table::num(cell.tiers), Table::num(cell.hops),
             Table::num(cell.flow.steps),
             Table::num(cell.flow.messages),
             Table::num(cell.flow.bytes_on_wire, 0),
             Table::num(cell.flow.failed_messages),
             Table::num(cell.flow.seconds * 1e6, 4),
             Table::num(cell.flow.algbw_gbps, 3),
             Table::num(cell.flow.busbw_gbps, 3),
             Table::num(cell.model.seconds * 1e6, 4),
             Table::num(cell.model.busbw_gbps, 3),
             Table::num(ratio, 4)});
    }
    table.printCsv(os);
}

void
CollResult::writeJson(std::ostream &os) const
{
    util::JsonWriter json(os);
    json.beginObject(util::JsonWriter::kLines)
        .field("wall_seconds", wall_seconds).field("threads", threads)
        .key("cells").beginArray(util::JsonWriter::kLines);
    for (const auto &c : cells)
        json.beginObject()
            .field("design", c.design).field("collective", c.collective)
            .field("ranks", c.ranks).field("payload_bytes", c.payload_bytes)
            .field("topology", c.topology).field("switches", c.switches)
            .field("tiers", c.tiers).field("hops", c.hops)
            .field("steps", c.flow.steps).field("messages", c.flow.messages)
            .field("bytes_on_wire", c.flow.bytes_on_wire)
            .field("failed", c.flow.failed_messages)
            .field("flow_seconds", c.flow.seconds)
            .field("flow_algbw_gbps", c.flow.algbw_gbps)
            .field("flow_busbw_gbps", c.flow.busbw_gbps)
            .field("model_seconds", c.model.seconds)
            .field("model_busbw_gbps", c.model.busbw_gbps)
            .field("seconds", c.seconds).end();
    json.end().end();
}

} // namespace wss::coll

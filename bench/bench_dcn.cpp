/**
 * @file
 * DCN — the flow-level waferscale-vs-conventional datacenter-network
 * comparison (the paper's Table IX story, taken past closed form).
 *
 * One waferscale switch design (radix from core::RadixSolver) and a
 * conventional 64-port baseline are each calibrated into a
 * flow::SwitchProfile by sweeping the cycle-accurate fabric
 * simulator, then dropped into fat-trees covering the same host
 * count. The flow-level simulator reports what the closed-form
 * comparison cannot: FCT and slowdown tails under websearch/hadoop
 * traffic at multiple loads, next to the structural columns (switch
 * count, tiers, hops, power).
 *
 * Emits bench_results/BENCH_dcn.json (see --json) plus a provenance
 * manifest sibling, so successive changes can diff the comparison
 * with tools/bench_compare.py.
 *
 * Usage: bench_dcn [--smoke] [--json PATH]
 *   --smoke shrinks the calibration sweep and the flow counts for CI
 *   (WSS_BENCH_FAST=1 does the same).
 */

#include "bench_design_pair.hpp"
#include "flow/dcn_campaign.hpp"

namespace {

using namespace wss;

void
designLine(const flow::SwitchProfile &p)
{
    std::cout << "  " << p.name << ": radix " << p.radix << " x "
              << Table::num(p.line_rate_gbps, 0) << "G, "
              << Table::num(p.power_watts / 1000.0, 2)
              << " kW/switch, zero-load "
              << Table::num(p.zero_load_latency, 1)
              << " cycles, saturation "
              << Table::num(p.saturation, 3) << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wss;
    const bench::PairArgs args(argc, argv, "bench_dcn");

    bench::banner("DCN",
                  "flow-level waferscale vs conventional fat-tree: "
                  "FCT tails, hops, power");

    exec::ThreadPool pool(bench::benchJobs());
    const bench::DesignPair pair =
        bench::calibrateDesignPair("bench_dcn", args, &pool);
    std::cout << "calibrated designs:\n";
    designLine(pair.ws);
    designLine(pair.conv);
    std::cout << "\n";

    flow::DcnCampaignConfig cfg;
    cfg.designs = {pair.ws, pair.conv};
    cfg.kind = flow::DcnKind::FatTree;
    cfg.hosts = args.smoke ? 128 : 256;
    cfg.workloads = {flow::workloadByName("websearch"),
                     flow::workloadByName("hadoop")};
    cfg.loads = {0.3, 0.7};
    cfg.flows_per_cell = args.smoke ? 2000 : 100000;
    cfg.seed = args.seed;
    const flow::DcnResult result = flow::DcnCampaign(cfg).run(&pool);

    Table table("Fat-tree comparison (" + Table::num(cfg.hosts) +
                    " hosts, " + Table::num(cfg.flows_per_cell) +
                    " flows/cell)",
                {"design", "workload", "load", "switches", "tiers",
                 "hops", "power kW", "fct p50 us", "fct p99 us",
                 "slow p99"});
    for (const auto &cell : result.cells) {
        table.addRow({cell.design, cell.workload,
                      Table::num(cell.load, 2),
                      Table::num(cell.switches),
                      Table::num(cell.tiers),
                      Table::num(cell.worst_hops),
                      Table::num(cell.power_kw, 2),
                      Table::num(cell.sim.fct_p50_s * 1e6, 1),
                      Table::num(cell.sim.fct_p99_s * 1e6, 1),
                      Table::num(cell.sim.slowdown_p99, 2)});
    }
    table.print(std::cout);

    std::string workloads, loads;
    for (const auto &w : cfg.workloads)
        workloads += (workloads.empty() ? "" : ",") + w.name;
    for (double l : cfg.loads)
        loads += (loads.empty() ? "" : ",") + Table::num(l, 2);
    obs::RunManifest manifest("bench_dcn");
    manifest.setConfig("hosts", cfg.hosts);
    manifest.setConfig("flows_per_cell", cfg.flows_per_cell);
    manifest.setConfig("workloads", workloads);
    manifest.setConfig("loads", loads);
    bench::writePairArtifacts(
        "dcn", "DCN", args, pair, std::move(manifest), result.threads,
        result.wall_seconds, [&](util::JsonWriter &json) {
            json.key("campaign");
            result.writeJson(json);
        });

    std::cout << "\n[campaign] " << result.cells.size()
              << " cells on " << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n"
              << "\nOne waferscale switch replaces the whole "
                 "fat-tree: fewer switches and hops at the same "
                 "bisection, and the\nFCT tail difference under "
                 "load is what only the flow-level simulator can "
                 "report.\n";
    return 0;
}

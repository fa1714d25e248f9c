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

#include <cstring>
#include <sstream>

#include "bench_common.hpp"
#include "core/radix_solver.hpp"
#include "flow/dcn_campaign.hpp"
#include "obs/run_manifest.hpp"
#include "topology/clos.hpp"

namespace {

using namespace wss;

/// Round @p ports down to a positive multiple of ssc.radix / 2.
std::int64_t
alignPorts(std::int64_t ports, int ssc_radix)
{
    const std::int64_t half = ssc_radix / 2;
    return std::max<std::int64_t>(ports / half, 1) * half;
}

flow::SwitchProfile
calibrate(const std::string &name, std::int64_t radix,
          std::int64_t cal_ports, const power::SscConfig &ssc,
          double power_watts, bool smoke, exec::ThreadPool *pool)
{
    flow::CalibrationSpec spec;
    spec.name = name;
    spec.ports = alignPorts(cal_ports, ssc.radix);
    spec.ssc = ssc;
    spec.rates = sim::geometricRates(0.05, 0.95, smoke ? 3 : 5);
    spec.sim_cfg.warmup = smoke ? 200 : 1000;
    spec.sim_cfg.measure = smoke ? 500 : 4000;
    spec.sim_cfg.drain_limit = smoke ? 3000 : 20000;
    spec.sim_cfg.seed =
        static_cast<std::uint64_t>(bench::envInt("WSS_BENCH_SEED", 1));
    spec.power_watts = power_watts;
    flow::SwitchProfile profile =
        flow::calibrateSwitchProfile(spec, pool);
    profile.radix = radix;
    return profile;
}

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
    bool smoke = bench::fastMode();
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else
            fatal("bench_dcn: unknown argument '", argv[i],
                  "' (--smoke | --json PATH)");
    }

    bench::banner("DCN",
                  "flow-level waferscale vs conventional fat-tree: "
                  "FCT tails, hops, power");

    exec::ThreadPool pool(bench::benchJobs());

    // Waferscale design: solver-sized on the paper's 300 mm design
    // point; the conventional baseline is a 64 x 200G pizza box
    // built from the same chiplet family.
    core::DesignSpec spec = bench::paperSpec(
        300.0, tech::siIf2x(), tech::opticalIo());
    spec.mapping_restarts = bench::envInt("WSS_BENCH_RESTARTS", 2);
    const auto solved = core::RadixSolver(spec).solveMaxPorts();
    if (solved.best.ports == 0)
        fatal("bench_dcn: solver found no feasible design");
    const std::int64_t ws_ports =
        alignPorts(solved.best.ports, spec.ssc.radix);

    const power::SscConfig conv_ssc =
        power::scaledSsc(32, spec.ssc.line_rate);
    constexpr std::int64_t kConvPorts = 64;
    const double conv_power =
        static_cast<double>(
            topology::closChipletCount(kConvPorts, conv_ssc.radix)) *
            conv_ssc.core_power +
        power::externalIoPower(kConvPorts, conv_ssc.line_rate,
                               tech::serdes());

    const std::int64_t cal_cap = smoke ? 128 : 512;
    const flow::SwitchProfile ws = calibrate(
        "ws-" + std::to_string(ws_ports), ws_ports,
        std::min(ws_ports, cal_cap), spec.ssc,
        solved.best.power.total(), smoke, &pool);
    const flow::SwitchProfile conv = calibrate(
        "conv-64", kConvPorts, kConvPorts, conv_ssc, conv_power,
        smoke, &pool);
    std::cout << "calibrated designs:\n";
    designLine(ws);
    designLine(conv);
    std::cout << "\n";

    flow::DcnCampaignConfig cfg;
    cfg.designs = {ws, conv};
    cfg.kind = flow::DcnKind::FatTree;
    cfg.hosts = smoke ? 128 : 256;
    cfg.workloads = {flow::workloadByName("websearch"),
                     flow::workloadByName("hadoop")};
    cfg.loads = {0.3, 0.7};
    cfg.flows_per_cell = smoke ? 2000 : 100000;
    cfg.seed =
        static_cast<std::uint64_t>(bench::envInt("WSS_BENCH_SEED", 1));
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

    if (json_path) {
        std::ostringstream campaign;
        result.writeJson(campaign);
        std::ofstream os(json_path);
        if (!os)
            fatal("cannot open '", json_path, "' for writing");
        os << "{\n  \"bench\": \"dcn\",\n  \"smoke\": "
           << (smoke ? "true" : "false") << ",\n  \"ws_design\": \""
           << ws.name << "\",\n  \"conv_design\": \"" << conv.name
           << "\",\n  \"campaign\": " << campaign.str() << "}\n";
        if (!os.flush())
            fatal("short write to '", json_path, "'");
        inform("DCN JSON written to ", json_path);

        // Provenance sibling: bench_compare.py refuses to diff two
        // reports whose manifests disagree on configuration.
        std::string workloads, loads;
        for (const auto &w : cfg.workloads)
            workloads += (workloads.empty() ? "" : ",") + w.name;
        for (double l : cfg.loads)
            loads += (loads.empty() ? "" : ",") + Table::num(l, 2);
        obs::RunManifest manifest("bench_dcn");
        manifest.setConfig("smoke", smoke ? "true" : "false");
        manifest.setConfig("hosts", cfg.hosts);
        manifest.setConfig("flows_per_cell", cfg.flows_per_cell);
        manifest.setConfig("ws_design", ws.name);
        manifest.setConfig("conv_design", conv.name);
        manifest.setConfig("workloads", workloads);
        manifest.setConfig("loads", loads);
        manifest.setSeed(cfg.seed);
        manifest.setJobs(result.threads);
        manifest.addArtifact(json_path, "bench-json");
        manifest.addPhaseSeconds("campaign", result.wall_seconds);
        const std::string manifest_path =
            std::string(json_path) + ".manifest.json";
        manifest.writeJsonFile(manifest_path);
        inform("DCN manifest written to ", manifest_path);
    }

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

/**
 * @file
 * Resilience — defect-map Monte-Carlo over the paper's spare-socket
 * yield story (Section III.A/III.B, taken past assembly time).
 *
 * Where bench_ablation_yield reports the closed-form
 * tech::chipletSystemYield, this bench samples concrete defect maps
 * (bond failures, KGD test escapes, field failures), repairs them
 * with spare SSCs, and asks what the degraded switch still delivers:
 * survival probability, expected usable radix, surviving bisection,
 * and — for the first few maps of each cell — the packet-level
 * saturation throughput of the degraded fabric.
 */

#include "bench_common.hpp"
#include "fault/resilience.hpp"
#include "util/artifact.hpp"

int
main()
{
    using namespace wss;
    bench::banner("Resilience",
                  "defect-map Monte-Carlo: survival, usable radix, "
                  "degraded throughput");

    fault::ResilienceConfig cfg;
    cfg.ssc = power::scaledSsc(64, 200.0);
    cfg.radices = {256, 512, 1024};
    cfg.defect_densities = {0.1, 0.3};
    cfg.spare_counts = {0, 1, 2, 4};
    cfg.samples = bench::fastMode() ? 200 : 2000;
    cfg.sim_samples = bench::fastMode() ? 0 : 2;
    cfg.sim_cfg.warmup = 500;
    cfg.sim_cfg.measure = 2000;
    cfg.sim_cfg.drain_limit = 10000;
    cfg.seed =
        static_cast<std::uint64_t>(bench::envInt("WSS_BENCH_SEED", 1));

    exec::ThreadPool pool(bench::benchJobs());
    const fault::ResilienceResult result =
        fault::ResilienceCampaign(cfg).run(&pool);

    Table table("Survival and degraded capacity (" +
                    Table::num(cfg.samples) + " maps/cell)",
                {"topology", "density", "spares", "survival",
                 "analytic", "E[ports]", "bisection", "deg/healthy thr"});
    for (const auto &cell : result.cells) {
        table.addRow(
            {cell.topology, Table::num(cell.defect_density, 2),
             Table::num(cell.spares), Table::num(cell.survival, 4),
             Table::num(cell.analytic_bond_yield, 4),
             Table::num(cell.expected_usable_ports, 1),
             Table::num(cell.mean_bisection_fraction, 4),
             cell.sim_samples > 0
                 ? Table::num(cell.mean_degraded_throughput, 3) + "/" +
                       Table::num(cell.healthy_throughput, 3)
                 : "-"});
    }
    table.print(std::cout);

    if (const char *path = std::getenv("WSS_BENCH_CSV")) {
        util::writeArtifactFile(path, "resilience", [&](std::ostream &os) {
            result.writeCsv(os);
        });
        inform("resilience CSV written to ", path);
    }
    if (const char *path = std::getenv("WSS_BENCH_JSON")) {
        util::writeArtifactFile(path, "resilience", [&](std::ostream &os) {
            result.writeJson(os);
        });
        inform("resilience JSON written to ", path);
    }

    std::cout << "\n[campaign] " << result.cells.size() << " cells on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n"
              << "\nSpare sockets close the survival gap the "
                 "closed-form bond-yield model predicts, and the "
                 "degraded/healthy\nthroughput ratio tracks the "
                 "surviving bisection fraction under uniform "
                 "traffic.\n";
    return 0;
}

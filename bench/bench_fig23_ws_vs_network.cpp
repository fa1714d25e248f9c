/**
 * @file
 * Fig. 23 — a 2048-port 800G waferscale switch versus the equivalent
 * 2048-host network of discrete TH-5 switch boxes, across synthetic
 * traffic patterns.
 *
 * Both fabrics are the same logical 2-level Clos of radix-64 (800G)
 * sub-switches; only the physical latencies differ, exactly as in
 * the paper: waferscale SSC delay 11 cycles with 1-cycle inter-SSC
 * links, baseline switch-box delay 15 cycles with 8-cycle inter-box
 * links, 8-cycle host I/O on both, 16 VCs, 32-flit buffers.
 *
 * The ten (pattern x fabric) sweeps run as one exec::Campaign on a
 * plain shared-queue pool (WSS_JOBS threads), so every core chews on a
 * different curve; per-cell timing lands in WSS_BENCH_CSV /
 * WSS_BENCH_JSON when set. Results are bit-identical to the old
 * serial loop.
 */

#include "bench_common.hpp"
#include "exec/campaign.hpp"
#include "topology/clos.hpp"

int
main()
{
    using namespace wss;
    bench::banner("Figure 23",
                  "2048-port waferscale switch vs TH-5 switch network");

    const std::int64_t ports = bench::envInt("WSS_BENCH_PORTS", 2048);
    const auto topo = topology::buildFoldedClos(
        {ports, power::tomahawk5(3), 1}); // 64 x 800G configuration
    const bool fast = bench::fastMode();

    auto make_spec = [&](bool waferscale) {
        sim::NetworkSpec spec;
        spec.vcs = 16;
        spec.buffer_per_port = 32;
        spec.rc_delay_ingress = 2;
        spec.rc_delay_transit = 2;
        // Total switch traversal: 11 cycles on-wafer, 15 in a box.
        spec.pipeline_delay = waferscale ? 9 : 13;
        spec.terminal_link_latency = 8;
        spec.internal_link_latency = waferscale ? 1 : 8;
        return spec;
    };

    const std::vector<double> rates = {0.1, 0.3, 0.5, 0.7, 0.85};
    sim::SimConfig cfg;
    cfg.warmup = fast ? 300 : 1000;
    cfg.measure = fast ? 1000 : 2500;
    cfg.drain_limit = fast ? 3000 : 6000;
    cfg.seed = bench::envInt("WSS_BENCH_SEED", 1);

    const char *patterns[] = {"uniform", "bitcomp", "shuffle",
                              "tornado", "asymmetric"};

    exec::Campaign campaign;
    for (const char *pattern : patterns) {
        for (bool waferscale : {true, false}) {
            const auto spec = make_spec(waferscale);
            exec::SweepJob job;
            job.make_network = [&topo, spec](std::uint64_t seed) {
                return std::make_unique<sim::Network>(topo, spec, seed);
            };
            job.make_workload = [pattern,
                                 ports](double rate, std::uint64_t) {
                return std::make_unique<sim::SyntheticWorkload>(
                    sim::makeTraffic(pattern, static_cast<int>(ports)),
                    rate, 1);
            };
            job.rates = rates;
            job.cfg = cfg;
            campaign.addSweep(std::string(pattern) + "/" +
                                  (waferscale ? "waferscale" : "th5"),
                              std::move(job));
        }
    }

    exec::ThreadPool pool(bench::benchJobs());
    const auto result = campaign.run(&pool);

    Table table("Average packet latency (cycles of 20 ns) and "
                "saturation throughput",
                {"pattern", "fabric", "zero-load", "lat@0.5", "lat@0.7",
                 "saturation"});
    std::size_t job_index = 0;
    for (const char *pattern : patterns) {
        for (bool waferscale : {true, false}) {
            const auto &sweep =
                result.jobs[job_index++].sweep.combined;
            table.addRow({pattern,
                          waferscale ? "waferscale" : "TH-5 network",
                          Table::num(sweep.zero_load_latency, 1),
                          Table::num(sweep.points[2].avg_latency, 1),
                          Table::num(sweep.points[3].avg_latency, 1),
                          Table::num(sweep.saturation_throughput, 3)});
        }
    }
    table.print(std::cout);
    std::cout << "\nPaper: the waferscale switch's zero-load latency "
                 "is ~38% lower (37 vs 60 cycles) with equal or higher "
                 "saturation\nthroughput on every pattern except "
                 "asymmetric.\n";
    bench::reportCampaign(result);
    return 0;
}

/**
 * @file
 * Ablation — oblivious versus credit-adaptive ECMP spine selection.
 *
 * The paper's Booksim runs use oblivious random ECMP over the Clos
 * uplinks; a waferscale switch could cheaply implement adaptive
 * selection because congestion state is on-die. This ablation
 * quantifies what that design choice is worth on an adversarial
 * permutation and on uniform traffic.
 */

#include "bench_common.hpp"
#include "sim/load_sweep.hpp"
#include "topology/clos.hpp"

int
main()
{
    using namespace wss;
    bench::banner("Ablation", "oblivious vs adaptive ECMP routing");

    // Transpose needs a square terminal count: 256 = 16^2.
    const std::int64_t ports = bench::envInt("WSS_BENCH_PORTS", 256);
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});
    const bool fast = bench::fastMode();

    sim::SimConfig cfg;
    cfg.warmup = fast ? 300 : 1000;
    cfg.measure = fast ? 1000 : 2500;
    cfg.drain_limit = fast ? 3000 : 6000;
    cfg.seed = bench::envInt("WSS_BENCH_SEED", 1);

    Table table("Saturation throughput and latency at 0.6 load",
                {"pattern", "routing", "zero-load", "lat@0.6",
                 "saturation"});
    for (const char *pattern : {"uniform", "transpose", "tornado"}) {
        for (bool adaptive : {false, true}) {
            sim::NetworkSpec spec;
            spec.vcs = 16;
            spec.buffer_per_port = 32;
            spec.rc_delay_ingress = 2;
            spec.rc_delay_transit = 2;
            spec.pipeline_delay = 9;
            spec.terminal_link_latency = 8;
            spec.internal_link_latency = 1;
            spec.adaptive_routing = adaptive;
            const auto sweep = sim::sweepLoad(
                [&] {
                    return std::make_unique<sim::Network>(topo, spec,
                                                          cfg.seed);
                },
                [&](double rate) {
                    return std::make_unique<sim::SyntheticWorkload>(
                        sim::makeTraffic(pattern,
                                         static_cast<int>(ports)),
                        rate, 1);
                },
                {0.05, 0.3, 0.6, 0.8, 0.95}, cfg);
            table.addRow({pattern, adaptive ? "adaptive" : "oblivious",
                          Table::num(sweep.zero_load_latency, 1),
                          Table::num(sweep.points[2].avg_latency, 1),
                          Table::num(sweep.saturation_throughput, 3)});
        }
    }
    table.print(std::cout);
    std::cout << "\nAdaptive spine selection helps most when the "
                 "permutation concentrates load on a few uplinks; "
                 "uniform\ntraffic is already balanced, so the gain "
                 "there bounds the allocator noise.\n";
    return 0;
}

/**
 * @file
 * Fig. 21 — saturation throughput versus input-buffer size for
 * several link delays (cycle-accurate, 64 VCs, shared input buffer).
 *
 * One radix-64 router with terminals behind links of the given
 * delay; credit round-trip = 2 x delay + processing. Small shared
 * buffers cannot cover the credit RTT, capping throughput — the
 * mechanism behind the paper's low-latency-buffering claim: on-wafer
 * links (1-cycle) saturate with a fraction of the buffering that
 * 200 ns-class links need.
 *
 * All 24 (buffer x delay) cells run as one exec::Campaign on a
 * plain shared-queue pool (WSS_JOBS threads); per-cell timing lands in
 * WSS_BENCH_CSV / WSS_BENCH_JSON when set.
 */

#include "bench_common.hpp"
#include "core/buffer_sizing.hpp"
#include "exec/campaign.hpp"
#include "topology/logical_topology.hpp"

int
main()
{
    using namespace wss;
    bench::banner("Figure 21",
                  "saturation throughput vs buffer size and link delay");

    // A single radix-64 SSC: all 64 ports face terminals.
    topology::LogicalTopology topo("single-ssc", 200.0);
    const int type = topo.addSscType(power::scaledSsc(64, 200.0));
    topo.addNode(topology::NodeRole::Router, type, 64);

    const bool fast = bench::fastMode();
    const int link_delays[] = {1, 5, 10, 25}; // cycles (20 ns each)
    const int buffers[] = {4, 8, 16, 32, 64, 128};

    exec::Campaign campaign;
    for (int buffer : buffers) {
        for (int delay : link_delays) {
            sim::NetworkSpec spec;
            spec.vcs = 64;
            spec.buffer_per_port = buffer;
            spec.rc_delay_ingress = 1;
            spec.rc_delay_transit = 1;
            spec.pipeline_delay = 1;
            spec.terminal_link_latency = delay;

            exec::SweepJob job;
            job.make_network = [&topo, spec](std::uint64_t seed) {
                return std::make_unique<sim::Network>(topo, spec, seed);
            };
            job.make_workload = [](double rate, std::uint64_t) {
                return std::make_unique<sim::SyntheticWorkload>(
                    sim::uniformTraffic(64), rate, 1);
            };
            job.rates = {0.98};
            job.cfg.warmup = fast ? 300 : 1000;
            job.cfg.measure = fast ? 1000 : 4000;
            job.cfg.drain_limit = 2000;
            job.cfg.seed = bench::envInt("WSS_BENCH_SEED", 1);
            campaign.addSweep("buffer" + std::to_string(buffer) +
                                  "/delay" + std::to_string(delay),
                              std::move(job));
        }
    }

    exec::ThreadPool pool(bench::benchJobs());
    const auto result = campaign.run(&pool);

    Table table("Accepted throughput at offered 0.98 "
                "(flits/terminal/cycle)",
                {"buffer (flits/port)", "delay 1 (20ns)",
                 "delay 5 (100ns)", "delay 10 (200ns)",
                 "delay 25 (500ns)", "B=RTTxBW rule (200ns)"});
    std::size_t cell = 0;
    for (int buffer : buffers) {
        std::vector<std::string> row{Table::num(buffer)};
        for (std::size_t d = 0; d < std::size(link_delays); ++d) {
            const auto &sweep = result.jobs[cell++].sweep;
            row.push_back(
                Table::num(sweep.combined.points[0].accepted, 3));
        }
        // The B = RTT x BW rule for the 200 ns link (RTT = 2 x 10
        // cycles x 20 ns), one 200G flow per credit loop.
        row.push_back(Table::num(
            core::bufferSizeFlits(2 * 10 * 20.0, 200.0, 1, 4000)));
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nPaper: saturation throughput climbs with buffer "
                 "size and the knee moves right as link delay grows; "
                 "1-cycle\non-wafer links saturate with a small "
                 "fraction of the buffering a 200 ns link needs.\n";
    bench::reportCampaign(result);
    return 0;
}

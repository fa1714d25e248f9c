/**
 * @file
 * Fig. 25 — non-Clos topologies: maximum 200G ports (a) uncon-
 * strained (area only), (b) with bandwidth/power constraints, and
 * (c) with the optimizations (6400 Gbps/mm links + heterogeneous
 * design where applicable).
 *
 * The 15 (topology x variant) solver calls are independent, so they
 * run as generic tasks of one exec::Campaign on a plain
 * shared-queue pool (WSS_JOBS threads); each task writes its cell of a
 * preallocated result grid — no locks. Per-task timing lands in
 * WSS_BENCH_CSV / WSS_BENCH_JSON when set.
 */

#include "bench_common.hpp"
#include "core/radix_solver.hpp"
#include "exec/campaign.hpp"

int
main()
{
    using namespace wss;
    bench::banner("Figure 25",
                  "Clos vs Mesh / Butterfly / Flattened Butterfly / "
                  "Dragonfly at 300 mm");

    const core::TopologyKind kinds[] = {
        core::TopologyKind::Clos, core::TopologyKind::Butterfly,
        core::TopologyKind::Dragonfly,
        core::TopologyKind::FlattenedButterfly,
        core::TopologyKind::Mesh};
    constexpr int kVariants = 3; // (a) ideal, (b) constrained, (c) opt

    // One solver spec per (kind, variant) cell.
    auto make_spec = [](core::TopologyKind kind, int variant) {
        core::DesignSpec spec;
        switch (variant) {
        case 0: // (a) area only.
            spec = bench::paperSpec(300.0, tech::siIf(),
                                    tech::opticalIo());
            spec.area_only = true;
            break;
        case 1: // (b) all constraints at the 3200 Gbps/mm baseline,
                // water cooling envelope.
            spec = bench::paperSpec(300.0, tech::siIf(),
                                    tech::opticalIo());
            spec.cooling = tech::waterCooling();
            break;
        default: // (c) optimized: overclocked 6400 Gbps/mm links plus
                 // the heterogeneous leaves for the indirect
                 // topologies.
            spec = bench::paperSpec(300.0, tech::siIf2x(),
                                    tech::opticalIo());
            spec.cooling = tech::waterCooling();
            if (kind == core::TopologyKind::Clos)
                spec.leaf_split = 4;
            break;
        }
        spec.topology = kind;
        return spec;
    };

    std::vector<std::int64_t> port_grid(std::size(kinds) * kVariants);
    exec::Campaign campaign;
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
        for (int variant = 0; variant < kVariants; ++variant) {
            const auto spec = make_spec(kinds[k], variant);
            auto *slot = &port_grid[k * kVariants +
                                    static_cast<std::size_t>(variant)];
            campaign.addTask(
                std::string(core::toString(kinds[k])) + "/" +
                    static_cast<char>('a' + variant),
                [spec, slot] {
                    *slot = core::RadixSolver(spec)
                                .solveMaxPorts()
                                .best.ports;
                });
        }
    }

    exec::ThreadPool pool(bench::benchJobs());
    const auto result = campaign.run(&pool);

    Table table("Maximum 200G ports at 300 mm (Optical I/O)",
                {"topology", "(a) ideal", "(b) constrained 3200",
                 "(c) optimized 6400", "vs one TH-5 (c)"});
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
        const std::int64_t a = port_grid[k * kVariants];
        const std::int64_t b = port_grid[k * kVariants + 1];
        const std::int64_t c = port_grid[k * kVariants + 2];
        table.addRow(
            {std::string(core::toString(kinds[k])), Table::num(a),
             Table::num(b), Table::num(c),
             Table::num(static_cast<double>(c) / 256.0, 1) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nPaper: all topologies see order-of-magnitude ideal "
                 "gains (19x-44x); constraints cut them dramatically "
                 "and the\noptimizations reclaim much of it. Mesh and "
                 "butterfly end ~10% above Clos (easy 2D layout / "
                 "thin spine) but\nwith far worse bisection and "
                 "blocking; dragonfly and flattened butterfly land "
                 "1.7x-3.2x below Clos.\n";
    bench::reportCampaign(result);
    return 0;
}

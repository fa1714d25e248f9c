/**
 * @file
 * paper-solver: core::RadixSolver::solveMaxPorts over the paper's
 * design grid (Figs. 6-19, 25, 27, 28), the power:: breakdown of each
 * solved design, and one Fig. 5 Algorithm-1 mapping search. One cell
 * per design plus one for the mapping search. The grid is solved at
 * the paper benches' default seed, so its work and the Fig. 28 anchors
 * do not depend on --seed; --seed drives the Fig. 5 search.
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/radix_solver.hpp"
#include "harness.hpp"
#include "mapping/pairwise_exchange.hpp"
#include "power/switch_power.hpp"
#include "topology/clos.hpp"

namespace hostbench {

namespace {

using namespace wss;

constexpr std::int64_t kMappingPorts = 8192;
constexpr int kMappingRestarts = 8;
/// WSS_BENCH_SEED's default in the figure benches.
constexpr std::uint64_t kGridSeed = 1;

/// Fig. 28's heterogeneous 300 mm design: ports per cooling solution.
constexpr struct
{
    const char *label;
    std::int64_t ports;
} kFig28Expected[] = {
    {"fig28/air/300", 2048},
    {"fig28/water/300", 8192},
};

class PaperSolver : public Workload
{
  public:
    explicit PaperSolver(const Options &options) : options_(options) {}

    void setup(Trace *trace) override;

    LayerValues
    setupLayers(const Trace &) const override
    {
        return {};
    }

    /// Every design, then the mapping search.
    std::size_t cellCount() const override { return designs_.size() + 1; }

    std::string
    cellName(std::size_t cell) const override
    {
        return cell < designs_.size() ? designs_[cell].label
                                      : "fig05/mapping";
    }

    void runCell(std::size_t cell, Trace *trace) override;
    CellCheck checkCell(std::size_t cell) const override;
    LayerValues passLayers(const Trace &trace) const override;

    std::string workUnit() const override { return "designs"; }

  private:
    struct Design
    {
        std::string label;
        core::DesignSpec spec;
        core::SolveResult result;
        /// power:: re-evaluation of the solved design.
        double external_io = 0.0;
        double total = 0.0;
        double io_fraction = 0.0;
        double density = 0.0;
    };

    void add(std::string label, core::DesignSpec spec);

    Options options_;
    std::vector<Design> designs_;
    std::unique_ptr<topology::LogicalTopology> mapping_topo_;
    std::unique_ptr<mapping::WaferFloorplan> mapping_fp_;
    mapping::MappingSearchResult mapping_;
};

/// The radix benches' baseline spec (bench/bench_common.hpp).
core::DesignSpec
paperSpec(double side, const tech::WsiTechnology &wsi,
          const tech::ExternalIoTech &ext)
{
    core::DesignSpec spec;
    spec.substrate_side = side;
    spec.wsi = wsi;
    spec.external_io = ext;
    spec.ssc = power::tomahawk5(1);
    spec.cooling = tech::unlimitedCooling();
    spec.mapping_restarts = 2;
    spec.seed = kGridSeed;
    return spec;
}

void
PaperSolver::add(std::string label, core::DesignSpec spec)
{
    designs_.push_back({std::move(label), std::move(spec), {}});
}

void
PaperSolver::setup(Trace *trace)
{
    const double sides[] = {100.0, 200.0, 300.0};
    const auto side_tag = [](double side) {
        return std::to_string(static_cast<int>(side));
    };
    designs_.clear();

    // Figs. 7, 9-13: homogeneous Clos over substrate x WSI x I/O.
    for (double side : sides)
        for (const auto &wsi :
             {tech::siIf(), tech::siIf2x(), tech::infoSow()})
            for (const auto &ext :
                 {tech::serdes(), tech::opticalIo(), tech::areaIo()})
                add("clos/" + wsi.name + "/" + ext.name + "/" +
                        side_tag(side),
                    paperSpec(side, wsi, ext));
    // Fig. 6: the area-only ideal radix.
    for (double side : sides) {
        auto spec = paperSpec(side, tech::siIf(), tech::opticalIo());
        spec.area_only = true;
        add("fig06/ideal/" + side_tag(side), spec);
    }
    // Figs. 17-18: deradixed sub-switches.
    for (const auto &wsi : {tech::siIf(), tech::siIf2x()})
        for (double side : sides)
            for (int factor : {2, 4}) {
                auto spec = paperSpec(side, wsi, tech::opticalIo());
                spec.ssc = topology::deradixedSsc(power::tomahawk5(1),
                                                  factor);
                add("deradix" + std::to_string(factor) + "/" + wsi.name +
                        "/" + side_tag(side),
                    spec);
            }
    // Fig. 25: every topology at 300 mm, ideal / constrained /
    // optimized.
    for (auto kind :
         {core::TopologyKind::Clos, core::TopologyKind::Butterfly,
          core::TopologyKind::Dragonfly,
          core::TopologyKind::FlattenedButterfly,
          core::TopologyKind::Mesh}) {
        const std::string name(core::toString(kind));
        auto ideal =
            paperSpec(300.0, tech::siIf(), tech::opticalIo());
        ideal.area_only = true;
        auto constrained = paperSpec(300.0, tech::siIf(),
                                     tech::opticalIo());
        constrained.cooling = tech::waterCooling();
        auto optimized = paperSpec(300.0, tech::siIf2x(),
                                   tech::opticalIo());
        optimized.cooling = tech::waterCooling();
        if (kind == core::TopologyKind::Clos)
            optimized.leaf_split = 4;
        for (auto *spec : {&ideal, &constrained, &optimized})
            spec->topology = kind;
        add("fig25/" + name + "/ideal", ideal);
        add("fig25/" + name + "/constrained", constrained);
        add("fig25/" + name + "/optimized", optimized);
    }
    // Fig. 27: internal-bandwidth sensitivity (WSI layers).
    for (int layers : {1, 2, 4, 8, 12, 16, 24, 32})
        add("fig27/layers" + std::to_string(layers),
            paperSpec(300.0, tech::siIfWithLayers(layers),
                      tech::opticalIo()));
    // Figs. 16, 28: heterogeneous leaves under each cooling envelope.
    for (const auto &cooling : tech::allCoolingSolutions())
        for (double side : sides) {
            auto spec =
                paperSpec(side, tech::siIf2x(), tech::opticalIo());
            spec.leaf_split = 4;
            spec.cooling = cooling;
            add("fig28/" + cooling.name + "/" + side_tag(side), spec);
        }

    // Fig. 5: Algorithm 1 on the 8192-port Clos.
    const power::SscConfig ssc = power::tomahawk5(1);
    Span span(trace, "buildFoldedClos");
    mapping_topo_ = std::make_unique<topology::LogicalTopology>(
        topology::buildFoldedClos({kMappingPorts, ssc, 1}));
    const int rows = static_cast<int>(
        std::ceil(std::sqrt(mapping_topo_->nodeCount())));
    const int cols = (mapping_topo_->nodeCount() + rows - 1) / rows;
    mapping_fp_ = std::make_unique<mapping::WaferFloorplan>(
        rows, cols, true, ssc.edgeLength());
}

void
PaperSolver::runCell(std::size_t cell, Trace *trace)
{
    if (cell == designs_.size()) {
        Rng rng(options_.seed);
        Span span(trace, "searchBestMapping");
        mapping_ = mapping::searchBestMapping(*mapping_topo_, *mapping_fp_,
                                              true, rng, kMappingRestarts);
        return;
    }
    Design &d = designs_[cell];
    {
        Span span(trace, "RadixSolver::solveMaxPorts", d.label);
        d.result = core::RadixSolver(d.spec).solveMaxPorts();
    }
    const core::DesignEvaluation &best = d.result.best;
    // Area-only specs carry no power model; 0 ports is no design.
    if (d.spec.area_only || best.ports == 0)
        return;
    Span span(trace, "power", d.label);
    d.external_io = power::externalIoPower(
        best.ports, d.spec.ssc.line_rate, d.spec.external_io);
    d.total = best.power.total();
    d.io_fraction = best.power.ioFraction();
    d.density = best.power.powerDensity(d.spec.substrate_side);
}

CellCheck
PaperSolver::checkCell(std::size_t cell) const
{
    CellCheck check;
    Digest digest;
    if (cell == designs_.size()) {
        const mapping::MappingSearchResult &m = mapping_;
        check.failed = m.max_edge_load > 0.0 &&
                               m.max_edge_load <= m.initial_max_edge_load
                           ? 0
                           : 1;
        for (double v : {m.max_edge_load, m.initial_max_edge_load,
                         m.total_crossing_bandwidth, m.average_link_hops})
            digest.add(v);
        for (int site : m.assignment)
            digest.add(site);
        check.digest = digest.value();
        return check;
    }

    const Design &d = designs_[cell];
    const core::DesignEvaluation &best = d.result.best;
    check.work = 1.0;
    // The power:: re-evaluation must agree with the solver's own
    // breakdown, and the Fig. 28 anchors must hold.
    bool ok = d.external_io == best.power.external_io;
    for (const auto &anchor : kFig28Expected)
        if (d.label == anchor.label)
            ok = ok && best.ports == anchor.ports;
    if (!ok) {
        std::cout << "FAIL " << d.label << ": " << best.ports
                  << " ports, external I/O " << best.power.external_io
                  << " W vs power:: " << d.external_io << " W\n";
        check.failed = 1;
    }
    digest.add(best.ports);
    digest.add(best.ssc_chiplets);
    digest.add(best.io_chiplets);
    for (double v : {best.silicon_area, best.max_edge_load,
                     best.available_bw_per_port, best.average_link_hops,
                     best.power.ssc_core, best.power.internal_io,
                     d.external_io, d.total, d.io_fraction, d.density})
        digest.add(v);
    check.digest = digest.value();
    return check;
}

LayerValues
PaperSolver::passLayers(const Trace &trace) const
{
    const std::vector<double> solves =
        trace.spanDurations("RadixSolver::solveMaxPorts");
    return {
        {"core.solve_s", trace.spanSeconds("RadixSolver::solveMaxPorts")},
        {"core.solve_ms_p50", quantile(solves, 0.5) * 1e3},
        {"core.solve_ms_p90", quantile(solves, 0.9) * 1e3},
        {"core.designs", static_cast<double>(solves.size())},
        {"mapping.search_s", trace.spanSeconds("searchBestMapping")},
        {"mapping.cm_improvement",
         mapping_.initial_max_edge_load / mapping_.max_edge_load},
        {"power.eval_s", trace.spanSeconds("power")},
    };
}

} // namespace

std::unique_ptr<Workload>
makePaperSolver(const Options &options)
{
    return std::make_unique<PaperSolver>(options);
}

} // namespace hostbench

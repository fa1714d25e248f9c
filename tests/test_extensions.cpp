/**
 * @file
 * Tests for the extension features beyond the paper's core study:
 * manufacturing-yield models, the Table IX DCN spine count, and
 * credit-adaptive ECMP routing.
 */

#include <gtest/gtest.h>

#include "power/ssc.hpp"
#include "core/radix_solver.hpp"
#include "sim/load_sweep.hpp"
#include "tech/yield.hpp"
#include "topology/clos.hpp"

namespace wss {
namespace {

TEST(Yield, DieYieldShrinksWithArea)
{
    const tech::YieldModel model;
    double prev = 1.0;
    for (double area : {50.0, 200.0, 800.0, 3200.0}) {
        const double y = tech::dieYield(area, model);
        EXPECT_GT(y, 0.0);
        EXPECT_LT(y, prev);
        prev = y;
    }
    EXPECT_DOUBLE_EQ(tech::dieYield(0.0, model), 1.0);
}

TEST(Yield, StapperReducesToPoissonAtLargeAlpha)
{
    tech::YieldModel nearly_poisson;
    nearly_poisson.clustering_alpha = 1e6;
    const double stapper = tech::dieYield(800.0, nearly_poisson);
    const double poisson = std::exp(-0.1 * 800.0 / 100.0);
    EXPECT_NEAR(stapper, poisson, 1e-3);
}

TEST(Yield, MonolithicWaferIsHopelessWithoutRedundancy)
{
    EXPECT_LT(tech::monolithicWaferYield(300.0, 0.0), 0.001);
    // Full coverage makes yield 1 by definition.
    EXPECT_DOUBLE_EQ(tech::monolithicWaferYield(300.0, 1.0), 1.0);
    // Coverage is monotone.
    EXPECT_LT(tech::monolithicWaferYield(300.0, 0.5),
              tech::monolithicWaferYield(300.0, 0.9));
}

TEST(Yield, ChipletAssemblyBeatsMonolithic)
{
    const tech::YieldModel model;
    // The 96-socket flagship: far better than any monolithic option.
    const double chiplet = tech::chipletSystemYield(96, 2, model);
    EXPECT_GT(chiplet, 0.999);
    EXPECT_GT(chiplet, tech::monolithicWaferYield(300.0, 0.99, model));
}

TEST(Yield, SparesHelpMonotonically)
{
    const tech::YieldModel model;
    double prev = 0.0;
    for (int spares : {0, 1, 2, 4, 8}) {
        const double y = tech::chipletSystemYield(96, spares, model);
        EXPECT_GE(y, prev);
        EXPECT_LE(y, 1.0);
        prev = y;
    }
}

TEST(Yield, ZeroSpareMatchesClosedForm)
{
    tech::YieldModel model;
    model.bond_yield = 0.999;
    EXPECT_NEAR(tech::chipletSystemYield(96, 0, model),
                std::pow(0.999, 96), 1e-12);
}

TEST(Yield, SparesBeyondSocketsSaturate)
{
    tech::YieldModel model;
    model.bond_yield = 0.99;
    // spares >= chiplets is a legal (if extravagant) assembly: the
    // binomial tail stays monotone and clamped to 1.
    const double equal = tech::chipletSystemYield(8, 8, model);
    const double more = tech::chipletSystemYield(8, 16, model);
    EXPECT_GT(equal, 0.999999);
    EXPECT_GE(more, equal);
    EXPECT_LE(more, 1.0);
}

TEST(Yield, PerfectBondsAlwaysYieldOne)
{
    tech::YieldModel model;
    model.bond_yield = 1.0;
    for (int spares : {0, 3, 96})
        EXPECT_DOUBLE_EQ(tech::chipletSystemYield(96, spares, model),
                         1.0);
}

TEST(Yield, DieYieldDecreasesTowardPoissonLimit)
{
    // (1 + DA/alpha)^(-alpha) falls monotonically in alpha and
    // converges to the Poisson yield e^(-DA) from above: clustering
    // concentrates defects on fewer dies, which helps yield.
    tech::YieldModel model;
    const double poisson = std::exp(-0.1 * 800.0 / 100.0);
    double prev = 1.0;
    double y = 0.0;
    for (double alpha : {1.0, 2.0, 8.0, 64.0, 1e4, 1e8}) {
        model.clustering_alpha = alpha;
        y = tech::dieYield(800.0, model);
        EXPECT_LT(y, prev);
        EXPECT_GT(y, poisson);
        prev = y;
    }
    EXPECT_NEAR(y, poisson, 1e-6);
}

TEST(Yield, KgdCostFactorIsInverseYield)
{
    const tech::YieldModel model;
    EXPECT_NEAR(tech::kgdCostFactor(800.0, model) *
                    tech::dieYield(800.0, model),
                1.0, 1e-12);
}

TEST(TableIX, DcnSpineCount)
{
    // The paper's DCN spine: 48 waferscale 2048 x 800G switches
    // switching 16384 racks x 2 links. Modeling each waferscale
    // switch as one "SSC" of radix 2048 reproduces the 2-level
    // arithmetic: 3 * 32768 / 2048 = 48.
    EXPECT_EQ(topology::closChipletCount(32768, 2048), 48);
}

TEST(AdaptiveRouting, BeatsObliviousOnPermutationTraffic)
{
    const auto topo = topology::buildFoldedClos(
        {64, power::scaledSsc(16, 200.0), 1});
    sim::SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 2500;
    cfg.drain_limit = 6000;
    cfg.seed = 5;

    auto saturation = [&](bool adaptive) {
        sim::NetworkSpec spec;
        spec.vcs = 4;
        spec.buffer_per_port = 16;
        spec.pipeline_delay = 2;
        spec.terminal_link_latency = 2;
        spec.adaptive_routing = adaptive;
        const auto sweep = sim::sweepLoad(
            [&] {
                return std::make_unique<sim::Network>(topo, spec, 11);
            },
            [&](double rate) {
                return std::make_unique<sim::SyntheticWorkload>(
                    sim::transposeTraffic(64), rate, 1);
            },
            {0.3, 0.6, 0.9}, cfg);
        return sweep.saturation_throughput;
    };
    const double oblivious = saturation(false);
    const double adaptive = saturation(true);
    EXPECT_GE(adaptive, oblivious * 0.98); // never meaningfully worse
}

TEST(AdaptiveRouting, MatchesObliviousAtZeroLoad)
{
    const auto topo = topology::buildFoldedClos(
        {64, power::scaledSsc(16, 200.0), 1});
    sim::SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 1000;
    cfg.seed = 7;
    auto zero_load = [&](bool adaptive) {
        sim::NetworkSpec spec;
        spec.vcs = 4;
        spec.buffer_per_port = 16;
        spec.pipeline_delay = 2;
        spec.terminal_link_latency = 2;
        spec.adaptive_routing = adaptive;
        sim::Network net(topo, spec, 13);
        sim::SyntheticWorkload workload(sim::uniformTraffic(64), 0.02,
                                        1);
        sim::Simulator sim(net, workload, cfg);
        return sim.run().avg_packet_latency;
    };
    EXPECT_NEAR(zero_load(false), zero_load(true), 1.0);
}


TEST(RoundSubstrate, ShrinksAreaBoundDesigns)
{
    core::DesignSpec spec;
    spec.substrate_side = 300.0;
    spec.wsi = tech::siIf2x();
    spec.external_io = tech::opticalIo();
    spec.ssc = power::tomahawk5(1);
    spec.cooling = tech::unlimitedCooling();
    spec.mapping_restarts = 2;
    spec.area_only = true;
    const auto square = core::RadixSolver(spec).solveMaxPorts();
    spec.round_substrate = true;
    const auto round = core::RadixSolver(spec).solveMaxPorts();
    // pi/4 of the area: 8192 -> one ladder step down.
    EXPECT_LT(round.best.ports, square.best.ports);
    EXPECT_GE(round.best.ports, square.best.ports / 2);
}

TEST(RoundSubstrate, ExternalCapacityScalesByPiOverFour)
{
    const auto ext = tech::opticalIo();
    EXPECT_NEAR(ext.capacityPerDirectionRound(300.0) /
                    ext.capacityPerDirection(300.0),
                3.14159265 / 4.0, 1e-6);
    const auto area = tech::areaIo();
    EXPECT_NEAR(area.capacityPerDirectionRound(300.0) /
                    area.capacityPerDirection(300.0),
                3.14159265 / 4.0, 1e-6);
}

TEST(DegradedFabric, LosingOneUplinkStillDeliversEverything)
{
    // Resilience: remove one uplink from one leaf bundle (a failed
    // inter-chiplet lane); ECMP path diversity keeps the fabric
    // functional, every packet still arrives.
    auto topo = topology::buildFoldedClos(
        {64, power::scaledSsc(16, 200.0), 1});
    topology::LogicalTopology degraded("degraded", topo.lineRate());
    for (const auto &ssc : topo.sscTypes())
        degraded.addSscType(ssc);
    for (const auto &node : topo.nodes())
        degraded.addNode(node.role, node.ssc_type, node.external_ports);
    bool dropped = false;
    for (const auto &link : topo.links()) {
        int mult = link.multiplicity;
        if (!dropped && mult > 1) {
            --mult;
            dropped = true;
        }
        degraded.addLink(link.a, link.b, mult);
    }
    ASSERT_TRUE(dropped);
    EXPECT_EQ(degraded.validate(), "");

    sim::NetworkSpec spec;
    spec.vcs = 4;
    spec.buffer_per_port = 16;
    sim::Network net(degraded, spec, 3);
    sim::SyntheticWorkload workload(sim::uniformTraffic(64), 0.3, 1);
    sim::SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 2000;
    cfg.drain_limit = 30000;
    sim::Simulator sim(net, workload, cfg);
    const auto result = sim.run();
    EXPECT_TRUE(result.stable);
    EXPECT_EQ(result.packets_finished, result.packets_measured);
}

TEST(DegradedFabric, SaturationDegradesGracefully)
{
    // Halving one leaf's uplink bundle costs capacity on paths
    // through that leaf but must not collapse the fabric.
    const auto intact = topology::buildFoldedClos(
        {64, power::scaledSsc(16, 200.0), 1});
    topology::LogicalTopology degraded("degraded", intact.lineRate());
    for (const auto &ssc : intact.sscTypes())
        degraded.addSscType(ssc);
    for (const auto &node : intact.nodes())
        degraded.addNode(node.role, node.ssc_type, node.external_ports);
    bool first = true;
    for (const auto &link : intact.links()) {
        degraded.addLink(link.a, link.b,
                         first ? std::max(1, link.multiplicity / 2)
                               : link.multiplicity);
        first = false;
    }

    auto saturation = [](const topology::LogicalTopology &topo) {
        sim::NetworkSpec spec;
        spec.vcs = 4;
        spec.buffer_per_port = 16;
        sim::SimConfig cfg;
        cfg.warmup = 300;
        cfg.measure = 1500;
        cfg.drain_limit = 4000;
        const auto sweep = sim::sweepLoad(
            [&] { return std::make_unique<sim::Network>(topo, spec, 7); },
            [&](double rate) {
                return std::make_unique<sim::SyntheticWorkload>(
                    sim::uniformTraffic(64), rate, 1);
            },
            {0.5, 0.9}, cfg);
        return sweep.saturation_throughput;
    };
    const double full = saturation(intact);
    const double cut = saturation(degraded);
    EXPECT_LE(cut, full + 0.02);
    EXPECT_GT(cut, full * 0.5); // graceful, not catastrophic
}

} // namespace
} // namespace wss

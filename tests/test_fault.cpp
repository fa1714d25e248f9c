/**
 * @file
 * Tests for the fault subsystem: defect-map sampling, spare-socket
 * repair, topology degradation, and the resilience campaign's
 * determinism contract.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exec/thread_pool.hpp"
#include "fault/defect.hpp"
#include "fault/degrade.hpp"
#include "fault/resilience.hpp"
#include "power/ssc.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "topology/clos.hpp"

namespace wss::fault {
namespace {

/// 4 leaves (nodes 0-3, 4 external ports each) + 2 spines (nodes
/// 4-5) of radix-8 SSCs; every leaf has a multiplicity-2 bundle to
/// each spine.
topology::LogicalTopology
tinyClos(std::int64_t ports = 16)
{
    return topology::buildFoldedClos(
        {ports, power::scaledSsc(8, 200.0), 1});
}

/// An all-healthy map for @p topo.
DefectMap
cleanMap(const topology::LogicalTopology &topo)
{
    DefectMap map;
    map.node_failed.assign(
        static_cast<std::size_t>(topo.nodeCount()), 0);
    map.link_failed_units.assign(topo.links().size(), 0);
    return map;
}

/// First link-bundle index incident to node @p node.
int
linkTouching(const topology::LogicalTopology &topo, int node)
{
    const auto &links = topo.links();
    for (std::size_t li = 0; li < links.size(); ++li)
        if (links[li].a == node || links[li].b == node)
            return static_cast<int>(li);
    return -1;
}

TEST(FaultModel, ComposesIndependentFailureModes)
{
    FaultModel m;
    m.yield.bond_yield = 0.9;
    m.die_area = 800.0;
    m.test_escape = 0.5;
    m.node_field_failure = 0.1;
    m.link_field_failure = 0.2;
    const double die = tech::dieYield(m.die_area, m.yield);
    const double node_ok = 0.9 * (1.0 - 0.5 * (1.0 - die)) * 0.9;
    EXPECT_NEAR(m.nodeFailureProbability(), 1.0 - node_ok, 1e-12);
    EXPECT_NEAR(m.linkFailureProbability(), 1.0 - 0.9 * 0.8, 1e-12);
}

TEST(FaultModel, PerfectAssemblyNeverFails)
{
    FaultModel m;
    m.yield.bond_yield = 1.0;
    EXPECT_DOUBLE_EQ(m.nodeFailureProbability(), 0.0);
    EXPECT_DOUBLE_EQ(m.linkFailureProbability(), 0.0);

    const auto topo = tinyClos();
    const DefectSampler sampler(topo, m, 9);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_FALSE(sampler.sample(i).anyFailure());
}

TEST(DefectSampler, SameSeedAndIndexReproduceTheMap)
{
    const auto topo = tinyClos();
    FaultModel m;
    m.yield.bond_yield = 0.9; // busy maps
    m.link_field_failure = 0.1;
    const DefectSampler a(topo, m, 42);
    const DefectSampler b(topo, m, 42);

    // b samples in reverse order: index determinism must not depend
    // on call history.
    std::vector<DefectMap> from_b;
    for (int i = 3; i >= 0; --i)
        from_b.push_back(b.sample(static_cast<std::uint64_t>(i)));
    for (int i = 0; i < 4; ++i) {
        const DefectMap ma = a.sample(static_cast<std::uint64_t>(i));
        const DefectMap &mb = from_b[static_cast<std::size_t>(3 - i)];
        EXPECT_EQ(ma.node_failed, mb.node_failed) << "index " << i;
        EXPECT_EQ(ma.link_failed_units, mb.link_failed_units)
            << "index " << i;
    }

    // Different indices draw different maps (at these failure rates
    // a collision over 12 nodes + 8 bundles is essentially
    // impossible).
    bool any_difference = false;
    const DefectMap first = a.sample(0);
    for (std::uint64_t i = 1; i < 8 && !any_difference; ++i) {
        const DefectMap other = a.sample(i);
        any_difference = other.node_failed != first.node_failed ||
                         other.link_failed_units !=
                             first.link_failed_units;
    }
    EXPECT_TRUE(any_difference);
}

TEST(DefectSampler, ObservedRatesMatchTheModel)
{
    const auto topo = tinyClos();
    FaultModel m;
    m.yield.bond_yield = 0.9;
    const DefectSampler sampler(topo, m, 7);
    const int samples = 4000;
    std::int64_t node_failures = 0;
    for (int i = 0; i < samples; ++i)
        node_failures += sampler.sample(
            static_cast<std::uint64_t>(i)).failedNodeCount();
    const double observed =
        static_cast<double>(node_failures) /
        (static_cast<double>(samples) * topo.nodeCount());
    EXPECT_NEAR(observed, m.nodeFailureProbability(), 0.01);
}

TEST(ApplySpares, RepairsLowestIdsWithFreshBonds)
{
    const auto topo = tinyClos();
    DefectMap map = cleanMap(topo);
    map.node_failed[1] = 1;
    map.node_failed[4] = 1;
    const int near_node1 = linkTouching(topo, 1);
    ASSERT_GE(near_node1, 0);
    map.link_failed_units[static_cast<std::size_t>(near_node1)] = 2;
    // A bundle not touching node 1: its dead unit must survive the
    // repair.
    int elsewhere = -1;
    for (std::size_t li = 0; li < topo.links().size(); ++li) {
        const auto &link = topo.links()[li];
        if (link.a != 1 && link.b != 1 && link.a != 4 && link.b != 4) {
            elsewhere = static_cast<int>(li);
            break;
        }
    }
    ASSERT_GE(elsewhere, 0);
    map.link_failed_units[static_cast<std::size_t>(elsewhere)] = 1;

    // One spare repairs the lowest-id failure only.
    EXPECT_EQ(applySpares(map, topo, 1), 1);
    EXPECT_EQ(map.node_failed[1], 0);
    EXPECT_EQ(map.node_failed[4], 1);
    EXPECT_EQ(
        map.link_failed_units[static_cast<std::size_t>(near_node1)],
        0);
    EXPECT_EQ(
        map.link_failed_units[static_cast<std::size_t>(elsewhere)], 1);

    // Plenty of spares repair the rest; only one node was left.
    EXPECT_EQ(applySpares(map, topo, 8), 1);
    EXPECT_EQ(map.failedNodeCount(), 0);
    EXPECT_EQ(applySpares(map, topo, 8), 0);
}

TEST(Degrade, HealthyMapIsFullyConnected)
{
    const auto topo = tinyClos();
    const DegradeResult deg = degradeTopology(topo, cleanMap(topo));
    EXPECT_EQ(deg.classification, Connectivity::FullyConnected);
    EXPECT_EQ(deg.usable_ports, 16);
    EXPECT_DOUBLE_EQ(deg.bisection_fraction, 1.0);
    ASSERT_TRUE(deg.topo.has_value());
    EXPECT_EQ(deg.topo->nodeCount(), topo.nodeCount());
}

TEST(Degrade, DeadSpineKeepsAllPortsAtHalfBisection)
{
    const auto topo = tinyClos();
    DefectMap map = cleanMap(topo);
    map.node_failed[5] = 1; // second spine
    const DegradeResult deg = degradeTopology(topo, map);
    EXPECT_EQ(deg.classification, Connectivity::FullyConnected);
    EXPECT_EQ(deg.usable_ports, 16);
    EXPECT_DOUBLE_EQ(deg.bisection_fraction, 0.5);
    ASSERT_TRUE(deg.topo.has_value());
    EXPECT_EQ(deg.topo->nodeCount(), 5);
    EXPECT_EQ(deg.node_map[5], -1);
    EXPECT_EQ(deg.topo->validate(), "");
}

TEST(Degrade, DeadLeafLosesItsPorts)
{
    const auto topo = tinyClos();
    DefectMap map = cleanMap(topo);
    map.node_failed[0] = 1; // a leaf: 4 external ports gone
    const DegradeResult deg = degradeTopology(topo, map);
    EXPECT_EQ(deg.classification, Connectivity::Degraded);
    EXPECT_EQ(deg.usable_ports, 12);
    ASSERT_TRUE(deg.topo.has_value());
    EXPECT_EQ(deg.topo->totalExternalPorts(), 12);
}

TEST(Degrade, DeadOnlySpinePartitionsTheLeaves)
{
    // 8 ports with radix-8 SSCs: 2 leaves sharing a single spine.
    const auto topo = tinyClos(8);
    DefectMap map = cleanMap(topo);
    map.node_failed[2] = 1; // the only spine
    const DegradeResult deg = degradeTopology(topo, map);
    EXPECT_EQ(deg.classification, Connectivity::Partitioned);
    // Two 4-port islands; the kept one is the lowest-id leaf.
    EXPECT_EQ(deg.usable_ports, 4);
}

/// The acceptance scenario: a Clos losing one middle-stage SSC stays
/// fully connected, reroutes over the surviving spine's ECMP paths,
/// and saturates at roughly the surviving bisection.
TEST(Resilience, GracefulDegradationEndToEnd)
{
    const auto topo = tinyClos();
    DefectMap map = cleanMap(topo);
    map.node_failed[5] = 1; // one of the two spines
    const DegradeResult deg = degradeTopology(topo, map);
    ASSERT_EQ(deg.classification, Connectivity::FullyConnected);
    ASSERT_DOUBLE_EQ(deg.bisection_fraction, 0.5);
    ASSERT_TRUE(deg.topo.has_value());

    auto runAt = [](const topology::LogicalTopology &t, double rate) {
        sim::NetworkSpec spec;
        spec.vcs = 4;
        spec.buffer_per_port = 16;
        sim::Network net(t, spec, 11);
        sim::SyntheticWorkload workload(
            sim::uniformTraffic(net.terminalCount()), rate, 2);
        sim::SimConfig cfg;
        cfg.warmup = 500;
        cfg.measure = 2000;
        cfg.drain_limit = 20000;
        cfg.seed = 11;
        return sim::Simulator(net, workload, cfg).run();
    };

    // Light load is rerouted without loss.
    const sim::SimResult light = runAt(*deg.topo, 0.25);
    EXPECT_TRUE(light.stable);
    EXPECT_NEAR(light.accepted, 0.25, 0.05);

    // At saturation the throughput drop tracks the lost bisection:
    // uplink capacity halved, and only the ~80% of uniform traffic
    // that crosses leaves is bisection-limited, so the degraded
    // fabric sustains roughly 0.5-0.7 of the healthy throughput.
    const sim::SimResult healthy = runAt(topo, 0.95);
    const sim::SimResult degraded = runAt(*deg.topo, 0.95);
    EXPECT_GT(healthy.accepted, degraded.accepted + 0.05);
    const double ratio = degraded.accepted / healthy.accepted;
    EXPECT_GT(ratio, deg.bisection_fraction - 0.1);
    EXPECT_LT(ratio, deg.bisection_fraction + 0.3);
}

ResilienceConfig
smallCampaign()
{
    ResilienceConfig cfg;
    cfg.ssc = power::scaledSsc(8, 200.0);
    cfg.radices = {16};
    cfg.defect_densities = {0.3};
    cfg.spare_counts = {0, 1};
    cfg.model.yield.bond_yield = 0.98; // busy maps at tiny scale
    cfg.samples = 40;
    cfg.sim_samples = 1;
    cfg.sim_cfg.warmup = 200;
    cfg.sim_cfg.measure = 500;
    cfg.sim_cfg.drain_limit = 4000;
    cfg.seed = 13;
    return cfg;
}

TEST(Resilience, CampaignCsvIsBitIdenticalAcrossPoolSizes)
{
    const ResilienceCampaign campaign(smallCampaign());
    const auto csv = [&](exec::ThreadPool *pool) {
        std::ostringstream os;
        campaign.run(pool).writeCsv(os);
        return os.str();
    };
    const std::string serial = csv(nullptr);
    exec::ThreadPool one(1);
    exec::ThreadPool four(4);
    EXPECT_EQ(serial, csv(&one));
    EXPECT_EQ(serial, csv(&four));
    // And the artifact quotes the comma-bearing topology label.
    EXPECT_NE(serial.find("\"clos(16,8)\""), std::string::npos);
}

TEST(Resilience, SparesImproveSurvivalOnSharedMaps)
{
    ResilienceConfig cfg = smallCampaign();
    cfg.spare_counts = {0, 1, 2, 4};
    cfg.samples = 150;
    cfg.sim_samples = 0;
    const ResilienceResult result =
        ResilienceCampaign(cfg).run(nullptr);
    ASSERT_EQ(result.cells.size(), 4u);
    for (std::size_t i = 1; i < result.cells.size(); ++i) {
        // The spare axis repairs the *same* sampled maps, so both
        // survival and usable radix are monotone sample-by-sample,
        // not merely in expectation.
        EXPECT_GE(result.cells[i].survival,
                  result.cells[i - 1].survival);
        EXPECT_GE(result.cells[i].expected_usable_ports,
                  result.cells[i - 1].expected_usable_ports);
    }
    for (const auto &cell : result.cells) {
        EXPECT_GE(cell.survival, 0.0);
        EXPECT_LE(cell.survival, 1.0);
        EXPECT_NEAR(cell.survival + cell.p_degraded +
                        cell.p_partitioned,
                    1.0, 1e-12);
        EXPECT_GT(cell.analytic_bond_yield, 0.0);
    }
}

} // namespace
} // namespace wss::fault

/**
 * @file
 * Unit tests for topology metrics: chiplet-count laws (Table VI),
 * bisection bandwidth, hop counts.
 */

#include <gtest/gtest.h>

#include "power/ssc.hpp"
#include "topology/clos.hpp"
#include "topology/dragonfly.hpp"
#include "topology/mesh.hpp"
#include "topology/properties.hpp"

namespace wss::topology {
namespace {

TEST(TableVI, ChipletCountLaws)
{
    // Table VI: Clos 3(N/k), HC/MC (N/k)^2.
    EXPECT_EQ(closChipletCount(2048, 256), 24);
    EXPECT_EQ(hierarchicalCrossbarChiplets(2048, 256), 64);
    EXPECT_EQ(modularCrossbarChiplets(2048, 256), 64);
    EXPECT_EQ(closChipletCount(8192, 256), 96);
    EXPECT_EQ(hierarchicalCrossbarChiplets(8192, 256), 1024);
    EXPECT_EQ(modularCrossbarChiplets(8192, 256), 1024);
}

TEST(TableVI, CrossbarsScaleQuadratically)
{
    const auto at = [](std::int64_t n) {
        return hierarchicalCrossbarChiplets(n, 256);
    };
    EXPECT_EQ(at(4096) * 4, at(8192));
}

TEST(Bisection, FoldedClosIsHalfAggregate)
{
    const LogicalTopology topo =
        buildFoldedClos({1024, power::tomahawk5(1), 1});
    Rng rng(3);
    const Gbps bisection = estimateBisectionBandwidth(topo, rng, 12);
    // Ideal folded-Clos bisection: N/2 x 200G = 102400 Gbps. The
    // heuristic is an upper-bound estimate; accept 1x-1.3x.
    EXPECT_GE(bisection, 102400.0 * 0.99);
    EXPECT_LE(bisection, 102400.0 * 1.35);
}

TEST(Bisection, MeshIsMuchLowerThanClos)
{
    const power::SscConfig ssc = power::tomahawk5(1);
    const LogicalTopology clos = buildFoldedClos({1024, ssc, 1});
    const LogicalTopology mesh = buildMesh(3, 3, ssc); // 1152 ports
    Rng rng(5);
    const Gbps clos_bisection =
        estimateBisectionBandwidth(clos, rng, 8);
    const Gbps mesh_bisection =
        estimateBisectionBandwidth(mesh, rng, 8);
    // A port-balanced cut of a 3x3 mesh (4/5 nodes) crosses at most
    // 4 bundles of 32 links.
    EXPECT_LE(mesh_bisection, 4 * 32 * 200.0 + 1.0);
    EXPECT_LE(mesh_bisection, clos_bisection / 4.0);
}

TEST(Bisection, DegenerateCases)
{
    const power::SscConfig ssc = power::tomahawk5(1);
    const LogicalTopology single = buildMesh(1, 1, ssc);
    Rng rng(1);
    EXPECT_DOUBLE_EQ(estimateBisectionBandwidth(single, rng), 0.0);
}

TEST(HopCount, FoldedClosWorstCaseIsThreeChiplets)
{
    const LogicalTopology topo =
        buildFoldedClos({1024, power::tomahawk5(1), 1});
    EXPECT_EQ(worstCaseHopCount(topo), 3); // leaf - spine - leaf
    const double avg = averageHopCount(topo);
    EXPECT_GT(avg, 2.5); // most pairs cross the spine
    EXPECT_LT(avg, 3.0);
}

TEST(HopCount, SingleChipletFabric)
{
    const LogicalTopology topo =
        buildFoldedClos({128, power::tomahawk5(1), 1});
    // One leaf, one spine; all ports are on the single leaf.
    EXPECT_EQ(worstCaseHopCount(topo), 1);
    EXPECT_DOUBLE_EQ(averageHopCount(topo), 1.0);
}

TEST(HopCount, DisaggregationAddsAboutOnePercent)
{
    // Section V.B: leaf disaggregation increases average hop latency
    // by roughly 1% (same-leaf pairs become rarer).
    const power::SscConfig ssc = power::tomahawk5(1);
    const double homo = averageHopCount(buildFoldedClos({2048, ssc, 1}));
    const double hetero =
        averageHopCount(buildFoldedClos({2048, ssc, 2}));
    EXPECT_GT(hetero, homo);
    EXPECT_LT((hetero - homo) / homo, 0.03);
}

TEST(HopCount, MeshGrowsWithDiameter)
{
    const power::SscConfig ssc = power::tomahawk5(1);
    EXPECT_EQ(worstCaseHopCount(buildMesh(2, 2, ssc)), 3);
    EXPECT_EQ(worstCaseHopCount(buildMesh(4, 4, ssc)), 7);
    EXPECT_LT(averageHopCount(buildMesh(2, 2, ssc)),
              averageHopCount(buildMesh(4, 4, ssc)));
}

TEST(Dragonfly, MinimumGroupCountIsConnected)
{
    // Two groups is the smallest legal dragonfly; every property
    // helper must still work on it.
    const power::SscConfig ssc = power::tomahawk5(1);
    const LogicalTopology topo = buildDragonfly(2, ssc);
    EXPECT_EQ(topo.nodeCount(), 2 * kDragonflyGroupSize);
    const int worst = worstCaseHopCount(topo);
    EXPECT_GE(worst, 1);
    // Local clique + at most one global crossing + local clique.
    EXPECT_LE(worst, 3);
    Rng rng(11);
    EXPECT_GT(estimateBisectionBandwidth(topo, rng, 8), 0.0);
    EXPECT_EQ(dragonflyPortCount(2, ssc.radix),
              2 * kDragonflyGroupSize *
                  static_cast<std::int64_t>(ssc.radix / 4));
}

TEST(Dragonfly, SingleGroupDiesLoudly)
{
    // A one-group "dragonfly" is degenerate (no global links to
    // size); the builder must refuse rather than emit a clique.
    const power::SscConfig ssc = power::tomahawk5(1);
    EXPECT_DEATH(buildDragonfly(1, ssc), "at least 2 groups");
    EXPECT_DEATH(buildDragonfly(0, ssc), "at least 2 groups");
    EXPECT_DEATH(buildDragonfly(-3, ssc), "at least 2 groups");
}

TEST(Dragonfly, GroupCountBeyondGlobalBudgetDiesLoudly)
{
    // Radix 16: 5 global links per router, 40 per group — 42 groups
    // need 41 distinct peers and exceed the budget.
    const power::SscConfig ssc = power::scaledSsc(16, 200.0);
    EXPECT_DEATH(buildDragonfly(42, ssc), "global-link budget");
}

} // namespace
} // namespace wss::topology

/**
 * @file
 * Unit and property tests for the mapping layer: floorplan geometry,
 * channel-load routing, incremental-update correctness, and the
 * Algorithm 1 pairwise-exchange optimizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "core/radix_solver.hpp"
#include "mapping/pairwise_exchange.hpp"
#include "mapping/wafer_mapping.hpp"
#include "power/ssc.hpp"
#include "tech/cooling.hpp"
#include "tech/external_io.hpp"
#include "tech/wsi.hpp"
#include "topology/butterfly.hpp"
#include "topology/clos.hpp"
#include "topology/dragonfly.hpp"
#include "topology/mesh.hpp"

namespace wss::mapping {
namespace {

using topology::LogicalTopology;
using topology::NodeRole;

TEST(Floorplan, CountsWithoutRing)
{
    const WaferFloorplan fp(3, 4, false, 28.28);
    EXPECT_EQ(fp.interiorCount(), 12);
    EXPECT_EQ(fp.ringCount(), 0);
    EXPECT_EQ(fp.siteCount(), 12);
    // Grid edges: 3*3 horizontal + 2*4 vertical.
    EXPECT_EQ(fp.edgeCount(), 17);
}

TEST(Floorplan, CountsWithRing)
{
    const WaferFloorplan fp(3, 4, true, 28.28);
    EXPECT_EQ(fp.ringCount(), 14);
    EXPECT_EQ(fp.siteCount(), 26);
    // Interior 17 + one ring edge per boundary-cell side: 2*4 + 2*3.
    EXPECT_EQ(fp.edgeCount(), 17 + 14);
}

TEST(Floorplan, PaperScaleIsTwelveByTwelve)
{
    // The paper's largest system: a 12x12 array of switching and I/O
    // chiplets = a 10x10 SSC grid plus the ring.
    const WaferFloorplan fp(10, 10, true, 28.28);
    EXPECT_EQ(fp.interiorCount() + fp.ringCount(), 100 + 40);
}

TEST(Floorplan, EdgeTowardIsConsistentWithEdgeBetween)
{
    const WaferFloorplan fp(4, 5, true, 28.28);
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 5; ++c) {
            const int site = fp.interiorSite(r, c);
            if (c + 1 < 5) {
                EXPECT_EQ(fp.edgeToward(r, c, 3),
                          fp.edgeBetween(site, fp.interiorSite(r, c + 1)));
            }
            if (r + 1 < 4) {
                EXPECT_EQ(fp.edgeToward(r, c, 1),
                          fp.edgeBetween(site, fp.interiorSite(r + 1, c)));
            }
        }
    }
}

TEST(Floorplan, RingSitesConnectInwardOnly)
{
    const WaferFloorplan fp(3, 3, true, 28.28);
    for (int site = fp.interiorCount(); site < fp.siteCount(); ++site)
        EXPECT_EQ(fp.edgesOf(site).size(), 1u);
    // Boundary interior cell (0,0) reaches rings upward and leftward.
    EXPECT_GE(fp.ringSiteToward(0, 0, 0), fp.interiorCount());
    EXPECT_GE(fp.ringSiteToward(0, 0, 2), fp.interiorCount());
    EXPECT_EQ(fp.ringSiteToward(1, 1, 0), -1); // interior cell: none
}

/// Two-node topology with one bundle, placed at controlled sites.
LogicalTopology
pairTopology(int multiplicity, int ext_a = 0, int ext_b = 0)
{
    LogicalTopology topo("pair", 200.0);
    const int type = topo.addSscType(power::tomahawk5(1));
    const int a = topo.addNode(NodeRole::Router, type, ext_a);
    const int b = topo.addNode(NodeRole::Router, type, ext_b);
    topo.addLink(a, b, multiplicity);
    return topo;
}

TEST(WaferMapping, AdjacentRouteLoadsOneEdge)
{
    const LogicalTopology topo = pairTopology(4);
    const WaferFloorplan fp(1, 2, false, 28.28);
    WaferMapping wm(topo, fp, false);
    wm.assignIdentity();
    EXPECT_DOUBLE_EQ(wm.maxEdgeLoad(), 4 * 200.0);
    EXPECT_DOUBLE_EQ(wm.totalCrossingBandwidth(), 800.0);
    EXPECT_DOUBLE_EQ(wm.averageLinkHops(), 1.0);
}

TEST(WaferMapping, MultiHopRouteLoadsEveryEdgeOnThePath)
{
    const LogicalTopology topo = pairTopology(1);
    const WaferFloorplan fp(1, 5, false, 28.28);
    WaferMapping wm(topo, fp, false);
    wm.assign({0, 4}); // ends of the row: 4 hops
    EXPECT_DOUBLE_EQ(wm.maxEdgeLoad(), 200.0);
    EXPECT_DOUBLE_EQ(wm.totalCrossingBandwidth(), 4 * 200.0);
    EXPECT_DOUBLE_EQ(wm.averageLinkHops(), 4.0);
}

TEST(WaferMapping, ExternalTrafficSplitsFourWays)
{
    LogicalTopology topo("solo", 200.0);
    const int type = topo.addSscType(power::tomahawk5(1));
    topo.addNode(NodeRole::Leaf, type, 4); // 800 Gbps of ports
    const WaferFloorplan fp(3, 3, true, 28.28);
    WaferMapping wm(topo, fp, true);
    wm.assign({fp.interiorSite(1, 1)}); // center
    // Each direction carries a quarter: 200 Gbps on each of the two
    // edges toward the ring in every direction.
    EXPECT_DOUBLE_EQ(wm.maxEdgeLoad(), 200.0);
    EXPECT_DOUBLE_EQ(wm.totalCrossingBandwidth(), 4 * 2 * 200.0);
}

TEST(WaferMapping, AreaIoSchemesAddNoMeshLoad)
{
    LogicalTopology topo("solo", 200.0);
    const int type = topo.addSscType(power::tomahawk5(1));
    topo.addNode(NodeRole::Leaf, type, 4);
    const WaferFloorplan fp(3, 3, false, 28.28);
    WaferMapping wm(topo, fp, false);
    wm.assign({fp.interiorSite(1, 1)});
    EXPECT_DOUBLE_EQ(wm.maxEdgeLoad(), 0.0);
}

TEST(WaferMapping, SwapIsAnInvolution)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({512, power::tomahawk5(1), 1});
    const WaferFloorplan fp(3, 3, true, 28.28);
    WaferMapping wm(topo, fp, true);
    Rng rng(1);
    wm.assignRandom(rng);
    const auto before = wm.edgeLoads();
    wm.swapNodes(0, 4);
    wm.swapNodes(0, 4);
    const auto after = wm.edgeLoads();
    for (std::size_t e = 0; e < before.size(); ++e)
        EXPECT_NEAR(before[e], after[e], 1e-9) << "edge " << e;
}

/// Property: after arbitrary swap/move sequences, incrementally
/// maintained loads equal a from-scratch rebuild.
TEST(WaferMapping, IncrementalUpdatesMatchRebuildOracle)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({768, power::tomahawk5(1), 1});
    const WaferFloorplan fp(4, 4, true, 28.28); // 16 sites, 9 nodes
    WaferMapping wm(topo, fp, true);
    Rng rng(42);
    wm.assignRandom(rng);

    for (int step = 0; step < 200; ++step) {
        if (rng.nextBool(0.5)) {
            const int a = static_cast<int>(
                rng.nextBelow(topo.nodeCount()));
            const int b = static_cast<int>(
                rng.nextBelow(topo.nodeCount()));
            if (a != b)
                wm.swapNodes(a, b);
        } else {
            // Move to a random empty site, if any.
            const int node = static_cast<int>(
                rng.nextBelow(topo.nodeCount()));
            std::vector<int> empty;
            for (int s = 0; s < fp.interiorCount(); ++s)
                if (wm.nodeAt(s) == -1)
                    empty.push_back(s);
            if (!empty.empty())
                wm.moveNode(node,
                            empty[rng.nextBelow(empty.size())]);
        }
    }

    const auto incremental = wm.edgeLoads();
    wm.rebuildLoads();
    const auto oracle = wm.edgeLoads();
    ASSERT_EQ(incremental.size(), oracle.size());
    for (std::size_t e = 0; e < oracle.size(); ++e)
        EXPECT_NEAR(incremental[e], oracle[e], 1e-6) << "edge " << e;
}

TEST(WaferMapping, EquivalentLeavesShareKeys)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({2048, power::tomahawk5(1), 1});
    const WaferFloorplan fp(5, 5, true, 28.28);
    WaferMapping wm(topo, fp, true);
    // 2048 = 8 spines x 256: every leaf has mult-16 bundles to all 8
    // spines, so all leaves are interchangeable; spines likewise.
    std::size_t leaf_key = 0, spine_key = 0;
    bool first_leaf = true, first_spine = true;
    for (int i = 0; i < topo.nodeCount(); ++i) {
        if (topo.nodes()[i].role == NodeRole::Leaf) {
            if (first_leaf) {
                leaf_key = wm.equivalenceKey(i);
                first_leaf = false;
            }
            EXPECT_EQ(wm.equivalenceKey(i), leaf_key);
        } else {
            if (first_spine) {
                spine_key = wm.equivalenceKey(i);
                first_spine = false;
            }
            EXPECT_EQ(wm.equivalenceKey(i), spine_key);
        }
    }
    EXPECT_NE(leaf_key, spine_key);
}

TEST(WaferMapping, RejectsOversizedTopology)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({2048, power::tomahawk5(1), 1});
    const WaferFloorplan fp(3, 3, true, 28.28); // 9 < 24 nodes
    EXPECT_DEATH(WaferMapping(topo, fp, true), "interior sites");
}

TEST(PairwiseExchange, NeverWorsensTheObjective)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({1024, power::tomahawk5(1), 1});
    const WaferFloorplan fp(4, 4, true, 28.28);
    WaferMapping wm(topo, fp, true);
    Rng rng(7);
    for (int trial = 0; trial < 5; ++trial) {
        wm.assignRandom(rng);
        const double before = wm.maxEdgeLoad();
        const double after = optimizePairwiseExchange(wm);
        EXPECT_LE(after, before + 1e-9);
        EXPECT_NEAR(after, wm.maxEdgeLoad(), 1e-9);
    }
}

TEST(PairwiseExchange, ImprovesRandomMappings)
{
    // Fig. 5's direction: the heuristic beats random placement. (The
    // paper reports ~147% better worst-case per-port bandwidth; our
    // four-way external-escape model softens random placements, so
    // the measured gap is smaller — see EXPERIMENTS.md.)
    const LogicalTopology topo =
        topology::buildFoldedClos({2048, power::tomahawk5(1), 1});
    const WaferFloorplan fp(5, 5, true, 28.28);
    Rng rng(11);
    const auto result = searchBestMapping(topo, fp, true, rng, 4);
    EXPECT_LT(result.max_edge_load,
              result.initial_max_edge_load * 0.85);
}

TEST(PairwiseExchange, ImprovesAtPaperScaleToo)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({8192, power::tomahawk5(1), 1});
    const WaferFloorplan fp(10, 10, true, 28.28);
    Rng rng(11);
    const auto result = searchBestMapping(topo, fp, true, rng, 3);
    EXPECT_LT(result.max_edge_load,
              result.initial_max_edge_load * 0.92);
}

TEST(PairwiseExchange, ReturnsAValidAssignment)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({512, power::tomahawk5(1), 1});
    const WaferFloorplan fp(3, 3, true, 28.28);
    Rng rng(3);
    const auto result = searchBestMapping(topo, fp, true, rng, 2);
    ASSERT_EQ(result.assignment.size(),
              static_cast<std::size_t>(topo.nodeCount()));
    std::vector<bool> used(fp.interiorCount(), false);
    for (int site : result.assignment) {
        ASSERT_GE(site, 0);
        ASSERT_LT(site, fp.interiorCount());
        EXPECT_FALSE(used[site]);
        used[site] = true;
    }
    // Replaying the assignment reproduces the reported objective.
    WaferMapping wm(topo, fp, true);
    wm.assign(result.assignment);
    EXPECT_NEAR(wm.maxEdgeLoad(), result.max_edge_load, 1e-9);
    EXPECT_NEAR(wm.totalCrossingBandwidth(),
                result.total_crossing_bandwidth, 1e-6);
}

TEST(PairwiseExchange, MeshIdentityIsAlreadyOptimal)
{
    // A mesh topology placed identically onto the grid has every
    // logical link on its own physical edge; the optimizer cannot
    // beat bundle-width load.
    const LogicalTopology topo =
        topology::buildMesh(3, 3, power::tomahawk5(1));
    const WaferFloorplan fp(3, 3, false, 28.28);
    WaferMapping wm(topo, fp, false);
    wm.assignIdentity();
    EXPECT_DOUBLE_EQ(wm.maxEdgeLoad(), 32 * 200.0);
    const double optimized = optimizePairwiseExchange(wm);
    EXPECT_DOUBLE_EQ(optimized, 32 * 200.0);
}

/// Exact rendering of a double, for golden failure messages.
std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// FNV-1a over a node->site assignment.
std::uint64_t
fnv1a(const std::vector<int> &assignment)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int site : assignment) {
        h ^= static_cast<std::uint32_t>(site);
        h *= 0x100000001b3ULL;
    }
    return h;
}

// Goldens pinned on the optimizer that re-applied every rejected move
// in reverse; the journaled optimizer must reproduce them bit for bit.
TEST(PairwiseExchange, GoldenSearchOnPaperScaleClos)
{
    const LogicalTopology topo =
        topology::buildFoldedClos({8192, power::tomahawk5(1), 1});
    const WaferFloorplan fp(10, 10, true, 28.28);
    Rng rng(1);
    const auto result = searchBestMapping(topo, fp, true, rng, 2);
    EXPECT_EQ(hex(result.max_edge_load), "0x1.068p+17");
    EXPECT_EQ(hex(result.total_crossing_bandwidth), "0x1.2e328p+24");
    EXPECT_EQ(hex(result.average_link_hops), "0x1.a5ap+2");
    EXPECT_EQ(fnv1a(result.assignment), 0xb7bbadf319336f8aULL)
        << std::hex << fnv1a(result.assignment);
}

TEST(PairwiseExchange, GoldenFig25DragonflyOptimizedSolve)
{
    // Fig. 25 (c) Dragonfly: 300 mm, overclocked 6400 Gbps/mm links,
    // water cooling, 4 mapping restarts, seed 1.
    core::DesignSpec spec;
    spec.substrate_side = 300.0;
    spec.wsi = tech::siIf2x();
    spec.external_io = tech::opticalIo();
    spec.ssc = power::tomahawk5(1);
    spec.cooling = tech::waterCooling();
    spec.mapping_restarts = 4;
    spec.seed = 1;
    spec.topology = core::TopologyKind::Dragonfly;
    const auto best = core::RadixSolver(spec).solveMaxPorts().best;
    EXPECT_EQ(best.ports, 5120);
    EXPECT_EQ(hex(best.max_edge_load), "0x1.82b8p+16");
}

/// Algorithm 1's objective computed from the loads as the original
/// optimizer did: a max scan, then a count against that max.
MappingObjective
referenceObjective(const WaferMapping &wm)
{
    double m = 0.0;
    for (double load : wm.edgeLoads())
        m = std::max(m, load);
    int hot = 0;
    if (m > 0.0)
        for (double load : wm.edgeLoads())
            if (load >= m * (1.0 - 0.01))
                ++hot;
    return {m, hot};
}

/**
 * The original Algorithm 1 loop, kept as the oracle: apply each trial
 * move in full, evaluate, and re-apply it in reverse when rejected.
 */
MappingObjective
referenceOptimize(WaferMapping &mapping)
{
    const int nodes = mapping.topology().nodeCount();
    const int sites = mapping.floorplan().interiorCount();
    std::vector<int> empty_sites;
    for (int s = 0; s < sites; ++s)
        if (mapping.nodeAt(s) == -1)
            empty_sites.push_back(s);

    MappingObjective current = referenceObjective(mapping);
    bool changed = true;
    while (changed) {
        changed = false;
        for (int a = 0; a < nodes; ++a) {
            for (int b = a + 1; b < nodes; ++b) {
                if (mapping.equivalenceKey(a) == mapping.equivalenceKey(b))
                    continue;
                mapping.swapNodes(a, b);
                const MappingObjective candidate =
                    referenceObjective(mapping);
                if (candidate.betterThan(current)) {
                    current = candidate;
                    changed = true;
                } else {
                    mapping.swapNodes(a, b);
                }
            }
        }
        for (int a = 0; a < nodes; ++a) {
            for (std::size_t i = 0; i < empty_sites.size(); ++i) {
                const int target = empty_sites[i];
                const int from = mapping.siteOf(a);
                mapping.moveNode(a, target);
                const MappingObjective candidate =
                    referenceObjective(mapping);
                if (candidate.betterThan(current)) {
                    current = candidate;
                    empty_sites[i] = from;
                    changed = true;
                } else {
                    mapping.moveNode(a, from);
                }
            }
        }
    }
    return current;
}

void
expectBitEqualLoads(const std::vector<double> &a,
                    const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t e = 0; e < a.size(); ++e)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[e]),
                  std::bit_cast<std::uint64_t>(b[e]))
            << "edge " << e << ": " << hex(a[e]) << " vs " << hex(b[e]);
}

/// A topology and floorplan for the oracle comparison.
struct OracleCase
{
    std::string name;
    LogicalTopology topo;
    bool ring;
};

/// Randomized Clos, butterfly and dragonfly cases, each on a grid with
/// a few empty sites, with and without an I/O ring.
std::vector<OracleCase>
oracleCases()
{
    std::vector<OracleCase> cases;
    Rng rng(2024);
    for (bool ring : {true, false}) {
        const int clos_radix = rng.nextBool(0.5) ? 32 : 64;
        const std::int64_t clos_ports =
            clos_radix / 2 * (6 + rng.nextBelow(8));
        cases.push_back({"clos", topology::buildFoldedClos(
                                     {clos_ports,
                                      power::scaledSsc(clos_radix, 200.0),
                                      1}),
                         ring});
        const int bfly_radix = 32;
        const std::int64_t bfly_ports =
            5 * bfly_radix / 8 * (4 + rng.nextBelow(5));
        cases.push_back({"butterfly",
                         topology::buildButterfly(
                             bfly_ports,
                             power::scaledSsc(bfly_radix, 400.0)),
                         ring});
        const int groups = 3 + static_cast<int>(rng.nextBelow(3));
        cases.push_back({"dragonfly",
                         topology::buildDragonfly(
                             groups, power::scaledSsc(32, 800.0)),
                         ring});
    }
    return cases;
}

/// Smallest near-square grid with @p nodes sites plus a few spares.
WaferFloorplan
gridFor(int nodes, bool ring)
{
    int rows = 1;
    while (rows * rows < nodes + 3)
        ++rows;
    const int cols = (nodes + 3 + rows - 1) / rows;
    return WaferFloorplan(rows, cols, ring, 28.28);
}

TEST(PairwiseExchange, MatchesReferenceOptimizerBitForBit)
{
    Rng rng(99);
    for (const auto &c : oracleCases()) {
        const WaferFloorplan fp = gridFor(c.topo.nodeCount(), c.ring);
        ASSERT_GT(fp.interiorCount(), c.topo.nodeCount()) << c.name;
        for (int start = 0; start < 3; ++start) {
            SCOPED_TRACE(c.name + (c.ring ? " ring" : " no ring") +
                         " start " + std::to_string(start));
            WaferMapping reference(c.topo, fp, c.ring);
            reference.assignRandom(rng);
            std::vector<int> initial(c.topo.nodeCount());
            for (int n = 0; n < c.topo.nodeCount(); ++n)
                initial[n] = reference.siteOf(n);
            WaferMapping journaled(c.topo, fp, c.ring);
            journaled.assign(initial);

            const MappingObjective want = referenceOptimize(reference);
            const double got = optimizePairwiseExchange(journaled);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want.max_load));
            const MappingObjective final_obj = journaled.objective();
            EXPECT_EQ(final_obj.hot_edges, want.hot_edges);
            expectBitEqualLoads(journaled.edgeLoads(),
                                reference.edgeLoads());
            for (int n = 0; n < c.topo.nodeCount(); ++n)
                EXPECT_EQ(journaled.siteOf(n), reference.siteOf(n))
                    << "node " << n;
        }
    }
}

/// Random trial exchanges on @p wm: every rejected trial, whether
/// stopped at the cap or rolled back after evaluation, must leave the
/// loads and the placement exactly as they were; and a trial must stop
/// early exactly when its full application would end above the cap.
void
checkRejectedTrialsRestoreExactly(WaferMapping &wm, Rng &rng)
{
    const int nodes = wm.topology().nodeCount();
    const int sites = wm.floorplan().interiorCount();
    int aborted = 0, evaluated = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const int node = static_cast<int>(rng.nextBelow(nodes));
        const int site = static_cast<int>(rng.nextBelow(sites));
        if (site == wm.siteOf(node))
            continue;
        const std::vector<double> before = wm.edgeLoads();
        std::vector<int> placement(nodes);
        for (int n = 0; n < nodes; ++n)
            placement[n] = wm.siteOf(n);

        // The uncapped outcome decides whether a capped trial may stop.
        const double cap = wm.maxEdgeLoad() + MappingObjective::kTieEps;
        ASSERT_TRUE(wm.tryExchange(
            node, site, std::numeric_limits<double>::infinity()));
        const double full_max = wm.maxEdgeLoad();
        wm.rollback();
        expectBitEqualLoads(wm.edgeLoads(), before);

        const bool kept = wm.tryExchange(node, site, cap);
        EXPECT_EQ(kept, full_max <= cap) << "trial " << trial;
        if (kept) {
            ++evaluated;
            wm.rollback();
        } else {
            ++aborted;
        }
        expectBitEqualLoads(wm.edgeLoads(), before);
        for (int n = 0; n < nodes; ++n)
            ASSERT_EQ(wm.siteOf(n), placement[n]) << "node " << n;
        for (int n = 0; n < nodes; ++n)
            ASSERT_EQ(wm.nodeAt(placement[n]), n);
    }
    EXPECT_GT(aborted, 0);
    EXPECT_GT(evaluated, 0);
}

TEST(WaferMapping, RejectedTrialsRestoreLoadsExactly)
{
    for (const auto &c : oracleCases()) {
        SCOPED_TRACE(c.name);
        const WaferFloorplan fp = gridFor(c.topo.nodeCount(), c.ring);
        WaferMapping wm(c.topo, fp, c.ring);
        Rng rng(17);
        wm.assignRandom(rng);
        checkRejectedTrialsRestoreExactly(wm, rng);
    }
}

TEST(WaferMapping, RejectedTrialsRestoreNonDyadicLoadsExactly)
{
    // A 0.1 G line rate makes every load inexact in binary, so
    // re-applying a move in reverse would leave rounding drift; the
    // journal restores the old values themselves.
    const LogicalTopology topo = topology::buildFoldedClos(
        {256, power::scaledSsc(32, 0.1, "slow"), 1});
    for (bool ring : {true, false}) {
        const WaferFloorplan fp = gridFor(topo.nodeCount(), ring);
        WaferMapping wm(topo, fp, ring);
        Rng rng(23);
        wm.assignRandom(rng);
        checkRejectedTrialsRestoreExactly(wm, rng);
    }
}

} // namespace
} // namespace wss::mapping

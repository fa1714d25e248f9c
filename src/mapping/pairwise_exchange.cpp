#include "mapping/pairwise_exchange.hpp"

#include <limits>

namespace wss::mapping {

double
optimizePairwiseExchange(WaferMapping &mapping)
{
    const int nodes = mapping.topology().nodeCount();
    const int sites = mapping.floorplan().interiorCount();

    // Empty interior sites are legal swap targets too (the chiplet
    // simply moves).
    std::vector<int> empty_sites;
    for (int s = 0; s < sites; ++s)
        if (mapping.nodeAt(s) == -1)
            empty_sites.push_back(s);

    MappingObjective current = mapping.objective();
    // Keep the trial of moving @p node to @p site if it improves the
    // objective. A trial that lifts any edge above the current C(M)
    // plus the tie epsilon cannot win betterThan(), so tryExchange()
    // drops it at that edge without computing the objective.
    auto keepIfBetter = [&](int node, int site) {
        if (!mapping.tryExchange(node, site,
                                 current.max_load +
                                     MappingObjective::kTieEps))
            return false;
        const MappingObjective candidate = mapping.objective();
        if (!candidate.betterThan(current)) {
            mapping.rollback();
            return false;
        }
        mapping.commit();
        current = candidate;
        return true;
    };

    bool changed = true;
    while (changed) {
        changed = false;

        // Node-node swaps.
        for (int a = 0; a < nodes; ++a) {
            for (int b = a + 1; b < nodes; ++b) {
                if (mapping.equivalenceKey(a) == mapping.equivalenceKey(b))
                    continue; // interchangeable: swap is a no-op
                if (keepIfBetter(a, mapping.siteOf(b)))
                    changed = true;
            }
        }

        // Node-to-empty-site moves.
        for (int a = 0; a < nodes; ++a) {
            for (std::size_t i = 0; i < empty_sites.size(); ++i) {
                const int from = mapping.siteOf(a);
                if (keepIfBetter(a, empty_sites[i])) {
                    empty_sites[i] = from;
                    changed = true;
                }
            }
        }
    }
    return current.max_load;
}

MappingSearchResult
searchBestMapping(const topology::LogicalTopology &topo,
                  const WaferFloorplan &fp, bool external_via_mesh,
                  Rng &rng, int restarts)
{
    MappingSearchResult best;
    best.max_edge_load = std::numeric_limits<double>::infinity();
    best.initial_max_edge_load = std::numeric_limits<double>::infinity();

    WaferMapping mapping(topo, fp, external_via_mesh);
    for (int r = 0; r < restarts; ++r) {
        mapping.assignRandom(rng);
        // The "unoptimized random initialization" baseline the paper
        // compares against (Fig. 5): one representative random
        // placement, i.e. the first restart's starting point.
        if (r == 0)
            best.initial_max_edge_load = mapping.maxEdgeLoad();

        const double optimized = optimizePairwiseExchange(mapping);
        if (optimized < best.max_edge_load) {
            best.max_edge_load = optimized;
            best.total_crossing_bandwidth =
                mapping.totalCrossingBandwidth();
            best.average_link_hops = mapping.averageLinkHops();
            best.assignment.resize(topo.nodeCount());
            for (int n = 0; n < topo.nodeCount(); ++n)
                best.assignment[n] = mapping.siteOf(n);
        }
    }
    return best;
}

} // namespace wss::mapping

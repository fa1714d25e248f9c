/**
 * @file
 * Folded-Clos (leaf-spine) fabric builders — paper Sections IV & V.
 *
 * The paper's waferscale switch is a 2-level folded Clos of TH-5-like
 * SSCs: 2N/k leaf chiplets (k/2 external ports + k/2 uplinks each)
 * and N/k spine chiplets, 3N/k chiplets total (Table VI). Uplinks are
 * spread round-robin across the spines, which keeps the fabric
 * rearrangeably non-blocking for any leaf count and strictly
 * non-blocking when the spread is even.
 *
 * Two paper optimizations are expressed through this builder:
 *  - Heterogeneous switch (V.B): each radix-k leaf is disaggregated
 *    into `leaf_split` radix-(k/split) leaves built from smaller,
 *    super-linearly cheaper dies; spine connectivity is preserved.
 *  - Subswitch deradixing (V.C): pass an SSC whose radix is reduced
 *    while its area stays at the full die size (see deradixedSsc()).
 */

#ifndef WSS_TOPOLOGY_CLOS_HPP
#define WSS_TOPOLOGY_CLOS_HPP

#include <cstdint>

#include "topology/logical_topology.hpp"

namespace wss::topology {

/// Parameters for buildFoldedClos().
struct ClosSpec
{
    /// Total external ports (switch radix). Must be a positive
    /// multiple of ssc.radix/2.
    std::int64_t total_ports = 0;
    /// Sub-switch chiplet used for leaves and (by default) spines.
    power::SscConfig ssc;
    /// Disaggregate each leaf into this many smaller leaves (>= 1).
    int leaf_split = 1;
};

/**
 * Build a 2-level folded Clos with @p spec.total_ports external
 * ports. With leaf_split > 1 the leaves use scaledSsc(k/split) dies
 * (heterogeneous design); spines always use spec.ssc.
 *
 * Calls fatal() if total_ports is not a multiple of ssc.radix/2 or
 * leaf_split does not divide ssc.radix/2.
 */
LogicalTopology buildFoldedClos(const ClosSpec &spec);

/// Round @p ports down to a multiple of @p ssc_radix / 2, the port
/// granularity buildFoldedClos() accepts; a count below one such
/// multiple becomes one.
std::int64_t alignClosPorts(std::int64_t ports, int ssc_radix);

/**
 * Number of chiplets a folded Clos of @p total_ports needs with
 * radix-@p ssc_radix sub-switches: 3N/k (Table VI), exact for any N
 * that is a multiple of k/2.
 */
std::int64_t closChipletCount(std::int64_t total_ports, int ssc_radix);

/**
 * An SSC "deradixed" from @p base (Section V.C): radix divided by
 * @p factor, area kept at the full die size (the freed beachfront
 * becomes feedthrough I/O), core power reduced per the quadratic
 * radix-power law.
 */
power::SscConfig deradixedSsc(const power::SscConfig &base, int factor);

} // namespace wss::topology

#endif // WSS_TOPOLOGY_CLOS_HPP

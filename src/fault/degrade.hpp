/**
 * @file
 * Topology degradation: what a waferscale switch still is after a
 * DefectMap strikes it.
 *
 * Applying a map removes dead SSCs and dead link units from the
 * logical fabric, then asks the connectivity question the paper's
 * spare-socket story leaves open: are all surviving external ports
 * still mutually reachable (FullyConnected), did we lose ports but
 * keep one fabric (Degraded), or did the failures split the
 * port-bearing chiplets into islands (Partitioned)? The surviving
 * component is re-emitted as a valid LogicalTopology so the existing
 * sim::Network / Simulator stack can measure packet-level behaviour
 * of the degraded switch directly.
 */

#ifndef WSS_FAULT_DEGRADE_HPP
#define WSS_FAULT_DEGRADE_HPP

#include <optional>
#include <vector>

#include "fault/defect.hpp"
#include "topology/logical_topology.hpp"

namespace wss::fault {

/// How well the surviving fabric hangs together.
enum class Connectivity
{
    /// Every original external port survives and all port-bearing
    /// chiplets are mutually reachable (e.g. a dead spine in a Clos
    /// with surviving ECMP siblings).
    FullyConnected,
    /// Some external ports are gone (dead or unreachable leaves),
    /// but the surviving ports form one connected fabric.
    Degraded,
    /// Port-bearing chiplets ended up in two or more islands.
    Partitioned,
};

/// What applying a DefectMap left behind.
struct DegradeResult
{
    Connectivity classification = Connectivity::FullyConnected;
    /// The largest surviving connected component, renumbered into a
    /// valid LogicalTopology (link multiplicities reduced by their
    /// dead units). Absent when nothing port-bearing survived.
    std::optional<topology::LogicalTopology> topo;
    /// Original node id -> surviving node id, -1 for dead/dropped.
    std::vector<int> node_map;
    /// External ports usable in the kept component.
    std::int64_t usable_ports = 0;
    /// External ports of the pristine fabric.
    std::int64_t original_ports = 0;
    /// Surviving internal link bandwidth of the kept component as a
    /// fraction of the pristine fabric's — the proxy for the lost
    /// bisection under uniform traffic.
    double bisection_fraction = 0.0;
    int failed_nodes = 0;
    int failed_link_units = 0;
};

/**
 * Apply @p map to @p topo: drop dead nodes, reduce each bundle's
 * multiplicity by its dead units, keep the connected component with
 * the most external ports (ties: lowest node id), classify, and
 * rebuild the survivor as a LogicalTopology.
 */
DegradeResult degradeTopology(const topology::LogicalTopology &topo,
                              const DefectMap &map);

} // namespace wss::fault

#endif // WSS_FAULT_DEGRADE_HPP

#include "fault/degrade.hpp"

#include <queue>

#include "util/logging.hpp"

namespace wss::fault {

DegradeResult
degradeTopology(const topology::LogicalTopology &topo,
                const DefectMap &map)
{
    const auto &nodes = topo.nodes();
    const auto &links = topo.links();
    if (map.node_failed.size() != nodes.size() ||
        map.link_failed_units.size() != links.size())
        fatal("degradeTopology: map does not match the topology");

    DegradeResult result;
    result.original_ports = topo.totalExternalPorts();
    result.failed_nodes = map.failedNodeCount();
    result.failed_link_units = map.failedLinkUnits();

    const int n = topo.nodeCount();

    // Surviving adjacency: both endpoints alive and at least one
    // live unit left in the bundle.
    std::vector<std::vector<int>> adjacency(
        static_cast<std::size_t>(n));
    for (std::size_t li = 0; li < links.size(); ++li) {
        const auto &link = links[li];
        if (map.node_failed[link.a] || map.node_failed[link.b])
            continue;
        if (map.link_failed_units[li] >= link.multiplicity)
            continue;
        adjacency[link.a].push_back(link.b);
        adjacency[link.b].push_back(link.a);
    }

    // Connected components over surviving nodes.
    std::vector<int> component(static_cast<std::size_t>(n), -1);
    std::vector<std::int64_t> component_ports;
    for (int start = 0; start < n; ++start) {
        if (map.node_failed[start] || component[start] >= 0)
            continue;
        const int id = static_cast<int>(component_ports.size());
        std::int64_t ports = 0;
        std::queue<int> queue;
        component[start] = id;
        queue.push(start);
        while (!queue.empty()) {
            const int u = queue.front();
            queue.pop();
            ports += nodes[u].external_ports;
            for (int v : adjacency[u]) {
                if (component[v] < 0) {
                    component[v] = id;
                    queue.push(v);
                }
            }
        }
        component_ports.push_back(ports);
    }

    // Keep the component with the most external ports (components
    // were discovered in ascending node id, so ties resolve to the
    // lowest id deterministically). Count how many port-bearing
    // islands exist for the classification.
    int kept = -1;
    int port_islands = 0;
    for (std::size_t c = 0; c < component_ports.size(); ++c) {
        if (component_ports[c] > 0)
            ++port_islands;
        if (kept < 0 || component_ports[c] > component_ports[kept])
            kept = static_cast<int>(c);
    }
    result.usable_ports = kept >= 0 ? component_ports[kept] : 0;

    if (port_islands > 1)
        result.classification = Connectivity::Partitioned;
    else if (result.usable_ports == result.original_ports)
        result.classification = Connectivity::FullyConnected;
    else
        result.classification = Connectivity::Degraded;

    // Rebuild the kept component as a standalone LogicalTopology.
    result.node_map.assign(static_cast<std::size_t>(n), -1);
    if (kept < 0)
        return result;

    topology::LogicalTopology survivor(topo.name() + "-degraded",
                                       topo.lineRate());
    for (const auto &ssc : topo.sscTypes())
        survivor.addSscType(ssc);
    for (int node = 0; node < n; ++node) {
        if (component[node] != kept)
            continue;
        result.node_map[node] =
            survivor.addNode(nodes[node].role, nodes[node].ssc_type,
                             nodes[node].external_ports);
    }

    const double original_bw = topo.totalInternalLinkBandwidth();
    double surviving_bw = 0.0;
    for (std::size_t li = 0; li < links.size(); ++li) {
        const auto &link = links[li];
        const int a = result.node_map[link.a];
        const int b = result.node_map[link.b];
        if (a < 0 || b < 0)
            continue;
        const int live = link.multiplicity - map.link_failed_units[li];
        if (live <= 0)
            continue;
        survivor.addLink(a, b, live);
        surviving_bw += static_cast<double>(live) * topo.lineRate();
    }
    result.bisection_fraction =
        original_bw > 0.0 ? surviving_bw / original_bw : 1.0;

    const std::string issue = survivor.validate();
    if (!issue.empty())
        panic("degradeTopology produced an invalid survivor: ", issue);
    result.topo = std::move(survivor);
    return result;
}

} // namespace wss::fault

#include "topology/logical_topology.hpp"

#include <sstream>

#include "util/logging.hpp"

namespace wss::topology {

std::string_view
toString(NodeRole role)
{
    switch (role) {
      case NodeRole::Leaf: return "leaf";
      case NodeRole::Spine: return "spine";
      case NodeRole::Router: return "router";
    }
    panic("unknown NodeRole");
}

int
LogicalTopology::addSscType(const power::SscConfig &ssc)
{
    sscs_.push_back(ssc);
    return static_cast<int>(sscs_.size()) - 1;
}

int
LogicalTopology::addNode(NodeRole role, int ssc_type, int external_ports)
{
    if (ssc_type < 0 || ssc_type >= static_cast<int>(sscs_.size()))
        fatal("addNode: unknown SSC type index ", ssc_type);
    nodes_.push_back({role, ssc_type, external_ports});
    return static_cast<int>(nodes_.size()) - 1;
}

void
LogicalTopology::addLink(int a, int b, int multiplicity)
{
    const int n = nodeCount();
    if (a < 0 || a >= n || b < 0 || b >= n)
        fatal("addLink: node id out of range (", a, ", ", b, ")");
    if (a == b)
        fatal("addLink: self-links are not allowed (node ", a, ")");
    if (multiplicity < 1)
        fatal("addLink: multiplicity must be >= 1");
    links_.push_back({a, b, multiplicity});
}

std::int64_t
LogicalTopology::totalExternalPorts() const
{
    std::int64_t total = 0;
    for (const auto &node : nodes_)
        total += node.external_ports;
    return total;
}

int
LogicalTopology::portsUsed(int id) const
{
    int used = nodes_[id].external_ports;
    for (const auto &link : links_)
        if (link.a == id || link.b == id)
            used += link.multiplicity;
    return used;
}

SquareMillimeters
LogicalTopology::totalSscArea() const
{
    SquareMillimeters total = 0.0;
    for (const auto &node : nodes_)
        total += sscs_[node.ssc_type].area;
    return total;
}

Watts
LogicalTopology::totalSscCorePower() const
{
    Watts total = 0.0;
    for (const auto &node : nodes_)
        total += sscs_[node.ssc_type].corePowerAt5nm();
    return total;
}

Gbps
LogicalTopology::totalInternalLinkBandwidth() const
{
    double links = 0.0;
    for (const auto &link : links_)
        links += link.multiplicity;
    return links * line_rate_;
}

std::string
LogicalTopology::validate() const
{
    std::ostringstream err;
    if (line_rate_ <= 0.0)
        return "line rate must be positive";

    for (const auto &link : links_) {
        const int n = nodeCount();
        if (link.a < 0 || link.a >= n || link.b < 0 || link.b >= n) {
            err << "link endpoint out of range (" << link.a << ", "
                << link.b << ")";
            return err.str();
        }
        if (link.a == link.b) {
            err << "self-link at node " << link.a;
            return err.str();
        }
        if (link.multiplicity < 1) {
            err << "non-positive multiplicity on link (" << link.a << ", "
                << link.b << ")";
            return err.str();
        }
    }

    // Port budget per node. Accumulate in one pass instead of calling
    // portsUsed() per node (which would be quadratic in links).
    std::vector<int> used(nodes_.size(), 0);
    for (const auto &link : links_) {
        used[link.a] += link.multiplicity;
        used[link.b] += link.multiplicity;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        used[i] += nodes_[i].external_ports;
        const auto &ssc = sscs_[nodes_[i].ssc_type];
        if (nodes_[i].external_ports < 0) {
            err << "node " << i << " has negative external ports";
            return err.str();
        }
        if (used[i] > ssc.radix) {
            err << "node " << i << " (" << toString(nodes_[i].role)
                << ") uses " << used[i] << " ports but its SSC '"
                << ssc.name << "' has radix " << ssc.radix;
            return err.str();
        }
        if (sscs_[nodes_[i].ssc_type].line_rate != line_rate_) {
            err << "node " << i << " SSC line rate "
                << sscs_[nodes_[i].ssc_type].line_rate
                << " != topology line rate " << line_rate_;
            return err.str();
        }
    }
    return "";
}

} // namespace wss::topology

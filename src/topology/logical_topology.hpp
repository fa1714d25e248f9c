/**
 * @file
 * Logical switch-fabric topologies — paper Sections III.C, IV, VII.
 *
 * A LogicalTopology describes how sub-switch chiplets (SSCs) are
 * wired into one big switch: the chiplet instances (each referencing
 * an SSC design from a small per-topology catalog), the logical
 * inter-chiplet links (with multiplicity for parallel links), and how
 * many external ports each chiplet hosts. It is purely logical — the
 * physical placement onto the wafer mesh is the mapping layer's job.
 */

#ifndef WSS_TOPOLOGY_LOGICAL_TOPOLOGY_HPP
#define WSS_TOPOLOGY_LOGICAL_TOPOLOGY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "power/ssc.hpp"
#include "util/units.hpp"

namespace wss::topology {

/// Functional role of a chiplet within the fabric.
enum class NodeRole
{
    /// Ingress/egress stage: hosts external ports.
    Leaf,
    /// Interior stage: switches between leaves.
    Spine,
    /// Direct-topology router: hosts ports and routes through-traffic.
    Router,
};

/// Human-readable role name.
std::string_view toString(NodeRole role);

/**
 * One chiplet instance of the fabric.
 */
struct LogicalNode
{
    /// Role in the fabric.
    NodeRole role = NodeRole::Router;
    /// Index into LogicalTopology::sscTypes().
    int ssc_type = 0;
    /// Number of external (user-facing) ports hosted by this chiplet.
    int external_ports = 0;
};

/**
 * A bundle of parallel bidirectional links between two chiplets,
 * each running at the topology line rate.
 */
struct LogicalLink
{
    /// Endpoint node ids (order is not meaningful).
    int a = 0;
    int b = 0;
    /// Number of parallel links in this bundle (>= 1).
    int multiplicity = 1;
};

/**
 * A complete logical fabric: nodes, link bundles, external ports.
 *
 * Invariants (checked by validate()):
 *  - every node's used link count + external ports fits its SSC radix,
 *  - link endpoints are valid and distinct,
 *  - multiplicities are positive.
 */
class LogicalTopology
{
  public:
    LogicalTopology(std::string name, Gbps line_rate)
        : name_(std::move(name)), line_rate_(line_rate)
    {}

    /// Register an SSC design; returns its type index.
    int addSscType(const power::SscConfig &ssc);

    /// Add a chiplet; returns its node id.
    int addNode(NodeRole role, int ssc_type, int external_ports);

    /// Add a bundle of @p multiplicity parallel links between a and b.
    void addLink(int a, int b, int multiplicity = 1);

    const std::string &name() const { return name_; }
    Gbps lineRate() const { return line_rate_; }
    const std::vector<power::SscConfig> &sscTypes() const { return sscs_; }
    const std::vector<LogicalNode> &nodes() const { return nodes_; }
    const std::vector<LogicalLink> &links() const { return links_; }

    /// Sum of external ports over all nodes (the switch radix).
    std::int64_t totalExternalPorts() const;

    /// Number of chiplets.
    int nodeCount() const { return static_cast<int>(nodes_.size()); }

    /// Links (counting multiplicity) touching node @p id, plus its
    /// external ports: the number of SSC ports the node consumes.
    int portsUsed(int id) const;

    /// Total silicon area of all SSCs (excludes I/O chiplets).
    SquareMillimeters totalSscArea() const;

    /// Total SSC core power at 5 nm.
    Watts totalSscCorePower() const;

    /// Aggregate provisioned internal link bandwidth, one direction
    /// (sum over bundles of multiplicity x line rate).
    Gbps totalInternalLinkBandwidth() const;

    /**
     * Verify structural invariants; returns an empty string when
     * valid, else a description of the first violation.
     */
    std::string validate() const;

  private:
    std::string name_;
    Gbps line_rate_;
    std::vector<power::SscConfig> sscs_;
    std::vector<LogicalNode> nodes_;
    std::vector<LogicalLink> links_;
};

} // namespace wss::topology

#endif // WSS_TOPOLOGY_LOGICAL_TOPOLOGY_HPP

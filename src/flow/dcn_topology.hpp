/**
 * @file
 * Multi-switch datacenter-network topologies for the flow-level
 * simulator — paper Section VIII.B at network scale.
 *
 * A DcnTopology wires whole switches (each modeled by a calibrated
 * flow::SwitchProfile) into a datacenter fabric: hosts hang off edge
 * switches, trunks join the switch tiers. The builders pick the
 * smallest fat-tree that covers the requested host count — a single
 * switch, a 2-tier leaf-spine, or a 3-tier pod fat-tree — which is
 * exactly the paper's argument: a waferscale radix collapses tiers
 * that a 64-port baseline needs. A canonical dragonfly builder
 * covers the direct-topology alternative.
 *
 * Routing is ECMP over live shortest paths: per-destination-edge BFS
 * distance tables, next hop chosen by a deterministic flow hash.
 * Killing a switch or trunk invalidates the tables; rebuildRoutes()
 * recomputes them over the survivors, which is how fault:: events
 * drive mid-simulation reroutes.
 */

#ifndef WSS_FLOW_DCN_TOPOLOGY_HPP
#define WSS_FLOW_DCN_TOPOLOGY_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace wss::flow {

/// Which DCN fabric shape to build.
enum class DcnKind
{
    /// Smallest fat-tree covering the hosts (1, 2 or 3 tiers).
    FatTree,
    /// Canonical balanced dragonfly (p = k/4, a = k/2, h = k/4).
    Dragonfly,
};

/// One trunk bundle between two switches.
struct DcnLink
{
    int a = 0;
    int b = 0;
    /// Parallel cables in the bundle.
    int trunks = 1;
    /// Aggregate capacity per direction (Gbps).
    double gbps = 0.0;
};

/// A concrete path through the DCN (hosts implied by the flow).
struct DcnPath
{
    /// Switch ids in traversal order (>= 1 entries).
    std::vector<int> switches;
    /// Trunk link ids in traversal order (switches.size() - 1
    /// entries) with the traversal direction: bit 0 set means the
    /// b->a direction of the link, so (id << 1 | dir) is the
    /// directional resource the flow engine allocates on.
    std::vector<int> directed_links;
};

/**
 * A multi-switch network of one switch design.
 */
class DcnTopology
{
  public:
    /// buildFatTree() or buildDragonfly(), as @p kind says.
    static DcnTopology build(DcnKind kind, std::int64_t hosts, int radix,
                             double line_rate_gbps);

    /**
     * Smallest fat-tree of radix-@p radix switches covering
     * @p hosts hosts at @p line_rate_gbps per host: one switch when
     * hosts <= radix, a 2-tier leaf-spine up to radix^2/2, a 3-tier
     * pod fat-tree up to radix^3/4 (fatal beyond). @p radix must be
     * even and >= 4.
     */
    static DcnTopology buildFatTree(std::int64_t hosts, int radix,
                                    double line_rate_gbps);

    /**
     * Balanced dragonfly of radix-@p radix switches: k/4 hosts per
     * switch, k/2 switches per group, k/4 global trunks per switch,
     * groups sized to cover @p hosts (>= 2 groups; fatal when the
     * global-link budget cannot reach the group count). @p radix
     * must be divisible by 4.
     */
    static DcnTopology buildDragonfly(std::int64_t hosts, int radix,
                                      double line_rate_gbps);

    const std::string &name() const { return name_; }
    DcnKind kind() const { return kind_; }
    /// Switch tiers (1 = single switch; dragonfly reports 1).
    int tiers() const { return tiers_; }
    int switchRadix() const { return radix_; }
    double lineRateGbps() const { return line_rate_gbps_; }

    std::int64_t hostCount() const
    {
        return static_cast<std::int64_t>(host_edge_.size());
    }
    int switchCount() const { return static_cast<int>(alive_.size()); }
    const std::vector<DcnLink> &links() const { return links_; }

    /// Edge switch host @p host hangs off.
    int edgeOf(std::int64_t host) const
    {
        return host_edge_[static_cast<std::size_t>(host)];
    }

    /// Cables in the plant: one per host plus one per trunk.
    std::int64_t cableCount() const;

    /// Switch-level worst-case hop count between hosts (switches
    /// traversed; >= 1). Uses the live distance tables.
    int worstCaseHops() const;

    // --- fault state -------------------------------------------------

    bool switchAlive(int id) const { return alive_[id] != 0; }

    /// Mark a switch (and implicitly every trunk touching it) up or
    /// down. Call rebuildRoutes() afterwards.
    void setSwitchAlive(int id, bool up);
    /// Mark one trunk bundle up or down. Call rebuildRoutes() after.
    void setLinkAlive(int id, bool up);

    /// Recompute the per-destination distance tables over the live
    /// switches and trunks. Idempotent; called by the builders.
    void rebuildRoutes();
    /// True when a kill/restore happened since the last rebuild.
    bool routesDirty() const { return routes_dirty_; }

    // --- routing -----------------------------------------------------

    /**
     * ECMP route for one flow: walk from @p src_host's edge switch
     * toward @p dst_host's, choosing uniformly among the live
     * minimal next hops by a deterministic hash of (@p flow_id, hop).
     * Returns false when no live path exists (dead edge switch or
     * partitioned fabric). @p out is cleared first.
     */
    bool route(std::int64_t src_host, std::int64_t dst_host,
               std::uint64_t flow_id, DcnPath *out) const;

  private:
    DcnTopology() = default;

    int addSwitch(int hosts_attached);
    void addTrunk(int a, int b, int trunks);
    void finalize();

    std::string name_;
    DcnKind kind_ = DcnKind::FatTree;
    int tiers_ = 1;
    int radix_ = 0;
    double line_rate_gbps_ = 0.0;

    std::vector<int> host_edge_;
    std::vector<DcnLink> links_;
    /// Per switch: (neighbor switch, link id), construction order.
    std::vector<std::vector<std::pair<int, int>>> adj_;
    std::vector<char> alive_;
    std::vector<char> link_alive_;

    /// Edge switches (those with hosts) and, per edge switch, the
    /// BFS distance (in trunks) from every switch; -1 = unreachable.
    std::vector<int> edge_switches_;
    std::vector<int> edge_index_; // per switch, -1 when not an edge
    std::vector<std::vector<int>> dist_;
    bool routes_dirty_ = true;
};

} // namespace wss::flow

#endif // WSS_FLOW_DCN_TOPOLOGY_HPP

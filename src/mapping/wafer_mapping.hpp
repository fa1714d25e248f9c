/**
 * @file
 * Logical-to-physical mapping and channel-load accounting — paper
 * Section IV.A.
 *
 * A WaferMapping assigns each logical-topology node to an interior
 * floorplan site. Every logical link bundle is routed over the
 * physical mesh with X-then-Y dimension-order routing, using
 * intermediate chiplets as feedthrough repeaters; external port
 * traffic (for periphery I/O schemes) is split equally four ways and
 * routed straight to the I/O ring. The per-edge accumulated load
 * (Gbps per direction) is the paper's C(M) metric: its maximum over
 * edges is what Algorithm 1 minimizes, and dividing the edge
 * bandwidth capacity by it gives the "available internal I/O
 * bandwidth per port" of Fig. 19.
 *
 * Algorithm 1 tries moves in place: tryExchange() journals every edge
 * write, and a rejected trial is undone by restoring the journal, so
 * it leaves the loads bit-for-bit as they were.
 */

#ifndef WSS_MAPPING_WAFER_MAPPING_HPP
#define WSS_MAPPING_WAFER_MAPPING_HPP

#include <vector>

#include "mapping/floorplan.hpp"
#include "topology/logical_topology.hpp"
#include "util/rng.hpp"

namespace wss::mapping {

/**
 * Algorithm 1's lexicographic objective: C(M) first, then the number
 * of edges within 1% of it (fewer near-maximum edges wins a tie on
 * C(M), which helps escape plateaus).
 */
struct MappingObjective
{
    /// C(M) values closer than this are a tie.
    static constexpr double kTieEps = 1e-9;
    /// Relative band below C(M) in which an edge counts as hot.
    static constexpr double kHotTolerance = 0.01;

    double max_load = 0.0;
    int hot_edges = 0;

    bool
    betterThan(const MappingObjective &other) const
    {
        if (max_load < other.max_load - kTieEps)
            return true;
        if (max_load > other.max_load + kTieEps)
            return false;
        return hot_edges < other.hot_edges;
    }
};

/**
 * One placement of a logical topology onto a wafer floorplan, with
 * incrementally maintained per-edge channel loads.
 */
class WaferMapping
{
  public:
    /**
     * @param topo  the logical fabric (must outlive the mapping)
     * @param fp    the floorplan (must outlive the mapping); needs
     *              at least as many interior sites as topo has nodes
     * @param external_via_mesh  route external-port traffic through
     *              the mesh to the I/O ring (periphery I/O schemes);
     *              requires fp.hasIoRing() when any node has ports
     */
    WaferMapping(const topology::LogicalTopology &topo,
                 const WaferFloorplan &fp, bool external_via_mesh);

    /// Place node i on interior site i (for natively grid-shaped
    /// topologies such as mesh / flattened butterfly).
    void assignIdentity();

    /// Place nodes on a random subset of interior sites.
    void assignRandom(Rng &rng);

    /// Place nodes per explicit site assignment (one entry per node).
    void assign(const std::vector<int> &node_to_site);

    const topology::LogicalTopology &topology() const { return *topo_; }
    const WaferFloorplan &floorplan() const { return *fp_; }
    bool externalViaMesh() const { return external_via_mesh_; }

    /// Site of node @p node.
    int siteOf(int node) const { return node_site_[node]; }
    /// Node on interior site @p site, or -1.
    int nodeAt(int site) const { return site_node_[site]; }

    /// Per-edge load, Gbps per direction, indexed by floorplan edge id.
    const std::vector<double> &edgeLoads() const { return edge_load_; }

    /// C(M): the maximum edge load (Gbps per direction).
    double maxEdgeLoad() const;

    /// C(M) and the count of edges within kHotTolerance of it: one
    /// max scan, then one count scan.
    MappingObjective objective() const;

    /// Sum of loads over all edges (Gbps); the internal I/O power is
    /// proportional to this total provisioned crossing bandwidth.
    double totalCrossingBandwidth() const;

    /// Mean mesh hops per logical link (bundle-bandwidth weighted).
    double averageLinkHops() const;

    /// Swap the placements of two nodes: a committed tryExchange().
    void swapNodes(int node_a, int node_b);

    /// Move @p node to empty interior site @p site: a committed
    /// tryExchange().
    void moveNode(int node, int site);

    /**
     * Trial move: put @p node on interior site @p site and the node
     * there, if any, on @p node's old site. Loads change in place in
     * the order remove node, remove occupant, add node, add occupant,
     * and every edge write is journaled. As soon as an addition lifts
     * an edge above @p load_cap the trial is rolled back and false is
     * returned. Otherwise it stays pending until commit() or
     * rollback().
     */
    bool tryExchange(int node, int site, double load_cap);

    /// Keep the pending trial (drops its journal).
    void commit();

    /// Undo the pending trial: the journaled edge loads are restored
    /// in reverse order and the node and site tables put back.
    void rollback();

    /**
     * Nodes are interchangeable when they share SSC type, external
     * port count, and an identical bundle multiset; swapping such a
     * pair cannot change any load. Key equality identifies this.
     */
    std::size_t equivalenceKey(int node) const
    {
        return equivalence_key_[node];
    }

    /// Recompute all loads from scratch (also a test oracle for the
    /// incremental updates).
    void rebuildLoads();

  private:
    /// An edge's load before a trial wrote it.
    struct UndoEntry
    {
        int edge;
        double load;
    };

    /// Add (+1) or remove (-1) node @p node's load contributions.
    /// Additions stop, returning false, once an edge exceeds @p cap.
    bool applyNode(int node, double sign, double cap);
    /// Add/remove one bundle's route from (r1, c1) to (r2, c2).
    bool applyRoute(int r1, int c1, int r2, int c2, double bandwidth,
                    double cap);
    /// Add/remove a node's external-port traffic at its site.
    bool applyExternal(int site, double bandwidth, double cap);
    /// Add @p bandwidth to the @p hops edges leaving (row, col) in
    /// direction @p dir (0=up 1=down 2=left 3=right), journaled during
    /// a trial; false as soon as an edge ends above @p cap.
    bool applyLeg(int row, int col, int dir, int hops, double bandwidth,
                  double cap);
    /// Make room for @p entries journal entries (cold path).
    void growUndo(std::size_t entries);

    void computeEquivalenceKeys();

    const topology::LogicalTopology *topo_;
    const WaferFloorplan *fp_;
    bool external_via_mesh_;

    std::vector<int> node_site_;
    std::vector<int> site_node_;
    std::vector<double> edge_load_;
    /// Bundles incident to each node (indices into topo links).
    std::vector<std::vector<int>> node_bundles_;
    std::vector<std::size_t> equivalence_key_;

    /// Pending trial: journal of edge writes, and the exchanged
    /// node/occupant with their sites before the trial.
    bool in_trial_ = false;
    std::vector<UndoEntry> undo_;
    std::size_t undo_len_ = 0;
    int trial_node_ = -1;
    int trial_from_ = -1;
    int trial_other_ = -1;
    int trial_site_ = -1;
};

} // namespace wss::mapping

#endif // WSS_MAPPING_WAFER_MAPPING_HPP

#include "mapping/wafer_mapping.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "util/logging.hpp"

namespace wss::mapping {

namespace {
/// Load cap of removals and committed moves: never exceeded.
constexpr double kNoCap = std::numeric_limits<double>::infinity();
} // namespace

WaferMapping::WaferMapping(const topology::LogicalTopology &topo,
                           const WaferFloorplan &fp,
                           bool external_via_mesh)
    : topo_(&topo), fp_(&fp), external_via_mesh_(external_via_mesh)
{
    if (topo.nodeCount() > fp.interiorCount()) {
        fatal("WaferMapping: topology has ", topo.nodeCount(),
              " nodes but the floorplan offers only ",
              fp.interiorCount(), " interior sites");
    }
    if (external_via_mesh_ && !fp.hasIoRing() &&
        topo.totalExternalPorts() > 0) {
        fatal("WaferMapping: external traffic routed via mesh needs an "
              "I/O ring in the floorplan");
    }

    node_site_.assign(topo.nodeCount(), -1);
    site_node_.assign(fp.interiorCount(), -1);
    edge_load_.assign(fp.edgeCount(), 0.0);

    node_bundles_.resize(topo.nodeCount());
    const auto &links = topo.links();
    for (std::size_t i = 0; i < links.size(); ++i) {
        node_bundles_[links[i].a].push_back(static_cast<int>(i));
        node_bundles_[links[i].b].push_back(static_cast<int>(i));
    }
    computeEquivalenceKeys();
}

void
WaferMapping::computeEquivalenceKeys()
{
    equivalence_key_.resize(topo_->nodeCount());
    const auto &links = topo_->links();
    for (int n = 0; n < topo_->nodeCount(); ++n) {
        // Canonical neighbour multiset: sorted (other node, mult).
        std::vector<std::pair<int, int>> nbrs;
        nbrs.reserve(node_bundles_[n].size());
        for (int b : node_bundles_[n]) {
            const auto &link = links[b];
            nbrs.emplace_back(link.a == n ? link.b : link.a,
                              link.multiplicity);
        }
        std::sort(nbrs.begin(), nbrs.end());

        std::size_t h = std::hash<int>{}(topo_->nodes()[n].ssc_type);
        auto mix = [&h](std::size_t v) {
            h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        };
        mix(std::hash<int>{}(topo_->nodes()[n].external_ports));
        for (const auto &[other, mult] : nbrs) {
            mix(std::hash<int>{}(other));
            mix(std::hash<int>{}(mult));
        }
        equivalence_key_[n] = h;
    }
}

void
WaferMapping::assignIdentity()
{
    std::vector<int> sites(topo_->nodeCount());
    std::iota(sites.begin(), sites.end(), 0);
    assign(sites);
}

void
WaferMapping::assignRandom(Rng &rng)
{
    std::vector<int> sites(fp_->interiorCount());
    std::iota(sites.begin(), sites.end(), 0);
    std::shuffle(sites.begin(), sites.end(), rng);
    sites.resize(topo_->nodeCount());
    assign(sites);
}

void
WaferMapping::assign(const std::vector<int> &node_to_site)
{
    if (static_cast<int>(node_to_site.size()) != topo_->nodeCount())
        fatal("WaferMapping::assign: need one site per node");

    std::fill(node_site_.begin(), node_site_.end(), -1);
    std::fill(site_node_.begin(), site_node_.end(), -1);
    std::fill(edge_load_.begin(), edge_load_.end(), 0.0);

    for (int n = 0; n < topo_->nodeCount(); ++n) {
        const int site = node_to_site[n];
        if (site < 0 || site >= fp_->interiorCount())
            fatal("WaferMapping::assign: site ", site, " out of range");
        if (site_node_[site] != -1)
            fatal("WaferMapping::assign: site ", site,
                  " assigned twice");
        node_site_[n] = site;
        site_node_[site] = n;
    }
    rebuildLoads();
}

void
WaferMapping::rebuildLoads()
{
    commit(); // the loads are rebuilt, so no trial can be undone
    std::fill(edge_load_.begin(), edge_load_.end(), 0.0);
    const auto &links = topo_->links();
    for (const auto &link : links) {
        const int sa = node_site_[link.a];
        const int sb = node_site_[link.b];
        if (sa >= 0 && sb >= 0)
            applyRoute(fp_->rowOf(sa), fp_->colOf(sa), fp_->rowOf(sb),
                       fp_->colOf(sb), link.multiplicity * topo_->lineRate(),
                       kNoCap);
    }
    if (external_via_mesh_) {
        for (int n = 0; n < topo_->nodeCount(); ++n) {
            if (node_site_[n] >= 0 &&
                topo_->nodes()[n].external_ports > 0) {
                applyExternal(node_site_[n],
                              topo_->nodes()[n].external_ports *
                                  topo_->lineRate(),
                              kNoCap);
            }
        }
    }
}

double
WaferMapping::maxEdgeLoad() const
{
    double m = 0.0;
    for (double load : edge_load_)
        m = std::max(m, load);
    return m;
}

MappingObjective
WaferMapping::objective() const
{
    const double m = maxEdgeLoad();
    if (m <= 0.0)
        return {m, 0};
    const double hot = m * (1.0 - MappingObjective::kHotTolerance);
    int count = 0;
    for (double load : edge_load_)
        if (load >= hot)
            ++count;
    return {m, count};
}

double
WaferMapping::totalCrossingBandwidth() const
{
    return std::accumulate(edge_load_.begin(), edge_load_.end(), 0.0);
}

double
WaferMapping::averageLinkHops() const
{
    double hops_weighted = 0.0;
    double weight = 0.0;
    for (const auto &link : topo_->links()) {
        const int sa = node_site_[link.a];
        const int sb = node_site_[link.b];
        if (sa < 0 || sb < 0)
            continue;
        const int hops = std::abs(fp_->rowOf(sa) - fp_->rowOf(sb)) +
                         std::abs(fp_->colOf(sa) - fp_->colOf(sb));
        const double bw = link.multiplicity * topo_->lineRate();
        hops_weighted += static_cast<double>(hops) * bw;
        weight += bw;
    }
    return weight > 0.0 ? hops_weighted / weight : 0.0;
}

inline bool
WaferMapping::applyLeg(int row, int col, int dir, int hops,
                       double bandwidth, double cap)
{
    const int dr = dir == 0 ? -1 : dir == 1 ? 1 : 0;
    const int dc = dir == 2 ? -1 : dir == 3 ? 1 : 0;
    double *loads = edge_load_.data();
    if (!in_trial_) {
        for (int k = 0; k < hops; ++k, row += dr, col += dc)
            loads[fp_->edgeToward(row, col, dir)] += bandwidth;
        return true;
    }
    // Room for the whole leg up front, so the loop journals through a
    // plain pointer.
    if (undo_.size() < undo_len_ + hops)
        growUndo(undo_len_ + hops);
    UndoEntry *const first = undo_.data() + undo_len_;
    UndoEntry *out = first;
    bool within = true;
    for (int k = 0; k < hops; ++k, row += dr, col += dc) {
        const int edge = fp_->edgeToward(row, col, dir);
        *out++ = {edge, loads[edge]};
        loads[edge] += bandwidth;
        if (loads[edge] > cap) {
            within = false;
            break;
        }
    }
    undo_len_ += static_cast<std::size_t>(out - first);
    return within;
}

bool
WaferMapping::applyNode(int node, double sign, double cap)
{
    const int site = node_site_[node];
    const int row = fp_->rowOf(site), col = fp_->colOf(site);
    const auto &links = topo_->links();
    for (int b : node_bundles_[node]) {
        const auto &link = links[b];
        const int other = link.a == node ? link.b : link.a;
        const int other_site = node_site_[other];
        if (other_site < 0)
            continue; // other endpoint currently unplaced
        const int other_row = fp_->rowOf(other_site);
        const int other_col = fp_->colOf(other_site);
        // Route in the link's canonical a->b orientation: X-then-Y
        // paths are not symmetric, and removal must retrace exactly
        // the path that was added.
        const double bandwidth =
            sign * link.multiplicity * topo_->lineRate();
        const bool within =
            link.a == node
                ? applyRoute(row, col, other_row, other_col, bandwidth,
                             cap)
                : applyRoute(other_row, other_col, row, col, bandwidth,
                             cap);
        if (!within)
            return false;
    }
    if (external_via_mesh_ && topo_->nodes()[node].external_ports > 0) {
        return applyExternal(site,
                             sign * topo_->nodes()[node].external_ports *
                                 topo_->lineRate(),
                             cap);
    }
    return true;
}

bool
WaferMapping::applyRoute(int r1, int c1, int r2, int c2, double bandwidth,
                         double cap)
{
    // X-then-Y dimension-order route through feedthrough chiplets.
    return applyLeg(r1, c1, c2 > c1 ? 3 : 2, std::abs(c2 - c1), bandwidth,
                    cap) &&
           applyLeg(r1, c2, r2 > r1 ? 1 : 0, std::abs(r2 - r1), bandwidth,
                    cap);
}

bool
WaferMapping::applyExternal(int site, double bandwidth, double cap)
{
    // Port traffic fans out equally to the four I/O ring sides,
    // straight-line routed; the final edge reaches the ring site.
    const int r = fp_->rowOf(site), c = fp_->colOf(site);
    const double quarter = bandwidth / 4.0;
    return applyLeg(r, c, 0, r + 1, quarter, cap) &&
           applyLeg(r, c, 1, fp_->rows() - r, quarter, cap) &&
           applyLeg(r, c, 2, c + 1, quarter, cap) &&
           applyLeg(r, c, 3, fp_->cols() - c, quarter, cap);
}

bool
WaferMapping::tryExchange(int node, int site, double load_cap)
{
    commit(); // a trial still pending is kept
    const int from = node_site_[node];
    const int other = site_node_[site];
    in_trial_ = true;
    trial_node_ = node;
    trial_from_ = from;
    trial_other_ = other;
    trial_site_ = site;
    if (other == node)
        return true; // already there: nothing moves

    // Removals only lower loads, so only additions are capped: once
    // an addition overshoots, the final C(M) is above the cap too.
    applyNode(node, -1.0, kNoCap);
    node_site_[node] = -1; // so the occupant's removal skips shared bundles
    if (other >= 0) {
        applyNode(other, -1.0, kNoCap);
        node_site_[other] = -1; // so node's addition skips them too
    }
    node_site_[node] = site;
    site_node_[site] = node;
    site_node_[from] = other;
    bool within = applyNode(node, +1.0, load_cap);
    if (within && other >= 0) {
        node_site_[other] = from;
        within = applyNode(other, +1.0, load_cap);
    }
    if (!within)
        rollback();
    return within;
}

void
WaferMapping::commit()
{
    in_trial_ = false;
    undo_len_ = 0;
}

void
WaferMapping::rollback()
{
    if (!in_trial_)
        return;
    for (std::size_t i = undo_len_; i-- > 0;)
        edge_load_[undo_[i].edge] = undo_[i].load;
    node_site_[trial_node_] = trial_from_;
    site_node_[trial_from_] = trial_node_;
    site_node_[trial_site_] = trial_other_;
    if (trial_other_ >= 0)
        node_site_[trial_other_] = trial_site_;
    commit();
}

void
WaferMapping::growUndo(std::size_t entries)
{
    undo_.resize(std::max(2 * undo_.size(), entries));
}

void
WaferMapping::swapNodes(int node_a, int node_b)
{
    tryExchange(node_a, node_site_[node_b], kNoCap);
    commit();
}

void
WaferMapping::moveNode(int node, int site)
{
    if (site_node_[site] != -1)
        fatal("WaferMapping::moveNode: target site ", site,
              " is occupied");
    tryExchange(node, site, kNoCap);
    commit();
}

} // namespace wss::mapping

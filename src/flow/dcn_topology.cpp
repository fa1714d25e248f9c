#include "flow/dcn_topology.hpp"

#include <algorithm>
#include <deque>
#include <string>

#include "util/logging.hpp"

namespace wss::flow {

namespace {

/// splitmix64-style mix; the ECMP hash must be stable across
/// platforms, so no std::hash.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

int
DcnTopology::addSwitch(int hosts_attached)
{
    const int id = static_cast<int>(alive_.size());
    alive_.push_back(1);
    adj_.emplace_back();
    for (int h = 0; h < hosts_attached; ++h)
        host_edge_.push_back(id);
    return id;
}

void
DcnTopology::addTrunk(int a, int b, int trunks)
{
    const int id = static_cast<int>(links_.size());
    links_.push_back({a, b, trunks, trunks * line_rate_gbps_});
    link_alive_.push_back(1);
    adj_[static_cast<std::size_t>(a)].push_back({b, id});
    adj_[static_cast<std::size_t>(b)].push_back({a, id});
}

void
DcnTopology::finalize()
{
    edge_index_.assign(alive_.size(), -1);
    for (int edge : host_edge_) {
        if (edge_index_[static_cast<std::size_t>(edge)] < 0) {
            edge_index_[static_cast<std::size_t>(edge)] =
                static_cast<int>(edge_switches_.size());
            edge_switches_.push_back(edge);
        }
    }
    rebuildRoutes();
}

DcnTopology
DcnTopology::build(DcnKind kind, std::int64_t hosts, int radix,
                   double line_rate_gbps)
{
    return kind == DcnKind::FatTree
               ? buildFatTree(hosts, radix, line_rate_gbps)
               : buildDragonfly(hosts, radix, line_rate_gbps);
}

DcnTopology
DcnTopology::buildFatTree(std::int64_t hosts, int radix,
                          double line_rate_gbps)
{
    if (radix < 4 || radix % 2 != 0)
        fatal("DcnTopology: fat-tree switch radix must be even and "
              ">= 4, got ", radix);
    if (hosts < 1)
        fatal("DcnTopology: need at least one host, got ", hosts);
    if (line_rate_gbps <= 0.0)
        fatal("DcnTopology: line rate must be positive");

    DcnTopology topo;
    topo.kind_ = DcnKind::FatTree;
    topo.radix_ = radix;
    topo.line_rate_gbps_ = line_rate_gbps;

    const std::int64_t k = radix;
    const std::int64_t half = k / 2;

    if (hosts <= k) {
        // One switch covers everything — the waferscale endgame.
        topo.tiers_ = 1;
        topo.addSwitch(static_cast<int>(hosts));
    } else if (hosts <= k * k / 2) {
        // 2-tier leaf-spine: leaves give half their ports to hosts,
        // half to spines; spines sized so no spine exceeds k ports.
        topo.tiers_ = 2;
        const std::int64_t leaves = ceilDiv(hosts, half);
        const std::int64_t spines = ceilDiv(leaves, 2);
        std::int64_t remaining = hosts;
        std::vector<int> leaf_ids;
        for (std::int64_t l = 0; l < leaves; ++l) {
            const std::int64_t attach = std::min(remaining, half);
            leaf_ids.push_back(
                topo.addSwitch(static_cast<int>(attach)));
            remaining -= attach;
        }
        std::vector<int> spine_ids;
        for (std::int64_t s = 0; s < spines; ++s)
            spine_ids.push_back(topo.addSwitch(0));
        // Each leaf spreads its `half` uplinks across every spine.
        const std::int64_t base = half / spines;
        const std::int64_t rem = half % spines;
        for (int leaf : leaf_ids)
            for (std::int64_t s = 0; s < spines; ++s) {
                const std::int64_t trunks = base + (s < rem ? 1 : 0);
                if (trunks > 0)
                    topo.addTrunk(leaf,
                                  spine_ids[static_cast<std::size_t>(s)],
                                  static_cast<int>(trunks));
            }
    } else if (hosts <= k * k * k / 4) {
        // 3-tier pod fat-tree: up to k pods of k/2 leaves + k/2
        // aggs, (k/2)^2 cores; agg j of every pod reaches core
        // column j.
        topo.tiers_ = 3;
        const std::int64_t pod_hosts = half * half;
        const std::int64_t pods = ceilDiv(hosts, pod_hosts);
        std::vector<int> core_ids;
        for (std::int64_t c = 0; c < half * half; ++c)
            core_ids.push_back(topo.addSwitch(0));
        std::int64_t remaining = hosts;
        for (std::int64_t p = 0; p < pods; ++p) {
            const std::int64_t pod_fill = std::min(remaining, pod_hosts);
            const std::int64_t pod_leaves = ceilDiv(pod_fill, half);
            std::vector<int> agg_ids;
            for (std::int64_t j = 0; j < half; ++j)
                agg_ids.push_back(topo.addSwitch(0));
            std::int64_t pod_left = pod_fill;
            for (std::int64_t l = 0; l < pod_leaves; ++l) {
                const std::int64_t attach = std::min(pod_left, half);
                const int leaf =
                    topo.addSwitch(static_cast<int>(attach));
                pod_left -= attach;
                for (int agg : agg_ids)
                    topo.addTrunk(leaf, agg, 1);
            }
            for (std::int64_t j = 0; j < half; ++j)
                for (std::int64_t c = 0; c < half; ++c)
                    topo.addTrunk(
                        agg_ids[static_cast<std::size_t>(j)],
                        core_ids[static_cast<std::size_t>(j * half + c)],
                        1);
            remaining -= pod_fill;
        }
    } else {
        fatal("DcnTopology: ", hosts, " hosts exceed a radix-", radix,
              " 3-tier fat-tree's capacity of ", k * k * k / 4);
    }

    topo.name_ = "fat-tree-" + std::to_string(topo.tiers_) + "t-k" +
                 std::to_string(radix);
    topo.finalize();
    return topo;
}

DcnTopology
DcnTopology::buildDragonfly(std::int64_t hosts, int radix,
                            double line_rate_gbps)
{
    if (radix < 4 || radix % 4 != 0)
        fatal("DcnTopology: dragonfly switch radix must be a "
              "positive multiple of 4, got ", radix);
    if (hosts < 1)
        fatal("DcnTopology: need at least one host, got ", hosts);
    if (line_rate_gbps <= 0.0)
        fatal("DcnTopology: line rate must be positive");

    DcnTopology topo;
    topo.kind_ = DcnKind::Dragonfly;
    topo.tiers_ = 1;
    topo.radix_ = radix;
    topo.line_rate_gbps_ = line_rate_gbps;

    // Canonical balanced split: p hosts, a-1 local and h global
    // trunks per switch.
    const std::int64_t p = radix / 4;
    const std::int64_t a = radix / 2;
    const std::int64_t h = radix / 4;
    const std::int64_t group_hosts = p * a;
    const std::int64_t groups = std::max<std::int64_t>(
        2, ceilDiv(hosts, group_hosts));
    const std::int64_t budget = a * h; // global ports per group
    if (groups - 1 > budget)
        fatal("DcnTopology: ", groups, " dragonfly groups exceed the "
              "global-link budget of radix-", radix,
              " switches (max ", budget + 1, " groups)");
    const std::int64_t pair_width = budget / (groups - 1);

    std::int64_t remaining = hosts;
    for (std::int64_t g = 0; g < groups; ++g)
        for (std::int64_t s = 0; s < a; ++s) {
            const std::int64_t attach = std::min(remaining, p);
            topo.addSwitch(static_cast<int>(attach));
            remaining -= attach;
        }

    const auto switch_of = [a](std::int64_t group, std::int64_t local) {
        return static_cast<int>(group * a + local);
    };
    // Local all-to-all inside each group.
    for (std::int64_t g = 0; g < groups; ++g)
        for (std::int64_t i = 0; i < a; ++i)
            for (std::int64_t j = i + 1; j < a; ++j)
                topo.addTrunk(switch_of(g, i), switch_of(g, j), 1);
    // Global trunks: every group pair gets pair_width links, each
    // consuming the next free global port of its group.
    std::vector<std::int64_t> used(static_cast<std::size_t>(groups), 0);
    for (std::int64_t i = 0; i < groups; ++i)
        for (std::int64_t j = i + 1; j < groups; ++j)
            for (std::int64_t c = 0; c < pair_width; ++c) {
                const std::int64_t pa =
                    used[static_cast<std::size_t>(i)]++;
                const std::int64_t pb =
                    used[static_cast<std::size_t>(j)]++;
                topo.addTrunk(switch_of(i, pa / h),
                              switch_of(j, pb / h), 1);
            }

    topo.name_ = "dragonfly-k" + std::to_string(radix) + "-g" +
                 std::to_string(groups);
    topo.finalize();
    return topo;
}

std::int64_t
DcnTopology::cableCount() const
{
    std::int64_t cables = hostCount();
    for (const auto &link : links_)
        cables += link.trunks;
    return cables;
}

void
DcnTopology::setSwitchAlive(int id, bool up)
{
    alive_[static_cast<std::size_t>(id)] = up ? 1 : 0;
    routes_dirty_ = true;
}

void
DcnTopology::setLinkAlive(int id, bool up)
{
    link_alive_[static_cast<std::size_t>(id)] = up ? 1 : 0;
    routes_dirty_ = true;
}

void
DcnTopology::rebuildRoutes()
{
    const std::size_t n = alive_.size();
    dist_.assign(edge_switches_.size(), {});
    std::deque<int> frontier;
    for (std::size_t e = 0; e < edge_switches_.size(); ++e) {
        auto &dist = dist_[e];
        dist.assign(n, -1);
        const int root = edge_switches_[e];
        if (!alive_[static_cast<std::size_t>(root)])
            continue;
        dist[static_cast<std::size_t>(root)] = 0;
        frontier.clear();
        frontier.push_back(root);
        while (!frontier.empty()) {
            const int cur = frontier.front();
            frontier.pop_front();
            const int d = dist[static_cast<std::size_t>(cur)];
            for (const auto &[nbr, link] :
                 adj_[static_cast<std::size_t>(cur)]) {
                if (!link_alive_[static_cast<std::size_t>(link)] ||
                    !alive_[static_cast<std::size_t>(nbr)])
                    continue;
                if (dist[static_cast<std::size_t>(nbr)] >= 0)
                    continue;
                dist[static_cast<std::size_t>(nbr)] = d + 1;
                frontier.push_back(nbr);
            }
        }
    }
    routes_dirty_ = false;
}

int
DcnTopology::worstCaseHops() const
{
    if (routes_dirty_)
        panic("DcnTopology::worstCaseHops: routes are stale; call "
              "rebuildRoutes() after fault changes");
    int worst = 0;
    for (std::size_t e = 0; e < edge_switches_.size(); ++e) {
        const auto &dist = dist_[e];
        for (int other : edge_switches_) {
            const int d = dist[static_cast<std::size_t>(other)];
            worst = std::max(worst, d);
        }
    }
    return worst + 1; // trunk hops -> switches traversed
}

bool
DcnTopology::route(std::int64_t src_host, std::int64_t dst_host,
                   std::uint64_t flow_id, DcnPath *out) const
{
    if (routes_dirty_)
        panic("DcnTopology::route: routes are stale; call "
              "rebuildRoutes() after fault changes");
    out->switches.clear();
    out->directed_links.clear();

    const int src_edge = edgeOf(src_host);
    const int dst_edge = edgeOf(dst_host);
    if (!switchAlive(src_edge) || !switchAlive(dst_edge))
        return false;

    const auto &dist =
        dist_[static_cast<std::size_t>(edge_index_[static_cast<std::size_t>(
            dst_edge)])];
    if (dist[static_cast<std::size_t>(src_edge)] < 0)
        return false;

    int cur = src_edge;
    out->switches.push_back(cur);
    std::uint64_t state = mix64(flow_id ^ 0xd1b54a32d192ed03ull);
    while (cur != dst_edge) {
        const int d = dist[static_cast<std::size_t>(cur)];
        // Gather the live minimal next hops in adjacency order so
        // the candidate set — and thus the hash pick — is stable.
        int candidates = 0;
        for (const auto &[nbr, link] :
             adj_[static_cast<std::size_t>(cur)])
            if (link_alive_[static_cast<std::size_t>(link)] &&
                alive_[static_cast<std::size_t>(nbr)] &&
                dist[static_cast<std::size_t>(nbr)] == d - 1)
                ++candidates;
        if (candidates == 0)
            return false; // stale-free tables make this unreachable
        state = mix64(state + static_cast<std::uint64_t>(cur));
        int pick = static_cast<int>(
            state % static_cast<std::uint64_t>(candidates));
        for (const auto &[nbr, link] :
             adj_[static_cast<std::size_t>(cur)]) {
            if (!(link_alive_[static_cast<std::size_t>(link)] &&
                  alive_[static_cast<std::size_t>(nbr)] &&
                  dist[static_cast<std::size_t>(nbr)] == d - 1))
                continue;
            if (pick-- == 0) {
                const int dir = links_[static_cast<std::size_t>(link)]
                                        .a == cur
                                    ? 0
                                    : 1;
                out->directed_links.push_back(link << 1 | dir);
                out->switches.push_back(nbr);
                cur = nbr;
                break;
            }
        }
    }
    return true;
}

} // namespace wss::flow

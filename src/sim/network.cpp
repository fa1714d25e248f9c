#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <queue>

#include "util/logging.hpp"

namespace wss::sim {

Network::Network(const topology::LogicalTopology &topo,
                 const NetworkSpec &spec, std::uint64_t seed)
    : spec_(spec)
{
    const std::string issue = topo.validate();
    if (!issue.empty())
        fatal("Network: invalid topology: ", issue);
    if (!spec.link_latency.empty() &&
        spec.link_latency.size() != topo.links().size())
        fatal("Network: link_latency override must cover every link");

    const int n = topo.nodeCount();
    terminal_count_ = static_cast<int>(topo.totalExternalPorts());

    // Port budget per router: terminals first, then one port per unit
    // of link multiplicity.
    std::vector<int> link_ports(n, 0);
    for (const auto &link : topo.links()) {
        link_ports[link.a] += link.multiplicity;
        link_ports[link.b] += link.multiplicity;
    }

    // Size the flit arena to the fabric's total input-buffer
    // capacity before any router exists: credit flow control bounds
    // live buffered flits to exactly this.
    std::size_t pool_slots = 0;
    for (int r = 0; r < n; ++r)
        pool_slots += static_cast<std::size_t>(
                          topo.nodes()[r].external_ports +
                          link_ports[r]) *
                      static_cast<std::size_t>(spec.buffer_per_port);
    pool_.reserve(pool_slots);

    // Wake wheels must span the longest channel in the fabric (wakes
    // are scheduled for delivery cycles, at most one flit lead +
    // latency ahead — router-fed channels carry the VA/SA/ST
    // pipeline depth as extra flit delay).
    int max_latency = spec.terminal_link_latency;
    if (spec.link_latency.empty()) {
        if (!topo.links().empty())
            max_latency =
                std::max(max_latency, spec.internal_link_latency);
    } else {
        for (const int l : spec.link_latency)
            max_latency = std::max(max_latency, l);
    }
    max_latency += spec.pipeline_delay;
    sched_.attach(n, max_latency);
    eject_wheel_.resize(std::bit_ceil(
        static_cast<std::size_t>(spec.terminal_link_latency) +
        static_cast<std::size_t>(spec.pipeline_delay) + 2));
    eject_wheel_mask_ =
        static_cast<std::uint32_t>(eject_wheel_.size() - 1);
    credit_wheel_.resize(eject_wheel_.size());
    credit_wheel_mask_ = eject_wheel_mask_;

    Rng seeder(seed);
    std::vector<int> next_port(n);
    for (int r = 0; r < n; ++r) {
        RouterConfig cfg;
        cfg.terminal_ports = topo.nodes()[r].external_ports;
        cfg.ports = cfg.terminal_ports + link_ports[r];
        cfg.vcs = spec.vcs;
        cfg.buffer_per_port = spec.buffer_per_port;
        cfg.rc_delay_ingress = spec.rc_delay_ingress;
        cfg.rc_delay_transit = spec.rc_delay_transit;
        cfg.pipeline_delay = spec.pipeline_delay;
        cfg.adaptive_routing = spec.adaptive_routing;
        routers_.push_back(
            std::make_unique<Router>(r, cfg, seeder(), &pool_));
        routers_.back()->bindScheduler(&sched_);
        next_port[r] = cfg.terminal_ports;
    }

    // Terminals: ids assigned node by node, port by port. The eject
    // mask is sized first — channel sinks keep raw pointers into it.
    terminal_router_.resize(terminal_count_);
    terminals_.resize(terminal_count_);
    eject_mask_.assign(
        (static_cast<std::size_t>(terminal_count_) + 63) / 64, 0);
    {
        int t = 0;
        for (int r = 0; r < n; ++r) {
            for (int p = 0; p < topo.nodes()[r].external_ports; ++p) {
                terminal_router_[t] = r;
                auto &ep = terminals_[t];
                // The terminal landing buffer is sized to cover the
                // credit round trip so ejection is never the
                // artificial bottleneck.
                const int landing = 2 * spec.terminal_link_latency + 8;
                ep.to_router = std::make_unique<ChannelPair>(
                    spec.terminal_link_latency, spec.buffer_per_port);
                ep.from_router = std::make_unique<ChannelPair>(
                    spec.terminal_link_latency, landing,
                    spec.pipeline_delay);
                ep.credits = spec.buffer_per_port;
                routers_[r]->connectInput(p, ep.to_router.get());
                routers_[r]->connectOutput(p, ep.from_router.get(),
                                           landing);
                ep.to_router->flit_sink = routers_[r].get();
                ep.to_router->flit_sink_port = p;
                ep.to_router->credit_wheel = &credit_wheel_;
                ep.to_router->credit_terminal = t;
                ep.to_router->credit_wheel_mask = credit_wheel_mask_;
                ep.from_router->credit_sink = routers_[r].get();
                ep.from_router->credit_sink_port = p;
                ep.from_router->eject_wheel = &eject_wheel_;
                ep.from_router->eject_terminal = t;
                ep.from_router->eject_wheel_mask = eject_wheel_mask_;
                ++t;
            }
        }
    }

    // Inter-router channels: one bidirectional pair per unit of
    // multiplicity. Track which ports lead to which neighbor for the
    // routing tables.
    std::vector<std::vector<PortLink>> adjacency(
        static_cast<std::size_t>(n));
    const auto &links = topo.links();
    for (std::size_t li = 0; li < links.size(); ++li) {
        const auto &link = links[li];
        const int latency = spec.link_latency.empty()
                                ? spec.internal_link_latency
                                : spec.link_latency[li];
        for (int m = 0; m < link.multiplicity; ++m) {
            auto ab = std::make_unique<ChannelPair>(
                latency, spec.buffer_per_port, spec.pipeline_delay);
            auto ba = std::make_unique<ChannelPair>(
                latency, spec.buffer_per_port, spec.pipeline_delay);
            const int pa = next_port[link.a]++;
            const int pb = next_port[link.b]++;
            routers_[link.a]->connectOutput(pa, ab.get(),
                                            spec.buffer_per_port);
            routers_[link.b]->connectInput(pb, ab.get());
            routers_[link.b]->connectOutput(pb, ba.get(),
                                            spec.buffer_per_port);
            routers_[link.a]->connectInput(pa, ba.get());
            ab->flit_sink = routers_[link.b].get();
            ab->flit_sink_port = pb;
            ab->credit_sink = routers_[link.a].get();
            ab->credit_sink_port = pa;
            ba->flit_sink = routers_[link.a].get();
            ba->flit_sink_port = pa;
            ba->credit_sink = routers_[link.b].get();
            ba->credit_sink_port = pb;
            adjacency[link.a].push_back({pa, link.b});
            adjacency[link.b].push_back({pb, link.a});
            link_channels_.push_back(std::move(ab));
            link_channels_.push_back(std::move(ba));
        }
        link_channel_count_.push_back(2 * link.multiplicity);
    }

    // Terminal -> local output port maps. Terminal ids were assigned
    // in router order, so a running counter per router recovers the
    // local port index.
    term_port_.assign(static_cast<std::size_t>(n),
                      std::vector<std::int16_t>(terminal_count_, -1));
    {
        std::vector<int> local(n, 0);
        for (int t = 0; t < terminal_count_; ++t) {
            const int r = terminal_router_[t];
            term_port_[r][t] = static_cast<std::int16_t>(local[r]++);
        }
    }

    // Every wheel slot gets its structural per-cycle bound up front
    // (each terminal channel delivers at most one flit and one credit
    // per cycle), so steady-state pushes never allocate.
    for (auto &router : routers_)
        router->finalizeWiring();
    for (auto &slot : eject_wheel_)
        slot.reserve(static_cast<std::size_t>(terminal_count_));
    for (auto &slot : credit_wheel_)
        slot.reserve(static_cast<std::size_t>(terminal_count_));

    buildRoutingTables(adjacency);
}

void
Network::buildRoutingTables(
    const std::vector<std::vector<PortLink>> &adjacency)
{
    const int n = routerCount();

    // BFS distances from every router.
    std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
    for (int src = 0; src < n; ++src) {
        auto &d = dist[src];
        std::queue<int> queue;
        d[src] = 0;
        queue.push(src);
        while (!queue.empty()) {
            const int u = queue.front();
            queue.pop();
            for (const auto &pl : adjacency[u]) {
                if (d[pl.neighbor] < 0) {
                    d[pl.neighbor] = d[u] + 1;
                    queue.push(pl.neighbor);
                }
            }
        }
    }

    // Per (router, destination): the output ports stepping onto a
    // minimal path. Every destination must keep a non-empty ECMP set
    // — an empty one would silently blackhole packets at route time,
    // so both failure shapes are fatal here.
    for (int r = 0; r < n; ++r) {
        std::vector<std::int32_t> offsets(n + 1, 0);
        std::vector<std::int16_t> ports;
        for (int d = 0; d < n; ++d) {
            offsets[d] = static_cast<std::int32_t>(ports.size());
            if (d == r)
                continue;
            if (dist[r][d] < 0)
                fatal("Network: routers ", r, " and ", d,
                      " are disconnected");
            const auto before = ports.size();
            for (const auto &pl : adjacency[r])
                if (dist[pl.neighbor][d] == dist[r][d] - 1)
                    ports.push_back(static_cast<std::int16_t>(pl.port));
            if (ports.size() == before)
                fatal("Network: router ", r, " has no minimal-",
                      "path port toward router ", d,
                      " (empty ECMP set)");
        }
        offsets[n] = static_cast<std::int32_t>(ports.size());
        routers_[r]->installRoutes(&terminal_router_, std::move(offsets),
                                   std::move(ports), term_port_[r]);
    }
}

bool
Network::tryInject(int t, Cycle now, const Flit &flit)
{
    auto &ep = terminals_[t];
    // Returned credits arrived through the credit wheel during
    // step(), so the count is already current.
    // The terminal link carries one flit per cycle.
    if (ep.credits <= 0 || ep.last_inject == now)
        return false;
    --ep.credits;
    ep.last_inject = now;
    channelPushFlit(*ep.to_router, now, flit);
    return true;
}

std::optional<Flit>
Network::eject(int t, Cycle now)
{
    auto &ep = terminals_[t];
    auto flit = ep.from_router->flits.pop(now);
    if (flit) {
        // Hand the landing-buffer slot straight back, and clear the
        // pending bit this delivery set (the next arrival re-sets it
        // through the wheel).
        channelPushCredit(*ep.from_router, now);
        eject_mask_[static_cast<std::size_t>(t) >> 6] &=
            ~(std::uint64_t{1} << (t & 63));
    }
    return flit;
}

void
Network::step(Cycle now)
{
    // Only routers with pending work step; a router re-arms itself
    // by returning true (still busy) and is re-woken at the delivery
    // cycle of any channel push that targets it.
    for (const std::int32_t id : sched_.beginCycle(now))
        if (routers_[static_cast<std::size_t>(id)]->step(now))
            sched_.wake(id);

    // Materialize the ejection-pending bits for cycle now + 1: every
    // terminal-bound flit arriving then was pushed during some
    // step() at or before now, so its wheel entry already exists.
    auto &arrivals = eject_wheel_[static_cast<std::size_t>(now + 1) &
                                  eject_wheel_mask_];
    for (const std::int32_t t : arrivals)
        eject_mask_[static_cast<std::size_t>(t) >> 6] |=
            std::uint64_t{1} << (t & 63);
    arrivals.clear();

    // Same for terminal injection credits arriving in cycle now + 1:
    // one wheel entry = one credit, counted straight into the
    // terminal — visible to inject(now + 1) exactly when the lazy
    // CreditLine drain would have surfaced it.
    auto &credits = credit_wheel_[static_cast<std::size_t>(now + 1) &
                                  credit_wheel_mask_];
    for (const std::int32_t t : credits)
        ++terminals_[static_cast<std::size_t>(t)].credits;
    credits.clear();
}

std::vector<std::uint64_t>
Network::linkFlitsForwarded() const
{
    std::vector<std::uint64_t> flits(link_channel_count_.size(), 0);
    std::size_t channel = 0;
    for (std::size_t link = 0; link < link_channel_count_.size();
         ++link)
        for (int c = 0; c < link_channel_count_[link]; ++c)
            flits[link] += link_channels_[channel++]->flits.totalPushed();
    return flits;
}

std::vector<double>
Network::linkUtilization(Cycle elapsed) const
{
    std::vector<double> util(link_channel_count_.size(), 0.0);
    if (elapsed <= 0)
        return util;
    const std::vector<std::uint64_t> flits = linkFlitsForwarded();
    for (std::size_t link = 0; link < util.size(); ++link)
        util[link] = static_cast<double>(flits[link]) /
                     (static_cast<double>(elapsed) *
                      link_channel_count_[link]);
    return util;
}

void
Network::instrument(obs::MetricsRegistry &registry)
{
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        const std::string prefix = "r" + std::to_string(r) + ".";
        RouterInstruments instr;
        instr.vc_alloc_failures =
            registry.counter(prefix + "vc_alloc_failures");
        instr.sa_conflicts = registry.counter(prefix + "sa_conflicts");
        instr.credit_stalls =
            registry.counter(prefix + "credit_stalls");
        instr.flits_routed = registry.counter(prefix + "flits_routed");
        routers_[r]->setInstruments(instr);
    }
}

std::int64_t
Network::flitsInFlight() const
{
    std::int64_t total = 0;
    for (const auto &router : routers_)
        total += router->bufferedFlits();
    for (const auto &ch : link_channels_)
        total += static_cast<std::int64_t>(ch->flits.inFlight());
    for (const auto &ep : terminals_) {
        total += static_cast<std::int64_t>(ep.to_router->flits.inFlight());
        total +=
            static_cast<std::int64_t>(ep.from_router->flits.inFlight());
    }
    return total;
}

} // namespace wss::sim

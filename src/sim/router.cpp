#include "sim/router.hpp"

#include <bit>

#include "util/logging.hpp"

namespace wss::sim {

namespace {

/// Lowest set bit as a port index within mask word @p w.
inline int
portOf(std::size_t w, std::uint64_t bit_scan)
{
    return static_cast<int>(w) * 64 + std::countr_zero(bit_scan);
}

} // namespace

Router::Router(int id, const RouterConfig &cfg, std::uint64_t seed,
               FlitPool *pool)
    : id_(id), cfg_(cfg), rng_(seed), pool_(pool)
{
    if (cfg.ports < 1 || cfg.terminal_ports < 0 ||
        cfg.terminal_ports > cfg.ports)
        fatal("Router: bad port configuration");
    if (cfg.vcs < 1)
        fatal("Router: need at least one VC");
    if (cfg.vcs > 32767)
        fatal("Router: VC count exceeds the 16-bit id space");
    if (cfg.buffer_per_port < 1)
        fatal("Router: need at least one buffer slot per port");
    if (cfg.pipeline_delay < 1)
        fatal("Router: pipeline delay must be >= 1 cycle");
    if (cfg.rc_delay_ingress < 0 || cfg.rc_delay_transit < 0)
        fatal("Router: RC delays must be non-negative");
    if (!pool)
        fatal("Router: needs a flit pool");

    inputs_.resize(cfg.ports);
    for (auto &in : inputs_) {
        in.vcs.resize(cfg.vcs);
        in.occupied.reserve(cfg.vcs);
        in.pending.reserve(cfg.vcs);
    }
    outputs_.resize(cfg.ports);
    for (auto &out : outputs_)
        out.vc_owner.assign(cfg.vcs, -1);
    requests_.resize(cfg.ports);
    for (auto &reqs : requests_)
        reqs.reserve(static_cast<std::size_t>(cfg.ports));
    touched_outputs_.reserve(static_cast<std::size_t>(cfg.ports));

    const std::size_t words =
        (static_cast<std::size_t>(cfg.ports) + 63) / 64;
    in_flit_mask_.assign(words, 0);
    busy_mask_.assign(words, 0);
}

void
Router::connectInput(int port, ChannelPair *channel)
{
    inputs_.at(port).channel = channel;
    if (channel)
        growWakeWheel(channel->flits.latency());
}

void
Router::connectOutput(int port, ChannelPair *channel,
                      int downstream_buffer)
{
    auto &out = outputs_.at(port);
    out.channel = channel;
    out.credits = downstream_buffer;
    if (channel)
        growWakeWheel(channel->credits.latency());
}

void
Router::installRoutes(
    const std::vector<std::int32_t> *dst_router_of_terminal,
    std::vector<std::int32_t> candidate_offsets,
    std::vector<std::int16_t> candidate_ports,
    std::vector<std::int16_t> terminal_port_of)
{
    dst_router_of_terminal_ = dst_router_of_terminal;
    route_offsets_ = std::move(candidate_offsets);
    route_ports_ = std::move(candidate_ports);
    terminal_port_of_ = std::move(terminal_port_of);
}

std::int16_t
Router::route(std::int32_t dst_terminal, std::int32_t dst_router)
{
    if (dst_router == id_) {
        const std::int16_t port = terminal_port_of_[dst_terminal];
        if (port < 0)
            panic("Router ", id_, ": destination terminal ",
                  dst_terminal, " not attached here");
        return port;
    }
    const std::int32_t begin = route_offsets_[dst_router];
    const std::int32_t count = route_offsets_[dst_router + 1] - begin;
    if (count == 0)
        panic("Router ", id_, ": no route toward router ", dst_router);
    if (count == 1)
        return route_ports_[begin];
    if (!cfg_.adaptive_routing) {
        return route_ports_[begin + static_cast<std::int32_t>(
                                        rng_.nextBelow(count))];
    }
    // Adaptive: power-of-two-choices on downstream credits. Sampling
    // two random candidates and keeping the less congested one gets
    // most of the balancing benefit while avoiding the herding that
    // a fully greedy pick suffers (every ingress chasing the same
    // momentarily-emptiest spine). The two candidates are forced
    // distinct (second draw over count - 1 slots, skipping the
    // first): comparing a candidate against itself would silently
    // degrade the choice to plain random. Still exactly two
    // nextBelow() draws per routed head.
    const auto a_idx =
        static_cast<std::int32_t>(rng_.nextBelow(count));
    auto b_idx = static_cast<std::int32_t>(
        rng_.nextBelow(static_cast<std::uint64_t>(count) - 1));
    if (b_idx >= a_idx)
        ++b_idx;
    const std::int16_t a = route_ports_[begin + a_idx];
    const std::int16_t b = route_ports_[begin + b_idx];
    return outputs_[a].credits >= outputs_[b].credits ? a : b;
}

void
Router::ingest(Cycle now)
{
    // Each set bit marks exactly one arrival in exactly this cycle
    // (the wake wheel materialized it at the top of step), so every
    // pop succeeds and the masks are consumed whole.
    for (std::size_t w = 0; w < in_flit_mask_.size(); ++w) {
        std::uint64_t word = in_flit_mask_[w];
        in_flit_mask_[w] = 0;
        while (word) {
            const int port = portOf(w, word);
            const std::uint64_t bit = word & (~word + 1);
            word &= word - 1;
            auto &in = inputs_[port];
            if (const Flit *flit = in.channel->flits.peek(now)) {
                auto &vc = in.vcs[flit->vc];
                const FlitPool::Index slot = pool_->alloc(*flit);
                if (vc.q_head == FlitPool::kNil) {
                    vc.q_head = vc.q_tail = slot;
                    vc.occ_pos =
                        static_cast<std::int16_t>(in.occupied.size());
                    in.occupied.push_back(flit->vc);
                    busy_mask_[w] |= bit;
                    // Body continuations re-occupy an Active VC; any
                    // other state needs the RC/VA state machines.
                    if (vc.state != VcState::Active)
                        in.pending.push_back(flit->vc);
                } else {
                    pool_->setNext(vc.q_tail, slot);
                    vc.q_tail = slot;
                }
                ++in.occupancy;
                ++buffered_;
                if (in.occupancy > cfg_.buffer_per_port)
                    panic("Router ", id_, " port ", port,
                          ": shared buffer overflow (credit protocol "
                          "bug)");
                in.channel->flits.popFront();
            }
        }
    }
}

void
Router::runInputStages(Cycle now)
{
    // Ascending port order is load-bearing: VA claims on a shared
    // output's round-robin VC cursor depend on it.
    for (std::size_t w = 0; w < busy_mask_.size(); ++w) {
        std::uint64_t word = busy_mask_[w];
        while (word) {
            const int port = portOf(w, word);
            word &= word - 1;
            auto &in = inputs_[port];

            // RC / VA state machines over exactly the non-Active
            // occupied VCs. The old code scanned the whole occupied
            // list; sorting the pending set by occ_pos reproduces
            // that scan's visit order without touching Active VCs.
            if (!in.pending.empty()) {
                auto &pending = in.pending;
                for (std::size_t i = 1; i < pending.size(); ++i) {
                    const std::int16_t id = pending[i];
                    const std::int16_t key = in.vcs[id].occ_pos;
                    std::size_t j = i;
                    while (j > 0 &&
                           in.vcs[pending[j - 1]].occ_pos > key) {
                        pending[j] = pending[j - 1];
                        --j;
                    }
                    pending[j] = id;
                }
                std::size_t idx = 0;
                while (idx < pending.size()) {
                    const std::int16_t vc_id = pending[idx];
                    auto &vc = in.vcs[vc_id];
                    if (vc.state == VcState::Idle) {
                        const Flit &head = pool_->at(vc.q_head);
                        if (!head.head)
                            panic("Router ", id_, ": body flit at the "
                                  "head of an idle VC");
                        const int rc = port < cfg_.terminal_ports
                                           ? cfg_.rc_delay_ingress
                                           : cfg_.rc_delay_transit;
                        vc.state = VcState::Routing;
                        vc.rc_ready = now + rc;
                        vc.dst_terminal = head.dst;
                        vc.dst_router =
                            (*dst_router_of_terminal_)[head.dst];
                    }
                    if (vc.state == VcState::Routing && now >= vc.rc_ready) {
                        vc.out_port = route(vc.dst_terminal, vc.dst_router);
                        vc.state = VcState::WaitVc;
                    }
                    if (vc.state == VcState::WaitVc) {
                        auto &out = outputs_[vc.out_port];
                        // Claim a free output VC, round-robin.
                        for (int i = 0; i < cfg_.vcs; ++i) {
                            int cand = out.rr_vc + i;
                            if (cand >= cfg_.vcs)
                                cand -= cfg_.vcs;
                            if (out.vc_owner[cand] < 0) {
                                out.vc_owner[cand] =
                                    static_cast<std::int32_t>(port) *
                                        cfg_.vcs +
                                    vc_id;
                                out.rr_vc =
                                    cand + 1 == cfg_.vcs ? 0 : cand + 1;
                                vc.out_vc = static_cast<std::int16_t>(cand);
                                vc.state = VcState::Active;
                                ++in.active_vcs;
                                break;
                            }
                        }
                        if (vc.state == VcState::WaitVc)
                            instr_.vc_alloc_failures.inc();
                    }
                    if (vc.state == VcState::Active)
                        pending.erase(pending.begin() +
                                      static_cast<std::ptrdiff_t>(idx));
                    else
                        ++idx;
                }
            }

            // SA stage, input side: nominate one Active VC with a
            // flit and downstream credit, round-robin over the
            // occupied set. The cursor may point past the end after
            // the set shrank; one normalization keeps the candidate
            // sequence identical to (rr + i) mod n. No Active VC at
            // all (packets still in RC/VA) means the walk cannot
            // nominate and would not move the cursor — skip it.
            if (in.active_vcs == 0)
                continue;
            const int n = static_cast<int>(in.occupied.size());
            int rr = in.rr;
            if (rr >= n)
                rr %= n;
            for (int i = 0; i < n; ++i) {
                int slot = rr + i;
                if (slot >= n)
                    slot -= n;
                const std::int16_t vc_id = in.occupied[slot];
                auto &vc = in.vcs[vc_id];
                if (vc.state != VcState::Active ||
                    vc.q_head == FlitPool::kNil)
                    continue;
                if (outputs_[vc.out_port].credits <= 0) {
                    instr_.credit_stalls.inc();
                    continue;
                }
                auto &reqs = requests_[vc.out_port];
                if (reqs.empty())
                    touched_outputs_.push_back(vc.out_port);
                reqs.push_back({static_cast<std::int32_t>(port), vc_id});
                in.rr = slot + 1 == n ? 0 : slot + 1;
                break;
            }
        }
    }
}

void
Router::arbitrateOutputs(Cycle now)
{
    for (std::int16_t out_port : touched_outputs_) {
        auto &out = outputs_[out_port];
        auto &reqs = requests_[out_port];

        // Output side of SA: round-robin over requesting inputs.
        int winner = 0;
        int best_rank = cfg_.ports;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            int rank = reqs[i].in_port - out.rr_input;
            if (rank < 0)
                rank += cfg_.ports;
            if (rank < best_rank) {
                best_rank = rank;
                winner = static_cast<int>(i);
            }
        }
        if (reqs.size() > 1)
            instr_.sa_conflicts.inc(reqs.size() - 1);
        const Request req = reqs[winner];
        reqs.clear();
        out.rr_input =
            req.in_port + 1 == cfg_.ports ? 0 : req.in_port + 1;

        auto &in = inputs_[req.in_port];
        auto &vc = in.vcs[req.in_vc];
        const FlitPool::Index head = vc.q_head;
        Flit flit = pool_->at(head);
        vc.q_head = pool_->next(head);
        pool_->release(head);
        --in.occupancy;
        --buffered_;

        // Return the freed buffer slot upstream.
        if (in.channel)
            channelPushCredit(*in.channel, now);

        if (vc.q_head == FlitPool::kNil) {
            vc.q_tail = FlitPool::kNil;
            // Swap-remove via the stored back-index.
            const std::int16_t pos = vc.occ_pos;
            const std::int16_t moved = in.occupied.back();
            in.occupied[pos] = moved;
            in.vcs[moved].occ_pos = pos;
            in.occupied.pop_back();
            vc.occ_pos = -1;
            if (in.occupied.empty())
                busy_mask_[static_cast<std::size_t>(req.in_port) >> 6] &=
                    ~(std::uint64_t{1} << (req.in_port & 63));
        }

        flit.vc = vc.out_vc;
        ++flit.hops;

        if (flit.tail) {
            out.vc_owner[vc.out_vc] = -1;
            vc.state = VcState::Idle;
            --in.active_vcs;
            vc.out_port = -1;
            vc.out_vc = -1;
            // The next packet is already queued behind this tail: the
            // VC stays occupied and needs the RC/VA machines again.
            if (vc.q_head != FlitPool::kNil)
                in.pending.push_back(req.in_vc);
        }

        instr_.flits_routed.inc();
        --out.credits;
        if (!out.channel)
            panic("Router ", id_, ": flit routed to an unwired port");
        // ST happens here: the channel's flit lead carries the
        // VA/SA/ST pipeline depth, so the flit arrives downstream at
        // now + pipeline_delay + wire latency — the same cycle the
        // old staging ring delivered it.
        channelPushFlit(*out.channel, now, flit);
    }
    touched_outputs_.clear();
}

bool
Router::step(Cycle now)
{
    // Materialize this cycle's arrivals from the wake wheel. Every
    // entry was scheduled by a push whose delivery cycle is exactly
    // now; anything still in flight stays in a future slot. A credit
    // entry IS the credit — applying it here (before any stage runs)
    // lands it exactly where the old per-port line drain did.
    auto &arrivals = wake_wheel_[static_cast<std::size_t>(now) &
                                 wake_mask_];
    for (const std::int32_t e : arrivals) {
        if (e >= 0)
            in_flit_mask_[static_cast<std::size_t>(e) >> 6] |=
                std::uint64_t{1} << (e & 63);
        else
            ++outputs_[static_cast<std::size_t>(-e - 1)].credits;
    }
    arrivals.clear();

    ingest(now);
    runInputStages(now);
    arbitrateOutputs(now);

    // Arrival masks were consumed by ingest; only buffered flits keep
    // the router in the active set (future arrivals re-wake it
    // through the scheduler's wheel, and arbitrated flits are already
    // on their output channel).
    std::uint64_t active = 0;
    for (std::size_t w = 0; w < busy_mask_.size(); ++w)
        active |= busy_mask_[w];
    return active != 0;
}

} // namespace wss::sim

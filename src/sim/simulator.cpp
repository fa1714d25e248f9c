#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "obs/flight_recorder.hpp"
#include "util/logging.hpp"

namespace wss::sim {

Simulator::Simulator(Network &network, Workload &workload,
                     const SimConfig &cfg)
    : network_(network), workload_(workload), cfg_(cfg), rng_(cfg.seed)
{
    if (cfg.warmup < 0 || cfg.measure < 1 || cfg.drain_limit < 0)
        fatal("Simulator: bad phase configuration");
    if (cfg.observe_sample_every < 0)
        fatal("Simulator: observe_sample_every must be >= 0");
    source_.resize(network.terminalCount());
    inject_mask_.assign(
        (static_cast<std::size_t>(network.terminalCount()) + 63) / 64,
        0);
    current_vc_.assign(network.terminalCount(), 0);
    next_vc_.assign(network.terminalCount(), 0);
    front_head_.assign(
        static_cast<std::size_t>(network.terminalCount()), 0);
    // At most one packet per terminal per cycle can fall in the
    // measurement window, so this bound makes the latency sampler
    // allocation-free for the whole run (capped: a huge fabric's
    // sampler grows amortized past 1M samples instead of reserving
    // gigabytes it will likely never fill).
    packet_latency_q_.reserve(std::min<std::size_t>(
        static_cast<std::size_t>(network.terminalCount()) *
            static_cast<std::size_t>(cfg.measure),
        std::size_t{1} << 20));
    emit_ = [this](int src, int dst, int flits) {
        emitPacket(src, dst, flits);
    };
    if (cfg.observe)
        setupObs();
}

void
Simulator::setupObs()
{
    obs_ = std::make_unique<ObsState>();
    obs_->data = std::make_shared<obs::SimObservation>();
    auto &data = *obs_->data;
    data.routers = static_cast<std::size_t>(network_.routerCount());
    data.links = static_cast<std::size_t>(network_.linkCount());
    data.link_channel_count.assign(network_.linkChannelCount().begin(),
                                   network_.linkChannelCount().end());

    network_.instrument(data.registry);

    // Power-of-two occupancy buckets up to each router's shared-
    // buffer capacity, with a dedicated <=0 bucket for idle cycles.
    for (int r = 0; r < network_.routerCount(); ++r) {
        const RouterConfig &cfg = network_.router(r).config();
        const std::int64_t capacity =
            static_cast<std::int64_t>(cfg.ports) * cfg.buffer_per_port;
        std::vector<double> edges{0.0};
        for (std::int64_t e = 1; e < capacity; e *= 2)
            edges.push_back(static_cast<double>(e));
        edges.push_back(static_cast<double>(capacity));
        std::string name = "r";
        name += std::to_string(r);
        name += ".buffer_occupancy";
        obs_->occupancy.push_back(
            data.registry.histogram(name, std::move(edges)));
    }

    // Delivery is a terminal-side event (ejectAll), so hand every
    // terminal a handle on its router's flits_delivered cell — this
    // keeps the per-router counters reconcilable with
    // SimResult::flits_delivered by construction.
    for (int t = 0; t < network_.terminalCount(); ++t) {
        std::string name = "r";
        name += std::to_string(network_.routerOfTerminal(t));
        name += ".flits_delivered";
        obs_->delivered.push_back(data.registry.counter(name));
    }

    // Every counter now exists, so phase deltas line up name-by-name.
    obs_->last_snapshot = data.registry.snapshot();
    obs_->last_link_flits = network_.linkFlitsForwarded();
}

void
Simulator::closePhase(Cycle end)
{
    auto &data = *obs_->data;
    const std::size_t p = obs_->next_phase;
    data.phase_cycles[p] = end - obs_->phase_start;

    obs::MetricsSnapshot snap = data.registry.snapshot();
    data.phase_counters[p] =
        obs::MetricsSnapshot::delta(snap, obs_->last_snapshot);
    obs_->last_snapshot = std::move(snap);

    std::vector<std::uint64_t> flits = network_.linkFlitsForwarded();
    data.link_flits[p].resize(flits.size());
    for (std::size_t l = 0; l < flits.size(); ++l)
        data.link_flits[p][l] = flits[l] - obs_->last_link_flits[l];
    obs_->last_link_flits = std::move(flits);

    obs_->phase_start = end;
    ++obs_->next_phase;
}

void
Simulator::beginCycleObs(Cycle now)
{
    // Phase boundaries: warmup ends at cfg.warmup, measurement at
    // cfg.warmup + cfg.measure; close them before any of this
    // cycle's counter bumps so each event lands in its own phase.
    if (obs_->next_phase == 0 && now >= cfg_.warmup)
        closePhase(cfg_.warmup);
    if (obs_->next_phase == 1 && now >= cfg_.warmup + cfg_.measure)
        closePhase(cfg_.warmup + cfg_.measure);
}

void
Simulator::endCycleObs(Cycle now)
{
    for (std::size_t r = 0; r < obs_->occupancy.size(); ++r)
        obs_->occupancy[r].record(static_cast<double>(
            network_.router(static_cast<int>(r)).bufferedFlits()));
    if (cfg_.observe_sample_every > 0 &&
        now % cfg_.observe_sample_every == 0) {
        obs::TimelineSample sample;
        sample.cycle = now;
        sample.flits_offered =
            static_cast<std::uint64_t>(flits_generated_);
        sample.flits_accepted =
            static_cast<std::uint64_t>(flits_delivered_);
        sample.flits_in_flight =
            static_cast<std::uint64_t>(network_.flitsInFlight());
        obs_->data->timeline.push_back(sample);
    }
}

void
Simulator::finalizeObs(Cycle end)
{
    // Close whatever phases remain; a run that ended early leaves
    // later phases at zero cycles.
    while (obs_->next_phase < obs::kNumPhases)
        closePhase(end);
}

void
Simulator::emitPacket(int src, int dst, int flits)
{
    if (src < 0 || src >= network_.terminalCount() || dst < 0 ||
        dst >= network_.terminalCount())
        fatal("workload emitted an out-of-range terminal (", src,
              " -> ", dst, ")");
    if (dst == src)
        return; // self-traffic never enters the fabric
    const std::uint64_t id = next_packet_id_++;
    const Cycle now = gen_now_;
    for (int i = 0; i < flits; ++i) {
        SourceFlit sf;
        sf.packet_id = id;
        sf.created = now;
        sf.dst = dst;
        sf.head = i == 0;
        sf.tail = i == flits - 1;
        if (source_[src].empty())
            front_head_[src] = sf.head ? 1 : 0;
        source_[src].push_back(sf);
        ++flits_generated_;
    }
    inject_mask_[static_cast<std::size_t>(src) >> 6] |=
        std::uint64_t{1} << (src & 63);
    if (gen_in_window_)
        ++measured_created_;
}

void
Simulator::generate(Cycle now)
{
    gen_now_ = now;
    gen_in_window_ =
        cfg_.run_to_exhaustion ||
        (now >= cfg_.warmup && now < cfg_.warmup + cfg_.measure);
    workload_.generate(now, rng_, emit_);
}

void
Simulator::inject(Cycle now)
{
    // Sweep only terminals with queued flits, in ascending id order
    // (the same order the dense loop used).
    for (std::size_t w = 0; w < inject_mask_.size(); ++w) {
        std::uint64_t word = inject_mask_[w];
        while (word) {
            const int t =
                static_cast<int>(w) * 64 + std::countr_zero(word);
            const std::uint64_t bit = word & (~word + 1);
            word &= word - 1;
            if (!network_.injectReady(t, now)) {
                // Blocked: a queued head still advances the VC
                // cursor, exactly as the full attempt always did —
                // but the (possibly huge, cold) source ring is never
                // touched.
                if (front_head_[t]) {
                    current_vc_[t] = next_vc_[t];
                    next_vc_[t] = next_vc_[t] + 1 == network_.vcs()
                                      ? 0
                                      : next_vc_[t] + 1;
                }
                continue;
            }
            auto &queue = source_[t];
            const SourceFlit &sf = queue.front();
            if (sf.head) {
                // New packet: pick its VC (round-robin per terminal).
                current_vc_[t] = next_vc_[t];
                next_vc_[t] = next_vc_[t] + 1 == network_.vcs()
                                  ? 0
                                  : next_vc_[t] + 1;
            }
            Flit flit;
            flit.packet_id = sf.packet_id;
            flit.src = t;
            flit.dst = sf.dst;
            flit.vc = current_vc_[t];
            flit.head = sf.head;
            flit.tail = sf.tail;
            flit.created = sf.created;
            flit.injected = now;
            if (network_.tryInject(t, now, flit)) {
                queue.pop_front();
                ++flits_injected_;
                if (queue.empty())
                    inject_mask_[w] &= ~bit;
                else
                    front_head_[t] = queue.front().head ? 1 : 0;
            }
        }
    }
}

void
Simulator::ejectAll(Cycle now)
{
    const bool in_window =
        cfg_.run_to_exhaustion ||
        (now >= cfg_.warmup && now < cfg_.warmup + cfg_.measure);
    // Sweep only terminals with flits in flight toward them.
    // Ascending terminal order is load-bearing: the floating-point
    // statistics accumulate in the same order the dense loop used.
    const auto &pending = network_.ejectPending();
    for (std::size_t w = 0; w < pending.size(); ++w) {
        std::uint64_t word = pending[w];
        while (word) {
            const int t =
                static_cast<int>(w) * 64 + std::countr_zero(word);
            word &= word - 1;
            const auto flit = network_.eject(t, now);
            if (!flit)
                continue; // still in flight on the channel
            if (flit->dst != t)
                panic("flit for terminal ", flit->dst, " ejected at ",
                      t);
            ++flits_delivered_;
            if (obs_)
                obs_->delivered[t].inc();
            if (in_window)
                ++window_flits_ejected_;
            if (!flit->tail)
                continue;
            // Tail: the whole packet has arrived.
            workload_.packetDelivered(now);
            const bool measured =
                cfg_.run_to_exhaustion ||
                (flit->created >= cfg_.warmup &&
                 flit->created < cfg_.warmup + cfg_.measure);
            if (measured) {
                const auto latency =
                    static_cast<double>(now - flit->created);
                packet_latency_.add(latency);
                packet_latency_q_.add(latency);
                network_latency_.add(
                    static_cast<double>(now - flit->injected));
                hops_.add(static_cast<double>(flit->hops));
                ++measured_finished_;
            }
        }
    }
}

SimResult
Simulator::run()
{
    const Cycle window_end = cfg_.warmup + cfg_.measure;
    const Cycle hard_stop = window_end + cfg_.drain_limit;

    Cycle now = 0;
    for (;; ++now) {
        if (obs_)
            beginCycleObs(now);
        if (cfg_.run_to_exhaustion ? !workload_.exhausted(now)
                                   : now < window_end)
            generate(now);
        // Once generation stops we just drain what is in flight.
        inject(now);
        ejectAll(now);
        network_.step(now);
        if (obs_)
            endCycleObs(now);

        // Liveness mark every 64k cycles: one test on a register per
        // cycle, so the hot loop stays at PR-4 speed; long fabric
        // replays still publish progress for the watchdog.
        if ((now & 0xffff) == 0xffff) {
            obs::recordEvent(obs::EventKind::SimEpoch, now,
                             measured_created_ - measured_finished_,
                             "sim-cycle");
        }

        if (cfg_.run_to_exhaustion) {
            const bool done = workload_.exhausted(now) &&
                              measured_finished_ == measured_created_;
            if (done || now >= hard_stop)
                break;
        } else if (now >= window_end) {
            const bool drained = measured_finished_ == measured_created_;
            if (drained || now >= hard_stop)
                break;
        }
    }

    SimResult result;
    result.offered = workload_.offeredLoad();
    result.avg_packet_latency = packet_latency_.mean();
    result.avg_network_latency = network_latency_.mean();
    result.avg_hops = hops_.mean();
    result.packets_measured = measured_created_;
    result.packets_finished = measured_finished_;
    result.stable = measured_finished_ == measured_created_;
    result.accepted =
        static_cast<double>(window_flits_ejected_) /
        (static_cast<double>(network_.terminalCount()) *
         static_cast<double>(cfg_.measure));
    result.end_cycle = now;
    result.flits_delivered = flits_delivered_;
    result.flits_injected = flits_injected_;

    // Flit conservation: everything injected is either delivered or
    // still in the fabric. A mismatch means a router dropped or
    // duplicated a flit — always a wss bug, never a workload effect.
    const std::int64_t in_flight = network_.flitsInFlight();
    if (flits_injected_ != flits_delivered_ + in_flight)
        panic("Simulator: flit conservation violated: injected ",
              flits_injected_, " != delivered ", flits_delivered_,
              " + in-flight ", in_flight);

    if (obs_) {
        finalizeObs(now + 1);
        result.observation = obs_->data;
    }
    result.p99_packet_latency = packet_latency_q_.empty()
                                    ? 0.0
                                    : packet_latency_q_.quantile(0.99);
    return result;
}

} // namespace wss::sim

/**
 * @file
 * Tests for the flow-level DCN simulator: profile serialization and
 * interpolation, fat-tree/dragonfly construction and ECMP routing,
 * workload generation, the flow-conservation invariant, fault-driven
 * reroutes, and campaign determinism (byte-identical CSV at any
 * thread count — the engine's core contract). Telemetry: windowed
 * per-link time series reconcile exactly with the run's counters and
 * never perturb the results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <span>
#include <sstream>

#include "exec/thread_pool.hpp"
#include "fault/flow_faults.hpp"
#include "flow/dcn_campaign.hpp"
#include "flow/dcn_topology.hpp"
#include "flow/design_pair.hpp"
#include "flow/flow_sim.hpp"
#include "flow/max_min.hpp"
#include "flow/switch_profile.hpp"
#include "flow/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"
#include "obs/watchdog.hpp"
#include "power/ssc.hpp"
#include "tech/external_io.hpp"
#include "tech/wsi.hpp"

namespace wss::flow {
namespace {

/// A hand-built profile: tests that don't exercise calibration skip
/// the cycle-accurate sweep entirely.
SwitchProfile
testProfile(const std::string &name, std::int64_t radix)
{
    SwitchProfile p;
    p.name = name;
    p.radix = radix;
    p.line_rate_gbps = 200.0;
    p.power_watts = 1000.0;
    p.zero_load_latency = 12.0;
    p.saturation = 0.95;
    p.points = {{0.1, 14.0, 20.0}, {0.5, 25.0, 60.0},
                {0.9, 80.0, 300.0}};
    return p;
}

// --- SwitchProfile ---------------------------------------------------

TEST(FlowProfile, InterpolationAnchorsAndClamps)
{
    const SwitchProfile p = testProfile("t", 64);
    // Anchored at (0, zero_load_latency).
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.0), 12.0);
    // Halfway between the anchor and the first point.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.05), 13.0);
    // On the calibrated points.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.1), 14.0);
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.5), 25.0);
    // Between points.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.3), 19.5);
    // Clamped past the last point.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.9), 80.0);
    EXPECT_DOUBLE_EQ(p.latencyCycles(1.5), 80.0);
    // p99 uses the same scheme on its own column.
    EXPECT_DOUBLE_EQ(p.p99LatencyCycles(0.5), 60.0);
    // Seconds conversion.
    EXPECT_DOUBLE_EQ(p.latencySeconds(0.0), 12.0 * p.cycle_seconds);
}

TEST(FlowProfile, EmptyCurveFallsBackToZeroLoad)
{
    SwitchProfile p = testProfile("t", 64);
    p.points.clear();
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.7), 12.0);
}

TEST(FlowProfile, JsonRoundTripIsBitExact)
{
    SwitchProfile p = testProfile("ws-6400", 6400);
    // Awkward doubles must survive the round trip bit-for-bit.
    p.line_rate_gbps = 200.0 / 3.0;
    p.cycle_seconds = 2.56e-9;
    p.zero_load_latency = 12.3456789012345;
    p.saturation = 1.0 / 3.0;
    p.points = {{0.1 / 3.0, 1.0 / 7.0, 2.0 / 7.0},
                {0.9, 1e-17, 3.0e17}};

    std::stringstream ss;
    p.writeJson(ss);
    const SwitchProfile q = SwitchProfile::fromJson(ss);

    EXPECT_EQ(q.name, p.name);
    EXPECT_EQ(q.radix, p.radix);
    EXPECT_EQ(q.line_rate_gbps, p.line_rate_gbps);
    EXPECT_EQ(q.cycle_seconds, p.cycle_seconds);
    EXPECT_EQ(q.power_watts, p.power_watts);
    EXPECT_EQ(q.zero_load_latency, p.zero_load_latency);
    EXPECT_EQ(q.saturation, p.saturation);
    ASSERT_EQ(q.points.size(), p.points.size());
    for (std::size_t i = 0; i < p.points.size(); ++i) {
        EXPECT_EQ(q.points[i].offered, p.points[i].offered);
        EXPECT_EQ(q.points[i].avg_latency, p.points[i].avg_latency);
        EXPECT_EQ(q.points[i].p99_latency, p.points[i].p99_latency);
    }
}

TEST(FlowProfile, FromJsonRejectsGarbageDiesLoudly)
{
    std::stringstream not_a_profile("{\"foo\": 1}");
    EXPECT_DEATH(SwitchProfile::fromJson(not_a_profile),
                 "wss_switch_profile");
    std::stringstream malformed("{\"wss_switch_profile\": 1,");
    EXPECT_DEATH(SwitchProfile::fromJson(malformed), "JSON");
}

TEST(FlowProfile, CalibrationProducesUsableProfile)
{
    // Tiny cycle-accurate sweep: a 16-port fabric of radix-8 SSCs.
    CalibrationSpec spec;
    spec.name = "cal-test";
    spec.ports = 16;
    spec.ssc = power::scaledSsc(8, 200.0);
    spec.rates = {0.1, 0.5};
    spec.packet_flits = 1;
    spec.sim_cfg.warmup = 100;
    spec.sim_cfg.measure = 300;
    spec.sim_cfg.drain_limit = 2000;
    spec.power_watts = 123.0;

    const SwitchProfile p = calibrateSwitchProfile(spec);
    EXPECT_EQ(p.name, "cal-test");
    EXPECT_EQ(p.radix, 16);
    EXPECT_DOUBLE_EQ(p.line_rate_gbps, 200.0);
    EXPECT_DOUBLE_EQ(p.power_watts, 123.0);
    EXPECT_GT(p.zero_load_latency, 0.0);
    EXPECT_GT(p.saturation, 0.0);
    ASSERT_FALSE(p.points.empty());
    for (std::size_t i = 1; i < p.points.size(); ++i)
        EXPECT_GT(p.points[i].offered, p.points[i - 1].offered);
    // Latency at load must not undercut the zero-load floor.
    EXPECT_GE(p.latencyCycles(0.5), p.zero_load_latency * 0.99);
}

TEST(FlowProfile, CalibrationRunsAsOneCampaign)
{
    // The calibration sweep goes through exec::Campaign like every
    // other fan-out: one JobStart (and one WorkerScope heartbeat) per
    // rate, --progress counts its cells, and the profiler files the
    // cells under the campaign's job phase.
    obs::Watchdog::resetForTesting();
    obs::FlightRecorder::resetForTesting();
    obs::FlightRecorder::enable(256);
    obs::FlightRecorder::attachCurrentThread("main");
    CalibrationSpec spec;
    spec.ports = 16;
    spec.ssc = power::scaledSsc(8, 200.0);
    spec.rates = {0.1, 0.3, 0.5};
    spec.packet_flits = 1;
    spec.sim_cfg.warmup = 100;
    spec.sim_cfg.measure = 300;
    spec.sim_cfg.drain_limit = 2000;
    obs::Profiler profiler;
    {
        exec::ThreadPool pool(2);
        calibrateSwitchProfile(spec, &pool, nullptr, &profiler);
    }
    const std::uint64_t starts =
        obs::FlightRecorder::kindCount(obs::EventKind::JobStart);
    const std::uint64_t beats =
        obs::FlightRecorder::kindCount(obs::EventKind::Heartbeat);
    const std::uint64_t total = obs::Watchdog::progressTotal();
    obs::FlightRecorder::resetForTesting();
    obs::Watchdog::resetForTesting();

    EXPECT_EQ(starts, spec.rates.size());
    EXPECT_EQ(beats, starts);
    EXPECT_EQ(total, spec.rates.size());
    EXPECT_EQ(profiler.phases().count("calibrate/campaign/sweep"), 1u);
}

// --- DcnTopology -----------------------------------------------------

/// `wss dcn`'s waferscale design point at its defaults.
DesignPairSpec
paperPair()
{
    DesignPairSpec spec;
    spec.ws.wsi = tech::siIf2x();
    spec.ws.external_io = tech::opticalIo();
    spec.ws.ssc = power::tomahawk5(1);
    return spec;
}

TEST(DesignPair, SizesAndPricesBothSwitches)
{
    // The hook stands in for the calibration: it records what each
    // design would be calibrated on.
    DesignPairSpec spec = paperPair();
    spec.ws_ports = 300;
    spec.calibration.ports = 64;
    std::vector<CalibrationSpec> seen;
    const std::vector<SwitchProfile> pair =
        makeDesignPair(spec, "dcn", [&](const CalibrationSpec &cal) {
            seen.push_back(cal);
            SwitchProfile profile;
            profile.name = cal.name;
            profile.power_watts = cal.power_watts;
            return profile;
        });
    ASSERT_EQ(pair.size(), 2u);
    ASSERT_EQ(seen.size(), 2u);
    // 300 ports round down to two leaves of radix-256 chiplets; the
    // 64-port calibration cap rounds up to one.
    EXPECT_EQ(pair[0].name, "ws-256");
    EXPECT_EQ(seen[0].ports, 128);
    EXPECT_EQ(seen[0].radix, 256);
    EXPECT_EQ(seen[0].ssc.radix, 256);
    EXPECT_EQ(pair[1].name, "conv-64");
    EXPECT_EQ(seen[1].ports, 64);
    EXPECT_EQ(seen[1].radix, 64);
    EXPECT_EQ(seen[1].ssc.radix, 32);
    // Chiplet cores plus WSI and optical I/O, as in the conv-64
    // profile hostbench ships.
    EXPECT_DOUBLE_EQ(pair[1].power_watts, 116.092);
    for (const CalibrationSpec &cal : seen)
        EXPECT_EQ(cal.rates, sim::geometricRates(0.05, 0.95, 5));
}

TEST(DesignPair, CalibratedProfilesKeepTheFullRadix)
{
    DesignPairSpec spec = paperPair();
    spec.ws.ssc = power::scaledSsc(8, 200.0);
    spec.ws_ports = 64;
    spec.conv_ports = 16;
    spec.conv_ssc_radix = 8;
    spec.calibration.ports = 16;
    spec.calibration.rates = {0.1, 0.5};
    spec.calibration.sim_cfg.warmup = 100;
    spec.calibration.sim_cfg.measure = 300;
    spec.calibration.sim_cfg.drain_limit = 2000;
    const std::vector<SwitchProfile> pair = makeDesignPair(
        spec, "dcn",
        [](const CalibrationSpec &cal) { return calibrateSwitchProfile(cal); });
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_EQ(pair[0].name, "ws-64");
    EXPECT_EQ(pair[0].radix, 64);
    EXPECT_EQ(pair[1].name, "conv-16");
    EXPECT_EQ(pair[1].radix, 16);
    EXPECT_GT(pair[0].power_watts, pair[1].power_watts);
    EXPECT_FALSE(pair[0].points.empty());
    EXPECT_FALSE(pair[1].points.empty());
}

TEST(DesignPair, PinnedRadixBelowOneLeafDiesLoudly)
{
    DesignPairSpec spec = paperPair();
    const auto unused = [](const CalibrationSpec &) {
        return SwitchProfile{};
    };
    spec.ws_ports = 32;
    EXPECT_DEATH(makeDesignPair(spec, "dcn", unused),
                 "dcn: the waferscale switch needs at least one leaf of "
                 "its radix-256 chiplets \\(128 ports\\), got 32");
    spec.ws_ports = 256;
    spec.conv_ports = 8;
    EXPECT_DEATH(makeDesignPair(spec, "coll", unused),
                 "coll: the conventional switch needs at least one leaf "
                 "of its radix-32 chiplets \\(16 ports\\), got 8");
}

TEST(FlowTopology, FatTreeTierSelection)
{
    const DcnTopology one = DcnTopology::buildFatTree(8, 8, 200.0);
    EXPECT_EQ(one.tiers(), 1);
    EXPECT_EQ(one.switchCount(), 1);
    EXPECT_EQ(one.hostCount(), 8);
    EXPECT_EQ(one.worstCaseHops(), 1);
    EXPECT_EQ(one.cableCount(), 8); // host cables only

    const DcnTopology two = DcnTopology::buildFatTree(20, 8, 200.0);
    EXPECT_EQ(two.tiers(), 2);
    EXPECT_GT(two.switchCount(), 1);
    EXPECT_EQ(two.hostCount(), 20);
    EXPECT_EQ(two.worstCaseHops(), 3); // leaf-spine-leaf
    EXPECT_GT(two.cableCount(), 20);

    const DcnTopology three = DcnTopology::buildFatTree(100, 8, 200.0);
    EXPECT_EQ(three.tiers(), 3);
    EXPECT_EQ(three.hostCount(), 100);
    EXPECT_EQ(three.worstCaseHops(), 5); // leaf-agg-core-agg-leaf
}

TEST(FlowTopology, FatTreeBeyondCapacityDiesLoudly)
{
    // radix 8 tops out at 8^3/4 = 128 hosts.
    EXPECT_DEATH(DcnTopology::buildFatTree(129, 8, 200.0), "exceed");
    EXPECT_DEATH(DcnTopology::buildFatTree(8, 7, 200.0), "even");
    EXPECT_DEATH(DcnTopology::buildFatTree(0, 8, 200.0), "host");
}

TEST(FlowTopology, DragonflyShape)
{
    // radix 8: p = 2 hosts/switch, a = 4 switches/group, h = 2.
    const DcnTopology df = DcnTopology::buildDragonfly(32, 8, 200.0);
    EXPECT_EQ(df.kind(), DcnKind::Dragonfly);
    EXPECT_EQ(df.hostCount(), 32);
    EXPECT_EQ(df.switchCount(), 16); // 4 groups of 4
    EXPECT_GE(df.worstCaseHops(), 2);
    EXPECT_LE(df.worstCaseHops(), 4);
    EXPECT_NE(df.name().find("dragonfly"), std::string::npos);
}

TEST(FlowTopology, DragonflyBeyondBudgetDiesLoudly)
{
    // radix 4: a = 2, h = 1 -> 2 global links per group; more than
    // 3 groups cannot form a clique of groups.
    EXPECT_DEATH(DcnTopology::buildDragonfly(64, 4, 200.0), "exceed");
    EXPECT_DEATH(DcnTopology::buildDragonfly(8, 6, 200.0),
                 "multiple of 4");
}

TEST(FlowTopology, EcmpRouteIsDeterministicAndValid)
{
    const DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    ASSERT_EQ(topo.tiers(), 2);
    for (std::uint64_t flow = 0; flow < 100; ++flow) {
        const std::int64_t src = static_cast<std::int64_t>(flow % 32);
        const std::int64_t dst =
            static_cast<std::int64_t>((flow * 7 + 5) % 32);
        if (src == dst)
            continue;
        DcnPath a, b;
        ASSERT_TRUE(topo.route(src, dst, flow, &a));
        ASSERT_TRUE(topo.route(src, dst, flow, &b));
        // Same flow id, same path — bit-for-bit.
        EXPECT_EQ(a.switches, b.switches);
        EXPECT_EQ(a.directed_links, b.directed_links);
        // Structurally valid.
        ASSERT_FALSE(a.switches.empty());
        EXPECT_EQ(a.switches.front(), topo.edgeOf(src));
        EXPECT_EQ(a.switches.back(), topo.edgeOf(dst));
        ASSERT_EQ(a.directed_links.size(), a.switches.size() - 1);
        for (const int dl : a.directed_links) {
            const int link = dl >> 1;
            ASSERT_GE(link, 0);
            ASSERT_LT(static_cast<std::size_t>(link),
                      topo.links().size());
        }
    }
}

TEST(FlowTopology, EcmpSpreadsFlowsAcrossSpines)
{
    const DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    // Pick a cross-leaf pair and count distinct middle switches over
    // many flow ids: ECMP must use more than one spine.
    const std::int64_t src = 0;
    std::int64_t dst = -1;
    for (std::int64_t h = 0; h < 32; ++h)
        if (topo.edgeOf(h) != topo.edgeOf(src)) {
            dst = h;
            break;
        }
    ASSERT_GE(dst, 0);
    std::set<int> middles;
    for (std::uint64_t flow = 0; flow < 64; ++flow) {
        DcnPath path;
        ASSERT_TRUE(topo.route(src, dst, flow, &path));
        ASSERT_EQ(path.switches.size(), 3u);
        middles.insert(path.switches[1]);
    }
    EXPECT_GT(middles.size(), 1u);
}

TEST(FlowTopology, KilledSwitchDisappearsFromRoutes)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    // Find a spine (a switch no host hangs off).
    std::set<int> edges;
    for (std::int64_t h = 0; h < topo.hostCount(); ++h)
        edges.insert(topo.edgeOf(h));
    int spine = -1;
    for (int s = 0; s < topo.switchCount(); ++s)
        if (!edges.count(s)) {
            spine = s;
            break;
        }
    ASSERT_GE(spine, 0);

    topo.setSwitchAlive(spine, false);
    EXPECT_TRUE(topo.routesDirty());
    topo.rebuildRoutes();
    EXPECT_FALSE(topo.switchAlive(spine));
    for (std::uint64_t flow = 0; flow < 200; ++flow) {
        DcnPath path;
        ASSERT_TRUE(topo.route(0, 31, flow, &path));
        for (const int sw : path.switches)
            EXPECT_NE(sw, spine);
    }
    // Killing an edge switch partitions its hosts.
    topo.setSwitchAlive(topo.edgeOf(0), false);
    topo.rebuildRoutes();
    DcnPath path;
    EXPECT_FALSE(topo.route(0, 31, 1, &path));
}

// --- Workloads -------------------------------------------------------

TEST(FlowWorkload, GenerationIsSortedAndDeterministic)
{
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 2000;
    spec.load = 0.4;
    const auto a = generateFlows(spec, 64, 200.0, 9);
    const auto b = generateFlows(spec, 64, 200.0, 9);
    ASSERT_EQ(a.size(), 2000u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].src_host, b[i].src_host);
        EXPECT_EQ(a[i].dst_host, b[i].dst_host);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
        EXPECT_NE(a[i].src_host, a[i].dst_host);
        EXPECT_GT(a[i].bytes, 0.0);
    }
    // A different seed gives a different trace.
    const auto c = generateFlows(spec, 64, 200.0, 10);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
        any_diff = a[i].bytes != c[i].bytes ||
                   a[i].arrival_s != c[i].arrival_s;
    EXPECT_TRUE(any_diff);
}

TEST(FlowWorkload, IncastMixProducesSynchronisedBursts)
{
    DcnWorkloadSpec spec = workloadByName("incast");
    EXPECT_GT(spec.incast_fraction, 0.0);
    spec.flow_count = 5000;
    const auto flows = generateFlows(spec, 64, 200.0, 4);
    ASSERT_EQ(flows.size(), 5000u);
    // A burst is >= incast_degree/2 flows at the same instant aimed
    // at the same destination (the generator emits whole bursts
    // unless truncated by flow_count).
    bool found_burst = false;
    for (std::size_t i = 0; i + 8 < flows.size() && !found_burst;
         ++i) {
        std::size_t j = i;
        while (j < flows.size() &&
               flows[j].arrival_s == flows[i].arrival_s &&
               flows[j].dst_host == flows[i].dst_host)
            ++j;
        found_burst = j - i >= 8;
    }
    EXPECT_TRUE(found_burst);
}

TEST(FlowWorkload, FixedDistMeanMatchesSpec)
{
    DcnWorkloadSpec spec = workloadByName("fixed");
    EXPECT_DOUBLE_EQ(meanFlowBytes(spec), spec.fixed_bytes);
    EXPECT_GT(meanFlowBytes(workloadByName("websearch")), 0.0);
    EXPECT_GT(meanFlowBytes(workloadByName("hadoop")), 0.0);
}

TEST(FlowWorkload, UnknownNameDiesLoudly)
{
    EXPECT_DEATH(workloadByName("netflix"), "unknown DCN workload");
}

// --- Flow simulator --------------------------------------------------

TEST(FlowSim, ConservationViolationDiesLoudly)
{
    // 10 started but only 5 + 1 + 2 accounted for: the engine must
    // abort, never quietly emit statistics.
    EXPECT_DEATH(verifyFlowConservation(10, 5, 1, 2),
                 "flow conservation violated");
    // And the accounting identity passes when it holds.
    verifyFlowConservation(10, 7, 1, 2);
    verifyFlowConservation(0, 0, 0, 0);
}

TEST(FlowSim, CleanRunCompletesEveryFlow)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 500;
    spec.load = 0.5;
    const auto flows = generateFlows(spec, 16, 200.0, 2);

    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.started, 500);
    EXPECT_EQ(r.completed, 500);
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.rerouted, 0);
    EXPECT_EQ(r.fault_events, 0);
    EXPECT_GT(r.duration_s, 0.0);
    EXPECT_GT(r.throughput_gbps, 0.0);
    EXPECT_GT(r.fct_avg_s, 0.0);
    EXPECT_GE(r.fct_p99_s, r.fct_p50_s);
    EXPECT_GE(r.fct_p999_s, r.fct_p99_s);
    // A shared fabric can't beat the lone-flow ideal.
    EXPECT_GE(r.slowdown_p50, 0.99);
    EXPECT_GE(r.avg_hops, 1.0);
    EXPECT_LE(r.avg_hops, 3.0);
}

TEST(FlowSim, MetricsAndTraceCoverTheRun)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 300;
    const auto flows = generateFlows(spec, 16, 200.0, 3);

    obs::MetricsRegistry metrics;
    obs::TraceEventSink trace;
    FlowSimConfig cfg;
    cfg.metrics = &metrics;
    cfg.trace = &trace;
    const FlowSimResult r = simulateFlows(topo, profile, flows, {}, cfg);

    EXPECT_EQ(metrics.counterValue("flow.started"),
              static_cast<std::uint64_t>(r.started));
    EXPECT_EQ(metrics.counterValue("flow.completed"),
              static_cast<std::uint64_t>(r.completed));
    EXPECT_EQ(metrics.counterValue("flow.failed"), 0u);
    ASSERT_TRUE(metrics.histograms().count("flow.slowdown"));
    EXPECT_EQ(metrics.histograms().at("flow.slowdown").count,
              static_cast<std::uint64_t>(r.completed));
    EXPECT_GE(trace.size(), 1u);
}

TEST(FlowSim, SwitchKillMidRunReroutesSurvivors)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    ASSERT_EQ(topo.tiers(), 2);
    // Find a spine switch.
    std::set<int> edges;
    for (std::int64_t h = 0; h < topo.hostCount(); ++h)
        edges.insert(topo.edgeOf(h));
    int spine = -1;
    for (int s = 0; s < topo.switchCount(); ++s)
        if (!edges.count(s)) {
            spine = s;
            break;
        }
    ASSERT_GE(spine, 0);

    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 3000;
    spec.load = 0.7;
    const auto flows = generateFlows(spec, 32, 200.0, 5);

    fault::DcnFaultSchedule faults;
    faults.killSwitch(flows[flows.size() / 2].arrival_s, spine);

    const FlowSimResult r = simulateFlows(topo, profile, flows, faults);
    EXPECT_EQ(r.fault_events, 1);
    // Flows in flight across the dead spine moved to survivors.
    EXPECT_GT(r.rerouted, 0);
    // The surviving spines keep every flow alive.
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.completed + r.failed, r.started);
    EXPECT_FALSE(topo.switchAlive(spine));
}

TEST(FlowSim, EdgeSwitchKillFailsStrandedFlows)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    const int edge = topo.edgeOf(0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 3000;
    spec.load = 0.7;
    const auto flows = generateFlows(spec, 32, 200.0, 6);

    fault::DcnFaultSchedule faults;
    faults.killSwitch(flows[flows.size() / 3].arrival_s, edge);

    const FlowSimResult r = simulateFlows(topo, profile, flows, faults);
    // Flows touching the dead leaf's hosts have no path: they fail,
    // and the accounting still balances (the engine panics
    // otherwise).
    EXPECT_GT(r.failed, 0);
    EXPECT_GT(r.completed, 0);
    EXPECT_EQ(r.completed + r.failed, r.started);
}

// --- Degenerate flows ------------------------------------------------

TEST(FlowSim, LoopbackFlowsCompleteWithoutTouchingTheFabric)
{
    // src == dst never leaves the host NIC: zero hops, line-rate
    // transfer, and no share of any switch's capacity.
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    const double bytes = 1e6;
    std::vector<FlowArrival> flows = {{1, 0.0, 3, 3, bytes}};
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.completed, 1);
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.avg_hops, 0.0);
    const double xfer = bytes / (200.0 * 1e9 / 8.0);
    EXPECT_NEAR(r.fct_avg_s, xfer, 1e-12);
    EXPECT_NEAR(r.slowdown_p50, 1.0, 1e-9);
    EXPECT_EQ(r.completed_bytes, bytes);
}

TEST(FlowSim, ZeroByteFlowsPayOnlyPathLatency)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {{1, 0.0, 0, 9, 0.0},
                                      {2, 0.0, 1, 2, 0.0}};
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.failed, 0);
    // An RPC-style empty flow still crosses the calibrated switches:
    // its FCT is the zero-load path latency, not zero and not NaN.
    EXPECT_GT(r.fct_avg_s, 0.0);
    EXPECT_LT(r.fct_avg_s, 1e-3);
    EXPECT_TRUE(std::isfinite(r.slowdown_p99));
    EXPECT_EQ(r.completed_bytes, 0.0);
}

TEST(FlowSim, MixedDegenerateAndBulkFlowsBalance)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {
        {1, 0.0, 0, 1, 1e7},   // bulk
        {2, 0.0, 4, 4, 5e5},   // loopback
        {3, 0.0, 2, 11, 0.0},  // zero-byte RPC
        {4, 1e-5, 6, 6, 0.0},  // zero-byte loopback
    };
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.started, 4);
    EXPECT_EQ(r.completed, 4);
    EXPECT_EQ(r.completed + r.failed, r.started);
    EXPECT_EQ(r.completed_bytes, 1e7 + 5e5);
    // fct_max_s covers the slowest flow — the bulk one here.
    EXPECT_GE(r.fct_max_s, 1e7 / (200.0 * 1e9 / 8.0));
    EXPECT_GE(r.fct_max_s, r.fct_p999_s);
}

TEST(FlowSim, NegativeByteSizeDiesLoudly)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {{1, 0.0, 0, 1, -5.0}};
    EXPECT_DEATH(simulateFlows(topo, profile, flows), "negative size");
}

TEST(FlowSim, NonFiniteFlowDiesLoudly)
{
    // A NaN size passes a `bytes < 0` check, never completes and
    // would surface later as a misleading stall; the guard names the
    // offending flow up front.
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const FlowArrival &bad :
         {FlowArrival{7, 0.0, 0, 1, nan}, FlowArrival{7, 0.0, 0, 1, inf},
          FlowArrival{7, nan, 0, 1, 1e5}, FlowArrival{7, inf, 0, 1, 1e5}}) {
        const std::vector<FlowArrival> flows = {{1, 0.0, 2, 3, 1e5}, bad};
        EXPECT_DEATH(simulateFlows(topo, profile, flows),
                     "flow 7 has a non-finite size or arrival time");
    }
}

TEST(FlowSim, OutOfOrderArrivalDiesLoudly)
{
    // An early arrival would be clamped to the clock and silently
    // charged the wait in its FCT.
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    const std::vector<FlowArrival> flows = {{1, 2e-6, 0, 1, 1e5},
                                            {2, 1e-6, 2, 3, 1e5}};
    EXPECT_DEATH(simulateFlows(topo, profile, flows),
                 "flow 2 arrives at .* before the previous flow");
    // Equal arrival instants (incast bursts, collective steps) are
    // in order.
    const std::vector<FlowArrival> burst = {{1, 1e-6, 0, 1, 1e5},
                                            {2, 1e-6, 2, 1, 1e5}};
    EXPECT_EQ(simulateFlows(topo, profile, burst).completed, 2);
}

TEST(FlowSim, FctMaxTracksTheSlowestFlow)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows;
    for (int i = 0; i < 8; ++i)
        flows.push_back({static_cast<std::uint64_t>(i + 1), 0.0, i,
                         i + 8, (i + 1) * 1e5});
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.completed, 8);
    EXPECT_GE(r.fct_max_s, r.fct_p50_s);
    // The slowest flow is the largest one; its ideal time lower-bounds
    // the max FCT.
    EXPECT_GE(r.fct_max_s, 8e5 / (200.0 * 1e9 / 8.0));
}

// --- Waterfill -------------------------------------------------------

/// The linear-scan waterfill that maxMinRates replaced, kept as the
/// oracle: every bottleneck iteration scans all touched resources in
/// first-use order and takes the first strict minimum of
/// remcap / cnt.
std::vector<double>
linearScanRates(const std::vector<double> &cap,
                const std::vector<std::vector<int>> &flow_res)
{
    const int n = static_cast<int>(flow_res.size());
    std::vector<std::vector<int>> users(cap.size());
    std::vector<int> touched;
    std::vector<double> remcap(cap.size(), 0.0);
    std::vector<int> cnt(cap.size(), 0);
    std::vector<char> frozen(flow_res.size(), 0);
    std::vector<double> rates(flow_res.size(), 0.0);
    for (int f = 0; f < n; ++f)
        for (int r : flow_res[static_cast<std::size_t>(f)]) {
            auto &list = users[static_cast<std::size_t>(r)];
            if (list.empty())
                touched.push_back(r);
            list.push_back(f);
        }
    for (int r : touched) {
        remcap[static_cast<std::size_t>(r)] =
            cap[static_cast<std::size_t>(r)];
        cnt[static_cast<std::size_t>(r)] =
            static_cast<int>(users[static_cast<std::size_t>(r)].size());
    }
    int unfrozen = n;
    while (unfrozen > 0) {
        double best = std::numeric_limits<double>::infinity();
        int bottleneck = -1;
        for (int r : touched)
            if (cnt[static_cast<std::size_t>(r)] > 0) {
                const double fair = remcap[static_cast<std::size_t>(r)] /
                                    cnt[static_cast<std::size_t>(r)];
                if (fair < best) {
                    best = fair;
                    bottleneck = r;
                }
            }
        if (bottleneck < 0) {
            ADD_FAILURE() << "oracle: no loaded resource";
            return rates;
        }
        best = std::max(best, 0.0);
        for (int f : users[static_cast<std::size_t>(bottleneck)]) {
            if (frozen[static_cast<std::size_t>(f)])
                continue;
            frozen[static_cast<std::size_t>(f)] = 1;
            rates[static_cast<std::size_t>(f)] = best;
            --unfrozen;
            for (int r : flow_res[static_cast<std::size_t>(f)])
                if (r != bottleneck) {
                    remcap[static_cast<std::size_t>(r)] -= best;
                    --cnt[static_cast<std::size_t>(r)];
                }
        }
        cnt[static_cast<std::size_t>(bottleneck)] = 0;
    }
    return rates;
}

struct WaterfillInstance
{
    /// Resources [0, 2 * hosts) are NICs, the rest trunk directions.
    int hosts = 0;
    std::vector<double> cap;
    std::vector<std::vector<int>> flows;
};

/// A seeded random flow set shaped like the simulator's: hosts with
/// one-line-rate tx/rx NICs (many equal-capacity resources, where
/// exact ties live), a few trunk pairs shared by dozens of flows,
/// 2-resource single-switch and 4-resource leaf-spine paths, and in
/// every fourth instance a dead (zero-capacity) trunk direction.
/// Odd seeds use a collective-like regular pattern (every host sends
/// to the next `fan` hosts), so whole rows of NICs tie exactly and a
/// deduction can round a tied share one ulp below its heap key.
WaterfillInstance
randomInstance(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const auto below = [&](int n) {
        return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    const double nic = 200e9 / 8.0 * 0.95;
    const int hosts = 8 + below(57);
    const int trunks = 1 + below(4);
    const int leaf_spine_pct = below(101);

    WaterfillInstance inst;
    inst.hosts = hosts;
    inst.cap.assign(static_cast<std::size_t>(2 * hosts), nic);
    for (int t = 0; t < 2 * trunks; ++t) {
        // Half the trunks are exact multiples of the NIC rate (more
        // ties), half are arbitrary.
        const double c = rng() % 2 ? nic * (1 + below(4))
                                   : nic * (0.5 + 3.5 * (rng() >> 11) *
                                                      0x1.0p-53);
        inst.cap.push_back(c);
    }
    if (seed % 4 == 0)
        inst.cap[static_cast<std::size_t>(2 * hosts)] = 0.0;

    const bool regular = seed % 2 == 1;
    const int fan = 2 + below(7);
    const int n_flows = regular ? hosts * fan : 100 + below(301);
    for (int f = 0; f < n_flows; ++f) {
        int src = 0, dst = 0;
        if (regular) {
            src = f / fan;
            dst = (src + 1 + f % fan) % hosts;
        } else {
            src = below(hosts);
            dst = below(hosts - 1);
            dst += dst >= src;
        }
        std::vector<int> res = {2 * src};
        if (below(100) < leaf_spine_pct) {
            res.push_back(2 * hosts + 2 * below(trunks));
            res.push_back(2 * hosts + 2 * below(trunks) + 1);
        }
        res.push_back(2 * dst + 1);
        inst.flows.push_back(std::move(res));
    }
    return inst;
}

TEST(FlowSim, WaterfillMatchesLinearScanOracleBitForBit)
{
    // One scratch across every instance: it must carry no state from
    // one solve to the next, even as the resource count changes.
    MaxMinScratch scratch;
    int big_trunks = 0, dead_trunks = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const WaterfillInstance inst = randomInstance(seed);
        std::vector<std::span<const int>> spans(inst.flows.begin(),
                                                inst.flows.end());
        std::vector<double> rates(spans.size(), -1.0);
        maxMinRates(inst.cap, spans, rates, scratch);
        const std::vector<double> oracle =
            linearScanRates(inst.cap, inst.flows);
        for (std::size_t f = 0; f < rates.size(); ++f)
            ASSERT_EQ(rates[f], oracle[f])
                << "instance " << seed << ", flow " << f;

        std::vector<int> users(inst.cap.size(), 0);
        for (const auto &res : inst.flows)
            for (int r : res)
                ++users[static_cast<std::size_t>(r)];
        int busiest_trunk = 0;
        bool dead = false;
        for (std::size_t r = 0; r < inst.cap.size(); ++r) {
            if (r >= static_cast<std::size_t>(2 * inst.hosts))
                busiest_trunk = std::max(busiest_trunk, users[r]);
            dead |= inst.cap[r] == 0.0 && users[r] > 0;
        }
        big_trunks += busiest_trunk >= 50;
        dead_trunks += dead;
    }
    // The instances really do stress the cases named above (82 have
    // a trunk carrying 50+ flows, 48 route flows over a dead one).
    EXPECT_GE(big_trunks, 75);
    EXPECT_GE(dead_trunks, 40);
}

TEST(FlowSim, WaterfillRatesAreMaxMinFair)
{
    // The defining property, independent of the oracle: rates are
    // feasible, and every flow crosses a saturated resource on which
    // no other flow gets more.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const WaterfillInstance inst = randomInstance(seed);
        const std::vector<std::span<const int>> spans(inst.flows.begin(),
                                                      inst.flows.end());
        std::vector<double> rates(spans.size(), -1.0);
        MaxMinScratch scratch;
        maxMinRates(inst.cap, spans, rates, scratch);
        std::vector<double> load(inst.cap.size(), 0.0);
        std::vector<double> top(inst.cap.size(), 0.0);
        for (std::size_t f = 0; f < rates.size(); ++f) {
            ASSERT_GE(rates[f], 0.0);
            for (int r : inst.flows[f]) {
                load[static_cast<std::size_t>(r)] += rates[f];
                top[static_cast<std::size_t>(r)] =
                    std::max(top[static_cast<std::size_t>(r)], rates[f]);
            }
        }
        for (std::size_t r = 0; r < inst.cap.size(); ++r)
            ASSERT_LE(load[r], inst.cap[r] * (1.0 + 1e-12))
                << "instance " << seed << ", resource " << r;
        for (std::size_t f = 0; f < rates.size(); ++f) {
            bool bottlenecked = false;
            for (int r : inst.flows[f]) {
                const auto ru = static_cast<std::size_t>(r);
                bottlenecked |=
                    std::abs(load[ru] - inst.cap[ru]) <=
                        1e-12 * inst.cap[ru] &&
                    rates[f] >= top[ru] * (1.0 - 1e-12);
            }
            ASSERT_TRUE(bottlenecked) << "instance " << seed << ", flow "
                                      << f << " at rate " << rates[f];
        }
    }
}

TEST(FlowSim, WaterfillWithoutResourcesDiesLoudly)
{
    const std::vector<double> cap = {1.0};
    const std::vector<int> none;
    const std::vector<std::span<const int>> flows = {none};
    std::vector<double> rates(1);
    MaxMinScratch scratch;
    EXPECT_DEATH(maxMinRates(cap, flows, rates, scratch),
                 "no loaded resource");
}

// --- End-to-end goldens ----------------------------------------------

/// One of the four traffic cases the bit-identity contract pins: a
/// 2-tier fat-tree of 32 hosts at 0.7 load under websearch, hadoop
/// or incast traffic, optionally with a spine killed mid-run so
/// in-flight flows reroute.
FlowSimResult
goldenRun(const std::string &workload, std::uint64_t seed,
          bool kill_spine = false)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName(workload);
    spec.flow_count = 2000;
    spec.load = 0.7;
    const auto flows = generateFlows(spec, 32, 200.0, seed);
    fault::DcnFaultSchedule faults;
    if (kill_spine) {
        std::set<int> edges;
        for (std::int64_t h = 0; h < topo.hostCount(); ++h)
            edges.insert(topo.edgeOf(h));
        int spine = 0;
        while (edges.count(spine))
            ++spine;
        faults.killSwitch(flows[flows.size() / 2].arrival_s, spine);
    }
    return simulateFlows(topo, profile, flows, faults);
}

/// Every FlowSimResult field, in declaration order.
struct Golden
{
    std::int64_t started, completed, failed, rerouted, fault_events;
    double duration_s, completed_bytes, throughput_gbps, fct_avg_s,
        fct_max_s, fct_p50_s, fct_p99_s, fct_p999_s, slowdown_avg,
        slowdown_p50, slowdown_p99, slowdown_p999, avg_hops;
};

void
expectGolden(const FlowSimResult &r, const Golden &g)
{
    EXPECT_EQ(r.started, g.started);
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_EQ(r.failed, g.failed);
    EXPECT_EQ(r.rerouted, g.rerouted);
    EXPECT_EQ(r.fault_events, g.fault_events);
    EXPECT_EQ(r.duration_s, g.duration_s);
    EXPECT_EQ(r.completed_bytes, g.completed_bytes);
    EXPECT_EQ(r.throughput_gbps, g.throughput_gbps);
    EXPECT_EQ(r.fct_avg_s, g.fct_avg_s);
    EXPECT_EQ(r.fct_max_s, g.fct_max_s);
    EXPECT_EQ(r.fct_p50_s, g.fct_p50_s);
    EXPECT_EQ(r.fct_p99_s, g.fct_p99_s);
    EXPECT_EQ(r.fct_p999_s, g.fct_p999_s);
    EXPECT_EQ(r.slowdown_avg, g.slowdown_avg);
    EXPECT_EQ(r.slowdown_p50, g.slowdown_p50);
    EXPECT_EQ(r.slowdown_p99, g.slowdown_p99);
    EXPECT_EQ(r.slowdown_p999, g.slowdown_p999);
    EXPECT_EQ(r.avg_hops, g.avg_hops);
    EXPECT_EQ(r.telemetry, nullptr);
}

// Pinned from the linear-scan waterfill: the heap must reproduce
// every bit.
// websearch, seed 11.
constexpr Golden kGoldenWebsearch = {
    2000, 2000, 0, 0, 0, // started .. fault_events
    0x1.2d254ba223ae9p-7, // duration_s
    0x1.58ae7cf51acedp+31, // completed_bytes
    0x1.3a9dc8dc819edp+11, // throughput_gbps
    0x1.05680046616ep-12, // fct_avg_s
    0x1.06f398fbb39dcp-7, // fct_max_s
    0x1.1b30d6ff96591p-17, // fct_p50_s
    0x1.04b291cc12931p-8, // fct_p99_s
    0x1.ba6cf7269559ap-8, // fct_p999_s
    0x1.0cf10604aed78p+2, // slowdown_avg
    0x1.ece5aa18bd2f4p+1, // slowdown_p50
    0x1.4df5b30cf4d79p+3, // slowdown_p99
    0x1.7347aee063e37p+3, // slowdown_p999
    0x1.68f5c28f5c289p+1 // avg_hops
};

// hadoop, seed 12.
constexpr Golden kGoldenHadoop = {
    2000, 2000, 0, 0, 0, // started .. fault_events
    0x1.c34fd46493746p-8, // duration_s
    0x1.113c8e6257343p+30, // completed_bytes
    0x1.4cd654aa108b9p+10, // throughput_gbps
    0x1.fbf57b17cbd5p-15, // fct_avg_s
    0x1.6f39260503822p-8, // fct_max_s
    0x1.d840be75e76a6p-23, // fct_p50_s
    0x1.a0edbafe3aaf5p-10, // fct_p99_s
    0x1.537213bd57a26p-8, // fct_p999_s
    0x1.159b88d4fa861p+1, // slowdown_avg
    0x1.f01984156b16bp+0, // slowdown_p50
    0x1.506b2f9c69b89p+2, // slowdown_p99
    0x1.8e5212460f4eap+2, // slowdown_p999
    0x1.6810624dd2f1ep+1 // avg_hops
};

// incast (websearch plus 32:1 bursts), seed 13.
constexpr Golden kGoldenIncast = {
    2000, 2000, 0, 0, 0, // started .. fault_events
    0x1.5242848136f87p-8, // duration_s
    0x1.e452b5dfaeaep+29, // completed_bytes
    0x1.899285474a63fp+10, // throughput_gbps
    0x1.702b9770a5fd6p-14, // fct_avg_s
    0x1.c0fb6c2590c04p-9, // fct_max_s
    0x1.7f28f9c5ef2b8p-15, // fct_p50_s
    0x1.7ce0b5c450cecp-10, // fct_p99_s
    0x1.aaeb2f608b9efp-9, // fct_p999_s
    0x1.644ed8fec082p+4, // slowdown_avg
    0x1.fa9e0bbe120ep+4, // slowdown_p50
    0x1.2996667105094p+5, // slowdown_p99
    0x1.2a04471eb632dp+5, // slowdown_p999
    0x1.66c8b4395810ap+1 // avg_hops
};

// websearch, seed 14, spine killed at the median arrival.
constexpr Golden kGoldenSpineKill = {
    2000, 2000, 0, 27, 1, // started .. fault_events
    0x1.45dc99912de1fp-7, // duration_s
    0x1.719ce82109502p+31, // completed_bytes
    0x1.37c8ab2ec64f1p+11, // throughput_gbps
    0x1.36cb7ed648b6p-12, // fct_avg_s
    0x1.d31f38682d0d3p-8, // fct_max_s
    0x1.793e287d19b9ep-17, // fct_p50_s
    0x1.44ca373ba7753p-8, // fct_p99_s
    0x1.a7c835f469735p-8, // fct_p999_s
    0x1.28d83b7f7e348p+2, // slowdown_avg
    0x1.057ab8a244d53p+2, // slowdown_p50
    0x1.6e66cfe5293bfp+3, // slowdown_p99
    0x1.c7900d0927e12p+3, // slowdown_p999
    0x1.63b645a1cac02p+1 // avg_hops
};

TEST(FlowSim, GoldenWebsearchTwoTier)
{
    expectGolden(goldenRun("websearch", 11), kGoldenWebsearch);
}

TEST(FlowSim, GoldenHadoopTwoTier)
{
    expectGolden(goldenRun("hadoop", 12), kGoldenHadoop);
}

TEST(FlowSim, GoldenIncastTwoTier)
{
    expectGolden(goldenRun("incast", 13), kGoldenIncast);
}

TEST(FlowSim, GoldenSpineKillReroutes)
{
    const FlowSimResult r = goldenRun("websearch", 14, true);
    EXPECT_GT(r.rerouted, 0);
    expectGolden(r, kGoldenSpineKill);
}

// --- Campaign --------------------------------------------------------

DcnCampaignConfig
smallCampaign()
{
    DcnCampaignConfig cfg;
    cfg.designs = {testProfile("ws-512", 512), testProfile("conv", 8)};
    cfg.hosts = 32;
    cfg.workloads = {workloadByName("websearch")};
    cfg.loads = {0.5};
    cfg.flows_per_cell = 1500;
    cfg.seed = 3;
    return cfg;
}

TEST(FlowCampaign, CsvByteIdenticalAcrossJobs)
{
    const DcnCampaign campaign(smallCampaign());

    std::ostringstream serial, threaded, serial_again;
    campaign.run(nullptr).writeCsv(serial);
    {
        exec::ThreadPool pool(4);
        campaign.run(&pool).writeCsv(threaded);
    }
    campaign.run(nullptr).writeCsv(serial_again);

    // The engine's core contract: same (config, seed) => the same
    // bytes, at any thread count, on every run.
    EXPECT_EQ(serial.str(), threaded.str());
    EXPECT_EQ(serial.str(), serial_again.str());
    EXPECT_NE(serial.str().find("ws-512"), std::string::npos);
    EXPECT_NE(serial.str().find("fct_p99_us"), std::string::npos);
}

TEST(FlowCampaign, SeedChangesTheResults)
{
    DcnCampaignConfig cfg = smallCampaign();
    std::ostringstream a, b;
    DcnCampaign(cfg).run(nullptr).writeCsv(a);
    cfg.seed = 4;
    DcnCampaign(cfg).run(nullptr).writeCsv(b);
    EXPECT_NE(a.str(), b.str());
}

TEST(FlowCampaign, FieldFailuresKillSwitchesMidRun)
{
    DcnCampaignConfig cfg = smallCampaign();
    cfg.designs = {testProfile("conv", 8)};
    // Certain death for every switch during the arrival window.
    cfg.fault_model.node_field_failure = 1.0;
    const DcnResult result = DcnCampaign(cfg).run(nullptr);
    ASSERT_EQ(result.cells.size(), 1u);
    const auto &cell = result.cells[0];
    EXPECT_EQ(cell.sim.fault_events, cell.switches);
    // With the whole fabric eventually dead, late flows fail — but
    // the accounting identity held throughout (no panic).
    EXPECT_GT(cell.sim.failed, 0);
    EXPECT_EQ(cell.sim.completed + cell.sim.failed, cell.sim.started);
}

TEST(FlowCampaign, ObservedCellIsCampaignCell)
{
    // runCell(0, observers) is the cell run() stored — same flows,
    // same sampled field failures — with telemetry added.
    DcnCampaignConfig cfg = smallCampaign();
    cfg.designs = {testProfile("conv", 8), testProfile("ws-512", 512)};
    cfg.fault_model.node_field_failure = 0.5;
    const DcnCampaign campaign(cfg);
    const FlowSimResult ran = campaign.run(nullptr).cells[0].sim;
    ASSERT_GT(ran.fault_events, 0);

    obs::Profiler profiler;
    obs::TraceEventSink trace;
    FlowSimConfig obs_cfg;
    obs_cfg.profiler = &profiler;
    obs_cfg.trace = &trace;
    obs_cfg.telemetry_window_s = ran.duration_s / 24.0;
    const DcnCellResult observed = campaign.runCell(0, obs_cfg);
    const FlowSimResult &sim = observed.sim;
    ASSERT_TRUE(sim.telemetry);
    EXPECT_FALSE(ran.telemetry);
    EXPECT_EQ(observed.design, "conv");
    EXPECT_EQ(sim.started, ran.started);
    EXPECT_EQ(sim.completed, ran.completed);
    EXPECT_EQ(sim.failed, ran.failed);
    EXPECT_EQ(sim.rerouted, ran.rerouted);
    EXPECT_EQ(sim.fault_events, ran.fault_events);
    EXPECT_EQ(sim.duration_s, ran.duration_s);
    EXPECT_EQ(sim.completed_bytes, ran.completed_bytes);
    EXPECT_EQ(sim.throughput_gbps, ran.throughput_gbps);
    EXPECT_EQ(sim.avg_hops, ran.avg_hops);
    EXPECT_EQ(sim.fct_avg_s, ran.fct_avg_s);
    EXPECT_EQ(sim.fct_max_s, ran.fct_max_s);
    EXPECT_EQ(sim.fct_p50_s, ran.fct_p50_s);
    EXPECT_EQ(sim.fct_p99_s, ran.fct_p99_s);
    EXPECT_EQ(sim.fct_p999_s, ran.fct_p999_s);
    EXPECT_EQ(sim.slowdown_avg, ran.slowdown_avg);
    EXPECT_EQ(sim.slowdown_p50, ran.slowdown_p50);
    EXPECT_EQ(sim.slowdown_p99, ran.slowdown_p99);
    EXPECT_EQ(sim.slowdown_p999, ran.slowdown_p999);
}

TEST(FlowCampaign, JsonIsWellFormedEnough)
{
    const DcnResult result = DcnCampaign(smallCampaign()).run(nullptr);
    std::ostringstream os;
    result.writeJson(os);
    const std::string json = os.str();
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"fct_p99_s\""), std::string::npos);
}

TEST(FlowCampaign, EmptyAxesDiesLoudly)
{
    DcnCampaignConfig cfg;
    EXPECT_DEATH(DcnCampaign{cfg}, "at least one");
    cfg = smallCampaign();
    cfg.designs[0].radix = 0;
    EXPECT_DEATH(DcnCampaign{cfg}, "calibrated");
    // Two cells: index 2 is past the grid.
    EXPECT_DEATH(DcnCampaign(smallCampaign()).runCell(2), "out of range");
}

// --- Telemetry -------------------------------------------------------

FlowSimResult
runWithTelemetry(double window_s, std::uint64_t seed = 7,
                 std::int64_t flow_count = 2000)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = flow_count;
    spec.load = 0.5;
    const auto flows = generateFlows(spec, 16, 200.0, seed);
    FlowSimConfig cfg;
    cfg.telemetry_window_s = window_s;
    return simulateFlows(topo, profile, flows, {}, cfg);
}

TEST(FlowTelemetry, WindowsReconcileExactlyWithTheResult)
{
    const FlowSimResult r = runWithTelemetry(1e-5);
    ASSERT_NE(r.telemetry, nullptr);
    const FlowTelemetry &t = *r.telemetry;
    ASSERT_FALSE(t.windows.empty());

    // Integer totals reconcile exactly — every started flow lands in
    // exactly one window, ditto completions and failures.
    EXPECT_EQ(t.totalStarted(), r.started);
    EXPECT_EQ(t.totalCompleted(), r.completed);
    EXPECT_EQ(t.totalFailed(), r.failed);
    EXPECT_EQ(r.failed, 0);

    std::int64_t started = 0, completed = 0, failed = 0;
    double bytes = 0.0;
    for (const FlowTelemetry::Window &w : t.windows) {
        started += w.started;
        completed += w.completed;
        failed += w.failed;
        bytes += w.completed_bytes;
        EXPECT_GE(w.in_flight_end, 0);
    }
    EXPECT_EQ(started, r.started);
    EXPECT_EQ(completed, r.completed);
    EXPECT_EQ(failed, r.failed);
    EXPECT_NEAR(bytes, r.completed_bytes,
                1e-9 * std::max(1.0, r.completed_bytes));

    // The window grid covers the whole run: the last completion is
    // inside the recorded span.
    EXPECT_GE(static_cast<double>(t.windows.size()) * t.window_s,
              r.duration_s);

    // Utilization is a fraction of derated capacity.
    for (std::size_t w = 0; w < t.windows.size(); ++w)
        for (std::size_t l = 0; l < t.link_capacity_bps.size(); ++l)
            EXPECT_GE(t.linkUtilization(w, l), 0.0);
}

TEST(FlowTelemetry, FaultedRunAccountsFailedFlowsInWindows)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    const int edge = topo.edgeOf(0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 3000;
    spec.load = 0.7;
    const auto flows = generateFlows(spec, 32, 200.0, 6);

    fault::DcnFaultSchedule faults;
    faults.killSwitch(flows[flows.size() / 3].arrival_s, edge);

    FlowSimConfig cfg;
    cfg.telemetry_window_s = 1e-5;
    const FlowSimResult r = simulateFlows(topo, profile, flows, faults, cfg);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_GT(r.failed, 0);
    // Failures reconcile through the same window accounting as
    // completions — a faulted run cannot silently leak flows.
    EXPECT_EQ(r.telemetry->totalStarted(), r.started);
    EXPECT_EQ(r.telemetry->totalCompleted(), r.completed);
    EXPECT_EQ(r.telemetry->totalFailed(), r.failed);
    EXPECT_EQ(r.telemetry->totalCompleted() +
                  r.telemetry->totalFailed(),
              r.telemetry->totalStarted());
}

TEST(FlowTelemetry, ResultsAreBitIdenticalWithTelemetryOnOrOff)
{
    // Watching the run must not change it: every behavioural field
    // compares with EXPECT_EQ, not NEAR.
    const FlowSimResult off = runWithTelemetry(0.0);
    const FlowSimResult on = runWithTelemetry(1e-5);
    EXPECT_EQ(off.telemetry, nullptr);
    ASSERT_NE(on.telemetry, nullptr);

    EXPECT_EQ(off.started, on.started);
    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.failed, on.failed);
    EXPECT_EQ(off.rerouted, on.rerouted);
    EXPECT_EQ(off.duration_s, on.duration_s);
    EXPECT_EQ(off.completed_bytes, on.completed_bytes);
    EXPECT_EQ(off.throughput_gbps, on.throughput_gbps);
    EXPECT_EQ(off.fct_avg_s, on.fct_avg_s);
    EXPECT_EQ(off.fct_max_s, on.fct_max_s);
    EXPECT_EQ(off.fct_p50_s, on.fct_p50_s);
    EXPECT_EQ(off.fct_p99_s, on.fct_p99_s);
    EXPECT_EQ(off.fct_p999_s, on.fct_p999_s);
    EXPECT_EQ(off.slowdown_avg, on.slowdown_avg);
    EXPECT_EQ(off.slowdown_p99, on.slowdown_p99);
    EXPECT_EQ(off.avg_hops, on.avg_hops);
}

TEST(FlowTelemetry, ResultsAreBitIdenticalWithFlightRecorderOnOrOff)
{
    // Same contract as the telemetry test, but for the flight
    // recorder: its per-batch SimEpoch marks must observe the run
    // without perturbing a single behavioural field.
    obs::FlightRecorder::resetForTesting();
    const FlowSimResult off = runWithTelemetry(0.0);

    obs::FlightRecorder::enable(256);
    obs::FlightRecorder::attachCurrentThread("flow-test");
    const FlowSimResult on = runWithTelemetry(0.0);
    const std::uint64_t epochs =
        obs::FlightRecorder::kindCount(obs::EventKind::SimEpoch);
    obs::FlightRecorder::detachCurrentThread();
    obs::FlightRecorder::resetForTesting();

    EXPECT_GT(epochs, 0u) << "recorder saw no flow-sim epoch marks";
    EXPECT_EQ(off.started, on.started);
    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.failed, on.failed);
    EXPECT_EQ(off.rerouted, on.rerouted);
    EXPECT_EQ(off.duration_s, on.duration_s);
    EXPECT_EQ(off.completed_bytes, on.completed_bytes);
    EXPECT_EQ(off.throughput_gbps, on.throughput_gbps);
    EXPECT_EQ(off.fct_avg_s, on.fct_avg_s);
    EXPECT_EQ(off.fct_max_s, on.fct_max_s);
    EXPECT_EQ(off.fct_p50_s, on.fct_p50_s);
    EXPECT_EQ(off.fct_p99_s, on.fct_p99_s);
    EXPECT_EQ(off.fct_p999_s, on.fct_p999_s);
    EXPECT_EQ(off.slowdown_avg, on.slowdown_avg);
    EXPECT_EQ(off.slowdown_p99, on.slowdown_p99);
    EXPECT_EQ(off.avg_hops, on.avg_hops);
}

TEST(FlowTelemetry, DumpCsvIsWellFormedLongFormat)
{
    const FlowSimResult r = runWithTelemetry(1e-5);
    ASSERT_NE(r.telemetry, nullptr);
    std::ostringstream os;
    r.telemetry->dumpCsv(os);

    std::istringstream in(os.str());
    std::string line;
    bool saw_header = false;
    std::map<std::string, int> kinds;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "record,window,scope,metric,value") {
            saw_header = true;
            continue;
        }
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4)
            << line;
        kinds[line.substr(0, line.find(','))]++;
    }
    EXPECT_TRUE(saw_header);
    EXPECT_GT(kinds["capacity"], 0);
    EXPECT_GT(kinds["window"], 0);
    EXPECT_GT(kinds["link"], 0);
    EXPECT_GT(kinds["total"], 0);
}

TEST(FlowTelemetry, NonPositiveWindowMeansNoTelemetry)
{
    const FlowSimResult r = runWithTelemetry(0.0);
    EXPECT_EQ(r.telemetry, nullptr);
}

} // namespace
} // namespace wss::flow

/**
 * @file
 * Tests for the collective-communication engine: schedule structure
 * against the textbook formulas, determinism (bit-identical builds,
 * byte-identical campaign CSV at any thread count), the three-fidelity
 * cross-check (alpha-beta == flow level on an uncongested single
 * switch, cycle-accurate fabric within quantization tolerance), the
 * parallelism-plan composer, and mid-collective fault injection.
 * Telemetry: the per-step per-rank Gantt reconciles exactly with the
 * run's counters and never perturbs the results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "coll/campaign.hpp"
#include "coll/execute.hpp"
#include "coll/plan.hpp"
#include "coll/schedule.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "fault/flow_faults.hpp"
#include "flow/dcn_topology.hpp"
#include "flow/flow_sim.hpp"
#include "flow/switch_profile.hpp"
#include "flow/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "power/ssc.hpp"
#include "topology/clos.hpp"
#include "util/json.hpp"

namespace wss::coll {
namespace {

/// Hand-built profile, as in test_flow: no calibration sweep needed.
flow::SwitchProfile
testProfile(const std::string &name, std::int64_t radix)
{
    flow::SwitchProfile p;
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

/// Messages of one step, sorted by (src, dst).
std::vector<CollMessage>
stepMessages(const Schedule &s, int step)
{
    std::vector<CollMessage> out;
    for (const auto &m : s.messages)
        if (m.step == step)
            out.push_back(m);
    std::sort(out.begin(), out.end(),
              [](const CollMessage &a, const CollMessage &b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
    return out;
}

// --- Schedules -------------------------------------------------------

TEST(CollSchedule, RingAllreduceMatchesTextbook)
{
    const int n = 8;
    const Schedule s = allReduceSchedule(Algorithm::Ring, n);
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    EXPECT_EQ(s.name(), "allreduce/ring");
    // 2(N-1) steps, N messages each, each carrying 1/N of the vector.
    EXPECT_EQ(s.steps, 2 * (n - 1));
    EXPECT_EQ(s.messages.size(),
              static_cast<std::size_t>(2 * (n - 1) * n));
    for (const auto &m : s.messages) {
        EXPECT_EQ(m.dst, (m.src + 1) % n);
        EXPECT_DOUBLE_EQ(m.fraction, 1.0 / n);
    }
    // Total traffic: 2(N-1)/N of the payload per rank.
    EXPECT_NEAR(s.bytesOnWire(1.0),
                2.0 * (n - 1) * n * (1.0 / n), 1e-12);
}

TEST(CollSchedule, RecursiveDoublingIsFullVectorXorPartners)
{
    const int n = 8;
    const Schedule s =
        allReduceSchedule(Algorithm::RecursiveDoubling, n);
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    EXPECT_EQ(s.steps, 3); // log2(8)
    for (int step = 0; step < s.steps; ++step) {
        const auto msgs = stepMessages(s, step);
        ASSERT_EQ(msgs.size(), static_cast<std::size_t>(n));
        for (const auto &m : msgs) {
            EXPECT_EQ(m.dst, m.src ^ (1 << step));
            EXPECT_DOUBLE_EQ(m.fraction, 1.0);
        }
    }
    // Non-power-of-two: the pruned hypercube just skips absent
    // partners, it must still validate.
    const Schedule odd =
        allReduceSchedule(Algorithm::RecursiveDoubling, 6);
    EXPECT_TRUE(odd.validate().empty()) << odd.validate();
}

TEST(CollSchedule, HalvingDoublingHalvesThenDoubles)
{
    const int n = 8;
    const Schedule s =
        allReduceSchedule(Algorithm::HalvingDoubling, n);
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    EXPECT_EQ(s.steps, 6); // 2 log2(8)
    // Reduce-scatter stage fractions: 1/2, 1/4, 1/8.
    for (int k = 0; k < 3; ++k) {
        const auto msgs = stepMessages(s, k);
        ASSERT_EQ(msgs.size(), static_cast<std::size_t>(n));
        for (const auto &m : msgs)
            EXPECT_DOUBLE_EQ(m.fraction, 1.0 / (1 << (k + 1)));
    }
    // All-gather stage mirrors back up: 1/8, 1/4, 1/2.
    for (int k = 0; k < 3; ++k) {
        const auto msgs = stepMessages(s, 3 + k);
        for (const auto &m : msgs)
            EXPECT_DOUBLE_EQ(m.fraction,
                             static_cast<double>(1 << k) / n);
    }
    // Rabenseifner total: 2(N-1)/N of the vector per rank, summed
    // over the N ranks.
    EXPECT_NEAR(s.bytesOnWire(1.0), 2.0 * (n - 1), 1e-9);
}

TEST(CollSchedule, TreeReducesThenBroadcasts)
{
    const int n = 8;
    const Schedule s = allReduceSchedule(Algorithm::Tree, n);
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    EXPECT_EQ(s.steps, 6); // log2(8) up + log2(8) down
    // First reduce step: odd ranks send to even neighbours.
    const auto first = stepMessages(s, 0);
    ASSERT_EQ(first.size(), static_cast<std::size_t>(n / 2));
    for (const auto &m : first) {
        EXPECT_EQ(m.src % 2, 1);
        EXPECT_EQ(m.dst, m.src - 1);
        EXPECT_DOUBLE_EQ(m.fraction, 1.0);
    }
    // Last broadcast step mirrors it.
    const auto last = stepMessages(s, s.steps - 1);
    ASSERT_EQ(last.size(), static_cast<std::size_t>(n / 2));
    for (const auto &m : last)
        EXPECT_EQ(m.src, m.dst - 1);
}

TEST(CollSchedule, AllToAllIsPairwiseExchange)
{
    const int n = 5;
    const Schedule s = allToAllSchedule(n);
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    EXPECT_EQ(s.steps, n - 1);
    // Every ordered pair exactly once, 1/N each.
    std::set<std::pair<int, int>> pairs;
    for (const auto &m : s.messages) {
        EXPECT_DOUBLE_EQ(m.fraction, 1.0 / n);
        EXPECT_TRUE(pairs.insert({m.src, m.dst}).second);
    }
    EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n * (n - 1)));
}

TEST(CollSchedule, ReduceScatterAllGatherAreRingHalves)
{
    const int n = 6;
    const Schedule rs = reduceScatterSchedule(n);
    const Schedule ag = allGatherSchedule(n);
    EXPECT_EQ(rs.steps, n - 1);
    EXPECT_EQ(ag.steps, n - 1);
    const Schedule ar = allReduceSchedule(Algorithm::Ring, n);
    EXPECT_NEAR(rs.bytesOnWire(1.0) + ag.bytesOnWire(1.0),
                ar.bytesOnWire(1.0), 1e-12);
}

TEST(CollSchedule, BuildsAreDeterministic)
{
    for (const CollSpec &spec : defaultCollSpecs()) {
        const Schedule a = buildSchedule(spec, 16);
        const Schedule b = buildSchedule(spec, 16);
        ASSERT_EQ(a.messages.size(), b.messages.size());
        for (std::size_t i = 0; i < a.messages.size(); ++i) {
            EXPECT_EQ(a.messages[i].step, b.messages[i].step);
            EXPECT_EQ(a.messages[i].src, b.messages[i].src);
            EXPECT_EQ(a.messages[i].dst, b.messages[i].dst);
            EXPECT_EQ(a.messages[i].fraction, b.messages[i].fraction);
        }
    }
}

TEST(CollSchedule, NonPowerOfTwoRanksDiesLoudly)
{
    EXPECT_DEATH(allReduceSchedule(Algorithm::HalvingDoubling, 6),
                 "power-of-two");
    EXPECT_DEATH(allReduceSchedule(Algorithm::Tree, 12),
                 "power-of-two");
    EXPECT_DEATH(allReduceSchedule(Algorithm::Ring, 1), "ranks");
}

TEST(CollSchedule, ValidateCatchesBrokenSchedules)
{
    Schedule s = allReduceSchedule(Algorithm::Ring, 4);
    EXPECT_TRUE(s.validate().empty());
    Schedule loop = s;
    loop.messages[0].dst = loop.messages[0].src;
    EXPECT_FALSE(loop.validate().empty());
    Schedule range = s;
    range.messages[0].dst = 99;
    EXPECT_FALSE(range.validate().empty());
    Schedule frac = s;
    frac.messages[0].fraction = 0.0;
    EXPECT_FALSE(frac.validate().empty());
    Schedule order = s;
    std::swap(order.messages.front(), order.messages.back());
    EXPECT_FALSE(order.validate().empty());
}

TEST(CollSchedule, AlphaBetaClosedForm)
{
    // 4-rank ring allreduce: 6 steps, max step bytes = payload/4.
    const Schedule s = allReduceSchedule(Algorithm::Ring, 4);
    const AlphaBeta cost{2e-6, 1e-9};
    const double t = alphaBetaSeconds(s, 1000.0, cost);
    EXPECT_NEAR(t, 6 * (2e-6 + 250.0 * 1e-9), 1e-15);
    // Bus-bandwidth factors.
    EXPECT_DOUBLE_EQ(busBandwidthFactor(Collective::AllReduce, 4),
                     2.0 * 3 / 4);
    EXPECT_DOUBLE_EQ(busBandwidthFactor(Collective::ReduceScatter, 4),
                     3.0 / 4);
    EXPECT_DOUBLE_EQ(busBandwidthFactor(Collective::AllToAll, 4),
                     3.0 / 4);
    EXPECT_DOUBLE_EQ(busBandwidthFactor(Collective::PointToPoint, 4),
                     1.0);
}

// --- Execution cross-check -------------------------------------------

TEST(CollExec, FlowMatchesAlphaBetaOnUncongestedSwitch)
{
    // Single 64-port switch, 8 ranks: every step's flows get the full
    // derated line rate and the zero-load path latency, so the flow
    // fidelity must land exactly on the closed-form model.
    const flow::SwitchProfile profile = testProfile("t", 64);
    const AlphaBeta cost = alphaBetaOf(profile, 200.0, 1);
    for (const CollSpec &spec : defaultCollSpecs()) {
        const Schedule s = buildSchedule(spec, 8);
        flow::DcnTopology topo =
            flow::DcnTopology::buildFatTree(8, 64, 200.0);
        ASSERT_EQ(topo.worstCaseHops(), 1) << s.name();
        const CollExecResult fr =
            executeOnDcn(s, 1 << 20, topo, profile);
        const CollExecResult mr =
            executeAlphaBeta(s, 1 << 20, cost);
        EXPECT_EQ(fr.failed_messages, 0) << s.name();
        ASSERT_GT(mr.seconds, 0.0);
        EXPECT_NEAR(fr.seconds / mr.seconds, 1.0, 1e-9) << s.name();
        EXPECT_NEAR(fr.busbw_gbps, mr.busbw_gbps,
                    1e-6 * mr.busbw_gbps)
            << s.name();
    }
}

TEST(CollExec, FabricReplayAgreesWithinQuantization)
{
    // Cycle-accurate replay on a small folded Clos: flit quantization
    // and router pipelining move the constant factors, but the two
    // fidelities must stay within the same small multiple.
    const topology::LogicalTopology fab =
        topology::buildFoldedClos({16, power::scaledSsc(8, 200.0), 1});
    sim::NetworkSpec spec;
    spec.vcs = 8;
    spec.buffer_per_port = 32;
    const flow::SwitchProfile profile = testProfile("t", 16);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 8);
    const CollExecResult fr =
        executeOnFabric(s, 8192.0, fab, spec, profile.cycle_seconds,
                        64.0);
    const CollExecResult mr = executeAlphaBeta(
        s, 8192.0, alphaBetaOf(profile, 200.0, 1));
    ASSERT_GT(fr.seconds, 0.0);
    ASSERT_GT(mr.seconds, 0.0);
    const double ratio = fr.seconds / mr.seconds;
    EXPECT_GT(ratio, 0.2) << "fabric " << fr.seconds << " model "
                          << mr.seconds;
    EXPECT_LT(ratio, 5.0) << "fabric " << fr.seconds << " model "
                          << mr.seconds;
    EXPECT_GT(fr.bytes_on_wire, 0.0);
}

TEST(CollExec, FabricReplayIsDeterministic)
{
    const topology::LogicalTopology fab =
        topology::buildFoldedClos({16, power::scaledSsc(8, 200.0), 1});
    sim::NetworkSpec spec;
    const Schedule s = allToAllSchedule(8);
    const CollExecResult a =
        executeOnFabric(s, 4096.0, fab, spec, 2.56e-9, 64.0);
    const CollExecResult b =
        executeOnFabric(s, 4096.0, fab, spec, 2.56e-9, 64.0);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.bytes_on_wire, b.bytes_on_wire);
}

TEST(CollExec, MetricsAndTraceCoverTheRun)
{
    const flow::SwitchProfile profile = testProfile("t", 64);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 8);
    obs::MetricsRegistry metrics;
    obs::TraceEventSink trace;
    CollExecConfig cfg;
    cfg.metrics = &metrics;
    cfg.trace = &trace;
    executeOnDcn(s, 1 << 16, topo, profile, cfg);
    EXPECT_EQ(metrics.counterValue("coll.steps"),
              static_cast<std::uint64_t>(s.steps));
    EXPECT_EQ(metrics.counterValue("coll.messages"),
              s.messages.size());
    // One span per step.
    EXPECT_GE(trace.size(), static_cast<std::size_t>(s.steps));
}

TEST(CollExec, FlowCollectiveAndFaultEventsUseAllocatedTracks)
{
    // One sink shared by a campaign (wall-clock spans on worker
    // tracks 0..2) and by a flow run and a collective, both with a
    // mid-run spine kill (simulated-time spans and instants): the
    // simulated-time events must never land on a worker's track.
    obs::TraceEventSink trace;
    exec::Campaign campaign;
    for (int t = 0; t < 4; ++t)
        campaign.addTask("task " + std::to_string(t), [] {});
    exec::ThreadPool pool(2);
    campaign.run(&pool, &trace);

    const flow::SwitchProfile profile = testProfile("t", 8);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(32, 8, 200.0);
    std::set<int> edges;
    for (std::int64_t h = 0; h < topo.hostCount(); ++h)
        edges.insert(topo.edgeOf(h));
    int spine = -1;
    for (int sw = 0; sw < topo.switchCount() && spine < 0; ++sw)
        if (!edges.count(sw))
            spine = sw;
    ASSERT_GE(spine, 0);

    flow::DcnWorkloadSpec spec = flow::workloadByName("websearch");
    spec.flow_count = 300;
    const auto flows = flow::generateFlows(spec, 32, 200.0, 3);
    fault::DcnFaultSchedule faults;
    faults.killSwitch(flows[flows.size() / 2].arrival_s, spine);
    flow::FlowSimConfig flow_cfg;
    flow_cfg.trace = &trace;
    flow::simulateFlows(topo, profile, flows, faults, flow_cfg);

    flow::DcnTopology coll_topo =
        flow::DcnTopology::buildFatTree(32, 8, 200.0);
    CollExecConfig coll_cfg;
    coll_cfg.trace = &trace;
    coll_cfg.fault.at_step = 2;
    coll_cfg.fault.id = spine;
    executeOnDcn(allToAllSchedule(32), 1 << 16, coll_topo, profile,
                 coll_cfg);

    std::ostringstream os;
    trace.write(os);
    const util::JsonValue root = util::JsonValue::parse(os.str(), "trace");
    std::map<std::string, int> seen;
    for (const util::JsonValue &e :
         root.find("traceEvents")->asArray("traceEvents")) {
        const std::string &phase = e.find("ph")->asString("ph");
        const util::JsonValue *cat = e.find("cat");
        if (phase == "M" || cat == nullptr)
            continue;
        const std::string &category = cat->asString("cat");
        if (category == "task")
            continue;
        ++seen[category];
        EXPECT_GE(e.find("tid")->asNumber("tid"),
                  obs::TraceEventSink::kFirstAllocatedTrack)
            << category << " event '" << e.find("name")->asString("name")
            << "' on a campaign worker's track";
    }
    EXPECT_EQ(seen["flow"], 1);
    EXPECT_EQ(seen["coll"], allToAllSchedule(32).steps);
    EXPECT_EQ(seen["fault"], 2);
}

TEST(CollExec, FaultIdOutOfRangeDiesLoudly)
{
    // A 1-tier fat tree: one switch, no trunk to kill.
    const flow::SwitchProfile profile = testProfile("t", 64);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 8);
    CollExecConfig trunk;
    trunk.fault.at_step = 2;
    trunk.fault.kill_switch = false;
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    ASSERT_EQ(topo.switchCount(), 1);
    ASSERT_TRUE(topo.links().empty());
    EXPECT_DEATH(executeOnDcn(s, 1024.0, topo, profile, trunk),
                 "fault id 0 is out of range: .* has 0 trunks");

    CollExecConfig sw;
    sw.fault.at_step = 0;
    sw.fault.id = topo.switchCount();
    EXPECT_DEATH(executeOnDcn(s, 1024.0, topo, profile, sw),
                 "fault id 1 is out of range: .* has 1 switches");
    sw.fault.id = -1;
    EXPECT_DEATH(executeOnDcn(s, 1024.0, topo, profile, sw),
                 "fault id -1 is out of range");
}

TEST(CollExec, RejectsUndersizedTopology)
{
    const flow::SwitchProfile profile = testProfile("t", 64);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(4, 64, 200.0);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 8);
    EXPECT_DEATH(executeOnDcn(s, 1024.0, topo, profile), "hosts");
    EXPECT_DEATH(executeOnDcn(s, -1.0, topo, profile), "payload");
}

// --- Fault injection -------------------------------------------------

TEST(CollFault, EdgeKillMidCollectiveFailsMessages)
{
    // Killing rank 0's edge switch before step 1 strands every later
    // message in or out of its hosts; the run must report them as
    // failed instead of hanging or crashing.
    const flow::SwitchProfile profile = testProfile("t", 8);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(16, 8, 200.0);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 16);

    CollExecConfig cfg;
    cfg.fault.at_step = 1;
    cfg.fault.kill_switch = true;
    cfg.fault.id = topo.edgeOf(0);
    const CollExecResult faulted =
        executeOnDcn(s, 1 << 16, topo, profile, cfg);
    EXPECT_GT(faulted.failed_messages, 0);

    flow::DcnTopology clean_topo =
        flow::DcnTopology::buildFatTree(16, 8, 200.0);
    const CollExecResult clean =
        executeOnDcn(s, 1 << 16, clean_topo, profile);
    EXPECT_EQ(clean.failed_messages, 0);
    EXPECT_LT(faulted.bytes_on_wire, clean.bytes_on_wire);
}

TEST(CollFault, SpineKillReroutesAndCompletes)
{
    // A dead spine leaves the fat tree connected: everything still
    // completes, possibly slower.
    const flow::SwitchProfile profile = testProfile("t", 8);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(32, 8, 200.0);
    std::set<int> edges;
    for (std::int64_t h = 0; h < topo.hostCount(); ++h)
        edges.insert(topo.edgeOf(h));
    int spine = -1;
    for (int sw = 0; sw < topo.switchCount(); ++sw)
        if (!edges.count(sw)) {
            spine = sw;
            break;
        }
    ASSERT_GE(spine, 0);

    const Schedule s = allToAllSchedule(32);
    CollExecConfig cfg;
    cfg.fault.at_step = 2;
    cfg.fault.kill_switch = true;
    cfg.fault.id = spine;
    const CollExecResult r =
        executeOnDcn(s, 1 << 16, topo, profile, cfg);
    EXPECT_EQ(r.failed_messages, 0);
    EXPECT_GT(r.seconds, 0.0);
}

// --- Parallelism plans -----------------------------------------------

TEST(CollPlan, ShapeValidation)
{
    PlanShape ok{8, 4, 2, 4};
    EXPECT_TRUE(ok.validate().empty()) << ok.validate();
    EXPECT_EQ(ok.totalRanks(), 64);
    PlanShape zero{0, 1, 1, 1};
    EXPECT_FALSE(zero.validate().empty());
    PlanShape ep{4, 1, 1, 3}; // ep must divide dp
    EXPECT_FALSE(ep.validate().empty());
}

TEST(CollPlan, DenseShapeEmitsTpPpDp)
{
    PlanShape shape{4, 2, 2, 1};
    ModelSpec model;
    model.moe_layers = 0;
    const auto plan = composeTrainingStep(shape, model);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0].label, "tp_allreduce");
    EXPECT_EQ(plan[0].group_ranks, 2);
    EXPECT_EQ(plan[0].concurrent_groups, 8);
    // 4 allreduces per layer per microbatch.
    EXPECT_EQ(plan[0].invocations,
              4L * model.layers * model.microbatches);
    EXPECT_EQ(plan[1].label, "pp_send");
    EXPECT_EQ(plan[1].collective, Collective::PointToPoint);
    EXPECT_EQ(plan[1].invocations,
              2L * (shape.pp - 1) * model.microbatches);
    EXPECT_EQ(plan[2].label, "dp_allreduce");
    EXPECT_EQ(plan[2].group_ranks, 4);
    EXPECT_EQ(plan[2].invocations, 1);
    // DP payload: each of the tp*pp shards reduces its slice.
    EXPECT_DOUBLE_EQ(plan[2].payload_bytes,
                     model.parameters * model.bytes_per_grad / 4.0);
}

TEST(CollPlan, MoEAddsAllToAllAndAxesOfOneVanish)
{
    PlanShape shape{4, 1, 1, 2};
    ModelSpec model;
    model.moe_layers = 8;
    const auto plan = composeTrainingStep(shape, model);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].label, "ep_all_to_all");
    EXPECT_EQ(plan[0].collective, Collective::AllToAll);
    EXPECT_EQ(plan[0].group_ranks, 2);
    EXPECT_EQ(plan[0].invocations,
              4L * model.moe_layers * model.microbatches);
    EXPECT_EQ(plan[1].label, "dp_allreduce");
}

TEST(CollPlan, InvalidShapeDiesLoudly)
{
    EXPECT_DEATH(composeTrainingStep(PlanShape{0, 1, 1, 1}, {}),
                 "plan");
}

TEST(CollPlan, IterationSecondsIsInvocationWeightedSum)
{
    PlanShape shape{2, 2, 1, 1};
    ModelSpec model;
    const auto plan = composeTrainingStep(shape, model);
    double expect = 0.0;
    for (const auto &e : plan)
        expect += 1e-3 * static_cast<double>(e.invocations);
    const double got = iterationSeconds(
        plan, [](const PlannedCollective &) { return 1e-3; });
    EXPECT_NEAR(got, expect, 1e-12);
}

// --- Campaign determinism --------------------------------------------

CollCampaignConfig
smallCampaign()
{
    CollCampaignConfig cfg;
    cfg.designs = {testProfile("ws-512", 512), testProfile("conv", 8)};
    cfg.ranks = 8;
    cfg.payload_bytes = {1 << 12, 1 << 16};
    return cfg;
}

TEST(CollCampaign, CsvByteIdenticalAcrossJobs)
{
    const CollCampaignConfig cfg = smallCampaign();
    std::ostringstream serial, parallel;

    {
        const CollResult r = CollCampaign(cfg).run(nullptr);
        r.writeCsv(serial);
    }
    {
        exec::ThreadPool pool(4);
        const CollResult r = CollCampaign(cfg).run(&pool);
        r.writeCsv(parallel);
    }
    EXPECT_EQ(serial.str(), parallel.str());
    EXPECT_FALSE(serial.str().empty());
}

TEST(CollCampaign, CellsCoverTheGridAndCrossCheck)
{
    const CollCampaignConfig cfg = smallCampaign();
    const CollResult r = CollCampaign(cfg).run(nullptr);
    ASSERT_EQ(r.cells.size(),
              cfg.designs.size() * cfg.collectives.size() *
                  cfg.payload_bytes.size());
    for (const auto &cell : r.cells) {
        EXPECT_GT(cell.flow.seconds, 0.0);
        EXPECT_GT(cell.model.seconds, 0.0);
        EXPECT_EQ(cell.flow.failed_messages, 0);
        // Both fat trees here are single-switch (radix >= ranks), so
        // flow == model exactly; keep a loose envelope so the test
        // also documents the cross-check contract.
        EXPECT_NEAR(cell.flow.seconds / cell.model.seconds, 1.0, 0.01)
            << cell.design << " " << cell.collective;
    }
}

TEST(CollCampaign, ObservedCellIsCampaignCell)
{
    // runCell(0, observers) is the cell run() stored — the campaign's
    // fault included — with telemetry added.
    CollCampaignConfig cfg = smallCampaign();
    cfg.designs = {testProfile("conv", 8), testProfile("ws-512", 512)};
    cfg.ranks = 16;
    cfg.fault.at_step = 1;
    cfg.fault.id = 0;
    const CollCampaign campaign(cfg);
    const CollCellResult ran = campaign.run(nullptr).cells[0];
    ASSERT_GT(ran.flow.failed_messages, 0);

    obs::TraceEventSink trace;
    obs::MetricsRegistry metrics;
    CollExecConfig exec_cfg;
    exec_cfg.telemetry = true;
    exec_cfg.trace = &trace;
    exec_cfg.metrics = &metrics;
    const CollCellResult observed = campaign.runCell(0, exec_cfg);
    ASSERT_TRUE(observed.flow.telemetry);
    EXPECT_FALSE(ran.flow.telemetry);
    EXPECT_EQ(observed.collective, ran.collective);
    EXPECT_EQ(observed.topology, ran.topology);
    EXPECT_EQ(observed.flow.seconds, ran.flow.seconds);
    EXPECT_EQ(observed.flow.algbw_gbps, ran.flow.algbw_gbps);
    EXPECT_EQ(observed.flow.busbw_gbps, ran.flow.busbw_gbps);
    EXPECT_EQ(observed.flow.steps, ran.flow.steps);
    EXPECT_EQ(observed.flow.messages, ran.flow.messages);
    EXPECT_EQ(observed.flow.bytes_on_wire, ran.flow.bytes_on_wire);
    EXPECT_EQ(observed.flow.failed_messages, ran.flow.failed_messages);
    EXPECT_EQ(observed.model.seconds, ran.model.seconds);
}

TEST(CollCampaign, RejectsBadConfigs)
{
    CollCampaignConfig empty = smallCampaign();
    empty.designs.clear();
    EXPECT_DEATH(CollCampaign{empty}, "axis");
    CollCampaignConfig one = smallCampaign();
    one.ranks = 1;
    EXPECT_DEATH(CollCampaign{one}, "ranks");
    CollCampaignConfig payload = smallCampaign();
    payload.payload_bytes = {0.0};
    EXPECT_DEATH(CollCampaign{payload}, "payload");
    // Power-of-two-only algorithms are rejected before any worker
    // starts.
    CollCampaignConfig odd = smallCampaign();
    odd.ranks = 6;
    EXPECT_DEATH(CollCampaign{odd}, "power-of-two");
    // 2 designs x 4 collectives x 2 payloads: index 16 is past the
    // grid.
    EXPECT_DEATH(CollCampaign(smallCampaign()).runCell(16),
                 "out of range");
}

TEST(CollCampaign, UnsupportedSpecDiesLoudly)
{
    EXPECT_DEATH(
        buildSchedule({Collective::ReduceScatter, Algorithm::Tree}, 8),
        "no");
}

// --- Telemetry -------------------------------------------------------

TEST(CollTelemetry, StepsReconcileExactlyWithTheResult)
{
    const flow::SwitchProfile profile = testProfile("t", 64);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 8);
    CollExecConfig cfg;
    cfg.telemetry = true;
    const CollExecResult r = executeOnDcn(s, 1 << 20, topo, profile, cfg);
    ASSERT_NE(r.telemetry, nullptr);
    const CollTelemetry &t = *r.telemetry;

    EXPECT_EQ(t.ranks, 8);
    ASSERT_EQ(static_cast<int>(t.steps.size()), r.steps);
    EXPECT_EQ(t.totalMessages(), r.messages);
    EXPECT_EQ(t.totalFailed(), r.failed_messages);
    // Step-order accumulation, so bit-identical — EXPECT_EQ, not
    // NEAR.
    EXPECT_EQ(t.totalBytes(), r.bytes_on_wire);

    // The Gantt data is populated and causally ordered: step k+1's
    // barrier releases when step k's slowest flow is done.
    double clock = 0.0;
    for (const CollTelemetry::Step &step : t.steps) {
        EXPECT_EQ(step.start_s, clock);
        EXPECT_GT(step.seconds, 0.0);
        EXPECT_GT(step.messages, 0);
        ASSERT_EQ(step.rank_busy_s.size(), 8u);
        ASSERT_EQ(step.rank_bytes.size(), 8u);
        double busiest = 0.0;
        for (double busy : step.rank_busy_s) {
            EXPECT_GE(busy, 0.0);
            busiest = std::max(busiest, busy);
        }
        // The step span is its slowest rank's slowest flow.
        EXPECT_LE(busiest, step.seconds + 1e-12);
        clock += step.seconds;
    }
    EXPECT_NEAR(clock, r.seconds, 1e-12 * std::max(1.0, r.seconds));
}

TEST(CollTelemetry, FaultedRunAccountsFailedMessages)
{
    const flow::SwitchProfile profile = testProfile("t", 8);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(16, 8, 200.0);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 16);
    CollExecConfig cfg;
    cfg.telemetry = true;
    cfg.fault.at_step = 1;
    cfg.fault.kill_switch = true;
    cfg.fault.id = topo.edgeOf(0);
    const CollExecResult r = executeOnDcn(s, 1 << 16, topo, profile, cfg);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_GT(r.failed_messages, 0);
    EXPECT_EQ(r.telemetry->totalFailed(), r.failed_messages);
    EXPECT_EQ(r.telemetry->totalMessages(), r.messages);
    EXPECT_EQ(r.telemetry->totalBytes(), r.bytes_on_wire);
    // Failures only exist from the faulted step onward.
    for (const CollTelemetry::Step &step : r.telemetry->steps) {
        if (step.step < cfg.fault.at_step) {
            EXPECT_EQ(step.failed, 0) << "step " << step.step;
        }
    }
}

TEST(CollTelemetry, ResultsAreBitIdenticalWithTelemetryOnOrOff)
{
    const flow::SwitchProfile profile = testProfile("t", 64);
    const Schedule s = allToAllSchedule(8);

    flow::DcnTopology topo_off =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    const CollExecResult off =
        executeOnDcn(s, 1 << 20, topo_off, profile);

    flow::DcnTopology topo_on =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    CollExecConfig cfg;
    cfg.telemetry = true;
    const CollExecResult on =
        executeOnDcn(s, 1 << 20, topo_on, profile, cfg);

    EXPECT_EQ(off.telemetry, nullptr);
    ASSERT_NE(on.telemetry, nullptr);
    EXPECT_EQ(off.seconds, on.seconds);
    EXPECT_EQ(off.algbw_gbps, on.algbw_gbps);
    EXPECT_EQ(off.busbw_gbps, on.busbw_gbps);
    EXPECT_EQ(off.steps, on.steps);
    EXPECT_EQ(off.messages, on.messages);
    EXPECT_EQ(off.bytes_on_wire, on.bytes_on_wire);
    EXPECT_EQ(off.failed_messages, on.failed_messages);
}

TEST(CollTelemetry, ResultsAreBitIdenticalWithFlightRecorderOnOrOff)
{
    // The recorder's per-step SimEpoch marks must not perturb the
    // collective model: every result field compares exactly.
    const flow::SwitchProfile profile = testProfile("t", 64);
    const Schedule s = allToAllSchedule(8);

    obs::FlightRecorder::resetForTesting();
    flow::DcnTopology topo_off =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    const CollExecResult off =
        executeOnDcn(s, 1 << 20, topo_off, profile);

    obs::FlightRecorder::enable(256);
    obs::FlightRecorder::attachCurrentThread("coll-test");
    flow::DcnTopology topo_on =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    const CollExecResult on =
        executeOnDcn(s, 1 << 20, topo_on, profile);
    const std::uint64_t epochs =
        obs::FlightRecorder::kindCount(obs::EventKind::SimEpoch);
    obs::FlightRecorder::detachCurrentThread();
    obs::FlightRecorder::resetForTesting();

    EXPECT_GT(epochs, 0u) << "recorder saw no collective step marks";
    EXPECT_EQ(off.seconds, on.seconds);
    EXPECT_EQ(off.algbw_gbps, on.algbw_gbps);
    EXPECT_EQ(off.busbw_gbps, on.busbw_gbps);
    EXPECT_EQ(off.steps, on.steps);
    EXPECT_EQ(off.messages, on.messages);
    EXPECT_EQ(off.bytes_on_wire, on.bytes_on_wire);
    EXPECT_EQ(off.failed_messages, on.failed_messages);
}

TEST(CollTelemetry, DumpCsvIsWellFormedLongFormat)
{
    const flow::SwitchProfile profile = testProfile("t", 64);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 8);
    CollExecConfig cfg;
    cfg.telemetry = true;
    const CollExecResult r = executeOnDcn(s, 1 << 20, topo, profile, cfg);
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
        if (line == "record,step,scope,metric,value") {
            saw_header = true;
            continue;
        }
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4)
            << line;
        kinds[line.substr(0, line.find(','))]++;
    }
    EXPECT_TRUE(saw_header);
    EXPECT_GT(kinds["step"], 0);
    EXPECT_GT(kinds["rank"], 0);
    EXPECT_GT(kinds["total"], 0);
}

TEST(CollTelemetry, PerRankTraceTracksDoNotCollide)
{
    const flow::SwitchProfile profile = testProfile("t", 64);
    flow::DcnTopology topo =
        flow::DcnTopology::buildFatTree(8, 64, 200.0);
    const Schedule s = allReduceSchedule(Algorithm::Ring, 8);
    obs::TraceEventSink trace;
    // Claim a track first, as wss coll does for its campaign lanes:
    // telemetry tracks must allocate around it, never on top of it.
    const int claimed = trace.allocateTrack("campaign");
    CollExecConfig cfg;
    cfg.telemetry = true;
    cfg.trace = &trace;
    cfg.trace_label = "coll-observed";
    executeOnDcn(s, 1 << 20, topo, profile, cfg);
    EXPECT_GE(trace.size(), 1u);
    EXPECT_GE(claimed, obs::TraceEventSink::kFirstAllocatedTrack);
    // The sink still owns the namespace: the claimed track survives
    // and fresh names land on fresh ids.
    EXPECT_EQ(trace.allocateTrack("campaign"), claimed);
    EXPECT_NE(trace.allocateTrack("fresh-after-run"), claimed);
}

} // namespace
} // namespace wss::coll

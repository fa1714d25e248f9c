/**
 * @file
 * Tests for the observability layer: metrics registry semantics
 * (handle aliasing, histogram bucket edges, snapshot deltas),
 * Chrome-trace JSON well-formedness (parsed back
 * by util::JsonValue), trace-content determinism across
 * thread counts, flush-checked artifact writing, and the contract
 * that observability never perturbs simulation results. Phase 2
 * additions: the hierarchical Profiler (nesting, merge re-rooting,
 * null-handle no-op), RunManifest provenance (round-trip, the
 * timestamp-free identity hash), sink-owned trace-track allocation,
 * and the `wss report` engine's health checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "obs/crash_dump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"
#include "obs/report.hpp"
#include "obs/run_manifest.hpp"
#include "obs/sim_observation.hpp"
#include "obs/trace_event.hpp"
#include "power/ssc.hpp"
#include "sim/load_sweep.hpp"
#include "sim/simulator.hpp"
#include "topology/clos.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wss::obs {
namespace {

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(Metrics, CounterHandlesAliasTheSameCell)
{
    MetricsRegistry reg;
    Counter a = reg.counter("events");
    Counter b = reg.counter("events");
    a.inc();
    b.inc(4);
    EXPECT_EQ(reg.counterValue("events"), 5u);
    EXPECT_TRUE(a.enabled());
}

TEST(Metrics, DefaultHandlesAreDisabledNoOps)
{
    Counter c;
    Histogram h;
    EXPECT_FALSE(c.enabled());
    EXPECT_FALSE(h.enabled());
    // Must be safe to call (the whole point of the null-handle
    // design: instrumented code never branches on an "observing?"
    // flag).
    c.inc();
    c.inc(100);
    h.record(1.5);
}

TEST(Metrics, HandlesSurviveRegistryGrowthAndMove)
{
    MetricsRegistry reg;
    Counter first = reg.counter("a");
    // Force map growth: the node holding "a" must not move.
    for (int i = 0; i < 200; ++i)
        reg.counter("grow" + std::to_string(i));
    first.inc(3);
    MetricsRegistry moved = std::move(reg);
    first.inc(2);
    EXPECT_EQ(moved.counterValue("a"), 5u);
}

TEST(Histogram, BucketEdgesAreLessOrEqual)
{
    MetricsRegistry reg;
    Histogram h = reg.histogram("occ", {0.0, 1.0, 4.0});
    // Exactly on an edge counts in that bucket ("le" semantics).
    h.record(0.0);  // bucket 0 (v <= 0)
    h.record(1.0);  // bucket 1 (v <= 1)
    h.record(0.5);  // bucket 1
    h.record(4.0);  // bucket 2 (v <= 4)
    h.record(4.5);  // overflow
    h.record(-1.0); // bucket 0
    const HistogramData *data = reg.findHistogram("occ");
    ASSERT_NE(data, nullptr);
    ASSERT_EQ(data->buckets.size(), 4u);
    EXPECT_EQ(data->buckets[0], 2u);
    EXPECT_EQ(data->buckets[1], 2u);
    EXPECT_EQ(data->buckets[2], 1u);
    EXPECT_EQ(data->buckets[3], 1u); // overflow
    EXPECT_EQ(data->count, 6u);
    EXPECT_DOUBLE_EQ(data->sum, 9.0);
    EXPECT_DOUBLE_EQ(data->min, -1.0);
    EXPECT_DOUBLE_EQ(data->max, 4.5);
}

TEST(Histogram, RejectsBadEdgesDiesLoudly)
{
    EXPECT_EXIT(
        {
            MetricsRegistry reg;
            reg.histogram("bad", {3.0, 1.0});
        },
        ::testing::ExitedWithCode(1), "strictly ascending");
    EXPECT_EXIT(
        {
            MetricsRegistry reg;
            reg.histogram("empty", {});
        },
        ::testing::ExitedWithCode(1), "at least one bucket edge");
    EXPECT_EXIT(
        {
            MetricsRegistry reg;
            reg.histogram("h", {1.0, 2.0});
            reg.histogram("h", {1.0, 3.0});
        },
        ::testing::ExitedWithCode(1), "different bucket edges");
}

TEST(Metrics, SnapshotDeltaIsPerPhaseArithmetic)
{
    MetricsRegistry reg;
    Counter c = reg.counter("flits");
    c.inc(10);
    const MetricsSnapshot warmup_end = reg.snapshot();
    c.inc(25);
    reg.counter("late").inc(2); // appears only after the baseline
    const MetricsSnapshot measure_end = reg.snapshot();
    const MetricsSnapshot delta =
        MetricsSnapshot::delta(measure_end, warmup_end);
    EXPECT_EQ(delta.value("flits"), 25u);
    EXPECT_EQ(delta.value("late"), 2u);
    EXPECT_EQ(delta.value("absent"), 0u);
}

// ---------------------------------------------------------------------
// Traces and reports parsed back through util::JsonValue into a plain
// tree the assertions below can walk.
// ---------------------------------------------------------------------

struct Json
{
    enum Kind
    {
        Null,
        Boolean,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    const Json *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

Json
toJson(const util::JsonValue &v)
{
    using Kind = util::JsonValue::Kind;
    Json out;
    switch (v.kind()) {
    case Kind::Null: break;
    case Kind::Bool:
        out.kind = Json::Boolean;
        out.boolean = v.asBool("test");
        break;
    case Kind::Number:
        out.kind = Json::Number;
        out.number = v.asNumber("test");
        break;
    case Kind::String:
        out.kind = Json::String;
        out.string = v.asString("test");
        break;
    case Kind::Array:
        out.kind = Json::Array;
        for (const util::JsonValue &e : v.asArray("test"))
            out.array.push_back(toJson(e));
        break;
    case Kind::Object:
        out.kind = Json::Object;
        for (const auto &[key, e] : v.asObject("test"))
            out.object.emplace_back(key, toJson(e));
        break;
    }
    return out;
}

Json
parseJson(const std::string &text)
{
    return toJson(util::JsonValue::parse(text, "test JSON"));
}

Json
parseTrace(const TraceEventSink &sink)
{
    std::ostringstream os;
    sink.write(os);
    return parseJson(os.str());
}

// ---------------------------------------------------------------------
// TraceEventSink
// ---------------------------------------------------------------------

TEST(TraceEvent, WritesWellFormedJsonParsedBack)
{
    TraceEventSink sink;
    sink.setProcessName("wss test");
    sink.setThreadName(0, "worker 0");
    sink.complete("cell \"a\"\n", "sweep", 0, 100, 50,
                  {TraceArg::num("rate", 0.25),
                   TraceArg::str("job", "uniform\\shuffle"),
                   TraceArg::num("rep", std::int64_t{3})});
    sink.instant("link 5 down", "fault", 0, 1234,
                 {TraceArg::num("link", std::int64_t{5})});
    EXPECT_EQ(sink.size(), 4u);

    const Json root = parseTrace(sink);
    ASSERT_EQ(root.kind, Json::Object);
    const Json *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, Json::Array);
    ASSERT_EQ(events->array.size(), 4u);

    // Metadata sorts first.
    EXPECT_EQ(events->array[0].find("ph")->string, "M");
    EXPECT_EQ(events->array[1].find("ph")->string, "M");
    EXPECT_EQ(events->array[0].find("name")->string, "process_name");

    // The span round-trips its escapes and args exactly.
    const Json &span = events->array[2];
    EXPECT_EQ(span.find("ph")->string, "X");
    EXPECT_EQ(span.find("name")->string, "cell \"a\"\n");
    EXPECT_EQ(span.find("cat")->string, "sweep");
    EXPECT_DOUBLE_EQ(span.find("ts")->number, 100.0);
    EXPECT_DOUBLE_EQ(span.find("dur")->number, 50.0);
    const Json *args = span.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("rate")->kind, Json::Number);
    EXPECT_DOUBLE_EQ(args->find("rate")->number, 0.25);
    EXPECT_EQ(args->find("job")->string, "uniform\\shuffle");
    EXPECT_DOUBLE_EQ(args->find("rep")->number, 3.0);

    // The instant carries the "s" scope field Perfetto requires.
    const Json &instant = events->array[3];
    EXPECT_EQ(instant.find("ph")->string, "i");
    EXPECT_EQ(instant.find("s")->string, "t");
    EXPECT_DOUBLE_EQ(instant.find("ts")->number, 1234.0);
}

TEST(TraceEvent, NonFiniteNumbersBecomeStrings)
{
    TraceEventSink sink;
    sink.instant("x", "t", 0, 0,
                 {TraceArg::num("inf",
                                std::numeric_limits<double>::infinity()),
                  TraceArg::num("nan",
                                std::numeric_limits<double>::quiet_NaN())});
    // Must still parse as JSON (no bare inf/nan literals).
    const Json root = parseTrace(sink);
    const Json *args = root.find("traceEvents")->array[0].find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("inf")->kind, Json::String);
    EXPECT_EQ(args->find("nan")->kind, Json::String);
}

TEST(TraceEvent, EventsSortChronologicallyAfterMetadata)
{
    TraceEventSink sink;
    sink.instant("late", "t", 0, 300);
    sink.instant("early", "t", 0, 100);
    sink.setProcessName("p"); // recorded last, sorts first
    const Json root = parseTrace(sink);
    const auto &events = root.find("traceEvents")->array;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].find("ph")->string, "M");
    EXPECT_EQ(events[1].find("name")->string, "early");
    EXPECT_EQ(events[2].find("name")->string, "late");
}

/// Multiset of deterministic event content: (ph, name, cat, args as
/// written), metadata excluded. Timestamps and tid legitimately vary
/// with scheduling; everything here must not.
std::multiset<std::string>
eventContent(const TraceEventSink &sink)
{
    const Json root = parseTrace(sink);
    std::multiset<std::string> content;
    for (const Json &e : root.find("traceEvents")->array) {
        if (e.find("ph")->string == "M")
            continue;
        std::string line = e.find("ph")->string + "|" +
                           e.find("name")->string + "|";
        if (const Json *cat = e.find("cat"))
            line += cat->string;
        line += "|";
        if (const Json *args = e.find("args"))
            for (const auto &[k, v] : args->object) {
                line += k + "=";
                line += v.kind == Json::String
                            ? v.string
                            : std::to_string(v.number);
                line += ";";
            }
        content.insert(std::move(line));
    }
    return content;
}

exec::SweepJob
tinySweepJob()
{
    // Shared topology/spec via shared_ptr: the factories outlive this
    // function.
    auto topo = std::make_shared<topology::LogicalTopology>(
        topology::buildFoldedClos({8, power::scaledSsc(8, 200.0), 1}));
    sim::NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 8;
    exec::SweepJob job;
    job.make_network = [topo, spec](std::uint64_t seed) {
        return std::make_unique<sim::Network>(*topo, spec, seed);
    };
    job.make_workload = [](double rate, std::uint64_t) {
        return std::make_unique<sim::SyntheticWorkload>(
            sim::uniformTraffic(8), rate, 1);
    };
    job.rates = {0.1, 0.4};
    job.cfg.warmup = 200;
    job.cfg.measure = 800;
    job.cfg.drain_limit = 8000;
    job.cfg.seed = 5;
    job.repetitions = 2;
    return job;
}

TEST(TraceEvent, CampaignContentIsIdenticalAtAnyThreadCount)
{
    exec::Campaign campaign;
    campaign.addSweep("uniform", tinySweepJob());
    campaign.addTask("solve", [] {});

    TraceEventSink serial_sink;
    exec::ThreadPool one(1);
    campaign.run(&one, &serial_sink);

    TraceEventSink parallel_sink;
    exec::ThreadPool four(4);
    campaign.run(&four, &parallel_sink);

    const auto serial = eventContent(serial_sink);
    const auto parallel = eventContent(parallel_sink);
    EXPECT_EQ(serial, parallel);
    // 2 rates x 2 reps + 1 task = 5 spans.
    EXPECT_EQ(serial.size(), 5u);
}

// ---------------------------------------------------------------------
// Artifact writing
// ---------------------------------------------------------------------

TEST(Artifact, WriteArtifactFileRoundTrips)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "wss_obs_artifact.txt")
            .string();
    util::writeArtifactFile(path, "test", [](std::ostream &os) {
        os << "line one\nline two\n";
    });
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), "line one\nline two\n");
    std::remove(path.c_str());
}

TEST(Artifact, CampaignCsvFileIsCompleteOnDisk)
{
    // The regression the flush-checked writers exist for: a fatal()
    // after writeCsvFile must never leave a truncated artifact. The
    // file-writing path flushes, closes and verifies before
    // returning, so by the time control is back the bytes are down.
    exec::Campaign campaign;
    campaign.addSweep("uniform", tinySweepJob());
    const exec::CampaignResult result = campaign.run();

    std::ostringstream expected;
    result.writeCsv(expected);

    const std::string path =
        (std::filesystem::temp_directory_path() / "wss_obs_campaign.csv")
            .string();
    result.writeCsvFile(path);
    std::ifstream in(path);
    std::stringstream on_disk;
    on_disk << in.rdbuf();
    EXPECT_EQ(on_disk.str(), expected.str());
    EXPECT_FALSE(on_disk.str().empty());
    EXPECT_EQ(on_disk.str().back(), '\n');
    std::remove(path.c_str());
}

TEST(Artifact, UnwritablePathDiesLoudly)
{
    EXPECT_EXIT(util::writeArtifactFile(
                    "/nonexistent-dir/deeper/out.csv", "test",
                    [](std::ostream &) {}),
                ::testing::ExitedWithCode(1), "cannot open");
}

// ---------------------------------------------------------------------
// Simulator observation
// ---------------------------------------------------------------------

struct ObservedRun
{
    sim::SimResult result;
    std::shared_ptr<const SimObservation> obs;
};

ObservedRun
runObserved(double rate, bool observe, sim::Cycle sample_every = 0)
{
    const auto topo =
        topology::buildFoldedClos({8, power::scaledSsc(8, 200.0), 1});
    sim::NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 8;
    sim::Network net(topo, spec, 21);
    sim::SyntheticWorkload workload(sim::uniformTraffic(8), rate, 2);
    sim::SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.drain_limit = 12000;
    cfg.seed = 33;
    cfg.observe = observe;
    cfg.observe_sample_every = sample_every;
    sim::Simulator sim(net, workload, cfg);
    ObservedRun run;
    run.result = sim.run();
    run.obs = run.result.observation;
    return run;
}

TEST(SimObservation, ResultsAreBitIdenticalWithObservabilityOnOrOff)
{
    const ObservedRun off = runObserved(0.5, false);
    const ObservedRun on = runObserved(0.5, true, 100);
    EXPECT_EQ(off.obs, nullptr);
    ASSERT_NE(on.obs, nullptr);

    // Observation must never perturb simulated behaviour: every
    // statistic matches bit-for-bit.
    EXPECT_EQ(off.result.avg_packet_latency,
              on.result.avg_packet_latency);
    EXPECT_EQ(off.result.p99_packet_latency,
              on.result.p99_packet_latency);
    EXPECT_EQ(off.result.avg_network_latency,
              on.result.avg_network_latency);
    EXPECT_EQ(off.result.avg_hops, on.result.avg_hops);
    EXPECT_EQ(off.result.offered, on.result.offered);
    EXPECT_EQ(off.result.accepted, on.result.accepted);
    EXPECT_EQ(off.result.packets_measured, on.result.packets_measured);
    EXPECT_EQ(off.result.packets_finished, on.result.packets_finished);
    EXPECT_EQ(off.result.stable, on.result.stable);
    EXPECT_EQ(off.result.end_cycle, on.result.end_cycle);
    EXPECT_EQ(off.result.flits_delivered, on.result.flits_delivered);
    EXPECT_EQ(off.result.flits_injected, on.result.flits_injected);
}

TEST(SimObservation, CountersReconcileWithSimResult)
{
    const ObservedRun run = runObserved(0.5, true);
    ASSERT_NE(run.obs, nullptr);
    // Delivered-flit counters bump at the exact ejection event the
    // scalar uses, so the totals reconcile exactly — the CLI panics
    // on any mismatch.
    EXPECT_EQ(run.obs->totalCounter("flits_delivered"),
              static_cast<std::uint64_t>(run.result.flits_delivered));
    // Per-phase deltas partition the cumulative total.
    EXPECT_EQ(
        run.obs->totalCounter("flits_delivered", SimPhase::Warmup) +
            run.obs->totalCounter("flits_delivered",
                                  SimPhase::Measure) +
            run.obs->totalCounter("flits_delivered", SimPhase::Drain),
        run.obs->totalCounter("flits_delivered"));
    // Every delivered flit traversed at least one router crossbar.
    EXPECT_GE(run.obs->totalCounter("flits_routed"),
              run.obs->totalCounter("flits_delivered"));
}

TEST(SimObservation, PhasesLinksAndHistogramsArePopulated)
{
    const ObservedRun run = runObserved(0.6, true);
    const SimObservation &obs = *run.obs;
    EXPECT_GT(obs.routers, 0u);
    EXPECT_GT(obs.links, 0u);
    EXPECT_EQ(obs.link_channel_count.size(), obs.links);

    EXPECT_EQ(obs.phase_cycles[0], 300);
    EXPECT_EQ(obs.phase_cycles[1], 1200);
    EXPECT_GT(obs.phase_cycles[2], 0);

    // Traffic flowed in the measurement phase over some link, and
    // per-channel utilization is a fraction.
    std::uint64_t measure_flits = 0;
    for (std::size_t l = 0; l < obs.links; ++l) {
        measure_flits += obs.link_flits[1][l];
        const double u = obs.linkUtilization(SimPhase::Measure, l);
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_GT(measure_flits, 0u);

    // Buffer-occupancy histograms exist for every router and saw one
    // sample per simulated cycle.
    const std::int64_t total_cycles =
        obs.phase_cycles[0] + obs.phase_cycles[1] + obs.phase_cycles[2];
    for (std::size_t r = 0; r < obs.routers; ++r) {
        std::string name = "r";
        name += std::to_string(r);
        name += ".buffer_occupancy";
        const HistogramData *h = obs.registry.findHistogram(name);
        ASSERT_NE(h, nullptr) << "router " << r;
        EXPECT_EQ(h->count, static_cast<std::uint64_t>(total_cycles));
    }
}

TEST(SimObservation, TimelineSamplesAtTheRequestedPeriod)
{
    const ObservedRun run = runObserved(0.4, true, 250);
    const SimObservation &obs = *run.obs;
    ASSERT_FALSE(obs.timeline.empty());
    for (std::size_t i = 0; i < obs.timeline.size(); ++i) {
        EXPECT_EQ(obs.timeline[i].cycle,
                  static_cast<std::int64_t>(i) * 250);
        EXPECT_GE(obs.timeline[i].flits_offered,
                  obs.timeline[i].flits_accepted);
    }
    // No sampling requested -> no series.
    const ObservedRun plain = runObserved(0.4, true, 0);
    EXPECT_TRUE(plain.obs->timeline.empty());
}

TEST(SimObservation, DumpCsvIsWellFormedLongFormat)
{
    const ObservedRun run = runObserved(0.5, true, 500);
    std::ostringstream os;
    run.obs->dumpCsv(os);
    const std::string csv = os.str();
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv.back(), '\n');

    std::istringstream in(csv);
    std::string line;
    bool saw_header = false;
    std::map<std::string, int> kinds;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "record,phase,scope,metric,value") {
            saw_header = true;
            continue;
        }
        // Exactly four commas per data row (no embedded commas in
        // any scope/metric name).
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4)
            << line;
        kinds[line.substr(0, line.find(','))]++;
    }
    EXPECT_TRUE(saw_header);
    EXPECT_GT(kinds["phase"], 0);
    EXPECT_GT(kinds["counter"], 0);
    EXPECT_GT(kinds["link"], 0);
    EXPECT_GT(kinds["hist"], 0);
    EXPECT_GT(kinds["sample"], 0);
}

TEST(SimObservation, PhaseNameDisambiguates)
{
    EXPECT_STREQ(phaseName(SimPhase::Warmup), "warmup");
    EXPECT_STREQ(phaseName(SimPhase::Measure), "measure");
    EXPECT_STREQ(phaseName(SimPhase::Drain), "drain");
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

/// Busy-wait so a phase accumulates a nonzero, orderable duration.
void
spinFor(double seconds)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST(Profiler, NestingProducesSlashJoinedPaths)
{
    Profiler p;
    {
        ScopedPhase outer(&p, "flow-sim");
        spinFor(2e-4);
        for (int i = 0; i < 3; ++i) {
            ScopedPhase inner(&p, "waterfill");
            spinFor(1e-4);
        }
    }
    EXPECT_FALSE(p.open());
    ASSERT_EQ(p.phases().size(), 2u);
    const auto &outer = p.phases().at("flow-sim");
    const auto &inner = p.phases().at("flow-sim/waterfill");
    EXPECT_EQ(outer.calls, 1);
    EXPECT_EQ(inner.calls, 3);
    // Single-threaded: a parent's inclusive time covers its children.
    EXPECT_GE(outer.seconds, inner.seconds);
    EXPECT_GT(inner.seconds, 0.0);
}

TEST(Profiler, NullHandleScopesAreNoOps)
{
    // The whole point of the null-handle contract: call sites
    // instrument unconditionally and pay one branch when off.
    ScopedPhase defaulted;
    ScopedPhase nulled(nullptr, "anything");
    Profiler p;
    {
        ScopedPhase real(&p, "real");
    }
    EXPECT_EQ(p.phases().size(), 1u);
}

TEST(Profiler, SelfTimeSubtractsDirectChildrenOnly)
{
    Profiler p;
    {
        ScopedPhase a(&p, "a");
        spinFor(1e-4);
        {
            ScopedPhase b(&p, "b");
            {
                ScopedPhase c(&p, "c");
                spinFor(1e-4);
            }
        }
    }
    // Self time of "a" subtracts "a/b" (direct child) but not
    // "a/b/c" — the grandchild is already inside "a/b".
    EXPECT_DOUBLE_EQ(p.selfSeconds("a"),
                     p.totalSeconds("a") - p.totalSeconds("a/b"));
    EXPECT_DOUBLE_EQ(p.selfSeconds("a/b/c"), p.totalSeconds("a/b/c"));
    EXPECT_DOUBLE_EQ(p.totalSeconds("absent"), 0.0);
}

TEST(Profiler, MergeSumsPathsAndReRootsUnderPrefix)
{
    // Two workers each profile the same phase; the owner folds them
    // in under a "campaign" prefix, exactly as exec::Campaign does.
    Profiler w1, w2;
    {
        ScopedPhase s(&w1, "cell");
        spinFor(1e-4);
    }
    {
        ScopedPhase s(&w2, "cell");
        spinFor(1e-4);
    }
    const double sum = w1.phases().at("cell").seconds +
                       w2.phases().at("cell").seconds;

    Profiler owner;
    owner.merge(w1, "campaign");
    owner.merge(w2, "campaign");
    ASSERT_EQ(owner.phases().count("campaign/cell"), 1u);
    const auto &merged = owner.phases().at("campaign/cell");
    EXPECT_EQ(merged.calls, 2);
    EXPECT_DOUBLE_EQ(merged.seconds, sum);
}

TEST(Profiler, MergeNestsUnderTheOpenPhase)
{
    // calibrateSwitchProfile times "calibrate" and merges the sweep's
    // worker profilers while that phase is open — their paths must
    // land below it so the summary reads as one tree.
    Profiler worker;
    {
        ScopedPhase s(&worker, "point");
        spinFor(1e-4);
    }
    Profiler owner;
    owner.enter("calibrate");
    owner.merge(worker, "sweep");
    owner.exit();
    EXPECT_EQ(owner.phases().count("calibrate/sweep/point"), 1u);
    EXPECT_EQ(owner.phases().count("sweep/point"), 0u);
}

TEST(Profiler, MisuseDiesLoudly)
{
    EXPECT_DEATH(
        {
            Profiler p;
            p.enter("a/b");
        },
        "'/'-free");
    EXPECT_DEATH(
        {
            Profiler p;
            p.exit();
        },
        "without a matching enter");
    EXPECT_DEATH(
        {
            Profiler src;
            src.enter("open");
            Profiler dst;
            dst.merge(src);
        },
        "open phases");
}

TEST(Profiler, SummaryAndTraceExportTheAggregate)
{
    Profiler p;
    {
        ScopedPhase a(&p, "outer");
        spinFor(1e-4);
        ScopedPhase b(&p, "inner");
        spinFor(1e-4);
    }
    std::ostringstream summary;
    p.writeSummary(summary);
    EXPECT_NE(summary.str().find("outer"), std::string::npos);
    EXPECT_NE(summary.str().find("outer/inner"), std::string::npos);

    TraceEventSink sink;
    p.addToTrace(sink, sink.allocateTrack("profile"));
    const Json root = parseTrace(sink);
    std::map<std::string, double> span_us;
    for (const Json &e : root.find("traceEvents")->array) {
        if (e.find("ph")->string != "X")
            continue;
        span_us[e.find("name")->string] = e.find("dur")->number;
    }
    ASSERT_EQ(span_us.count("outer"), 1u);
    ASSERT_EQ(span_us.count("inner"), 1u);
    // Synthetic layout preserves the hierarchy's inclusion relation.
    EXPECT_GE(span_us["outer"], span_us["inner"]);
}

// ---------------------------------------------------------------------
// RunManifest
// ---------------------------------------------------------------------

std::string
writeTempFile(const std::string &name, const std::string &content)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / name).string();
    std::ofstream os(path);
    os << content;
    os.close();
    return path;
}

TEST(RunManifest, RoundTripsThroughJsonFile)
{
    const std::string artifact =
        writeTempFile("wss_manifest_artifact.csv", "a,b\n1,2\n");

    RunManifest manifest("wss test");
    manifest.setConfig("arg.hosts", static_cast<std::int64_t>(64));
    manifest.setConfig("arg.load", 0.5);
    manifest.setConfig("arg.workloads", "websearch");
    manifest.setSeed(0xdeadbeefull);
    manifest.setJobs(4);
    manifest.addArtifact(artifact, "campaign-csv");
    manifest.addPhaseSeconds("campaign", 1.25, 3);

    const std::string path = (std::filesystem::temp_directory_path() /
                              "wss_manifest_roundtrip.json")
                                 .string();
    manifest.writeJsonFile(path);
    const RunManifest loaded = RunManifest::loadJsonFile(path);

    EXPECT_EQ(loaded.tool(), "wss test");
    EXPECT_EQ(loaded.seed(), 0xdeadbeefull);
    EXPECT_EQ(loaded.jobs(), 4);
    EXPECT_EQ(loaded.config().at("arg.hosts"), "64");
    EXPECT_EQ(loaded.config().at("arg.workloads"), "websearch");
    // The constructor records build provenance automatically.
    EXPECT_EQ(loaded.config().count("build.compiler"), 1u);
    ASSERT_EQ(loaded.artifacts().size(), 1u);
    EXPECT_EQ(loaded.artifacts()[0].kind, "campaign-csv");
    EXPECT_EQ(loaded.artifacts()[0].bytes, 8u);
    EXPECT_EQ(loaded.artifacts()[0].hash,
              RunManifest::hashBytes("a,b\n1,2\n"));
    ASSERT_EQ(loaded.phases().size(), 1u);
    EXPECT_EQ(loaded.phases()[0].path, "campaign");
    EXPECT_EQ(loaded.phases()[0].calls, 3);
    EXPECT_DOUBLE_EQ(loaded.phases()[0].seconds, 1.25);
    // Round-tripping preserves the identity bit-for-bit.
    EXPECT_EQ(loaded.identityJson(), manifest.identityJson());
    EXPECT_EQ(loaded.identityHash(), manifest.identityHash());

    std::remove(path.c_str());
    std::remove(artifact.c_str());
}

TEST(RunManifest, IdentityIgnoresArtifactPathsAndTimings)
{
    // The same run in a different directory, with different wall
    // times, is the same run.
    const std::string a =
        writeTempFile("wss_manifest_id_a.csv", "payload\n");
    const std::string b =
        writeTempFile("wss_manifest_id_b.csv", "payload\n");

    RunManifest m1("wss test");
    m1.setConfig("arg.hosts", static_cast<std::int64_t>(64));
    m1.setSeed(7);
    m1.setJobs(1);
    m1.addArtifact(a, "campaign-csv");
    m1.addPhaseSeconds("campaign", 0.5);

    RunManifest m2("wss test");
    m2.setConfig("arg.hosts", static_cast<std::int64_t>(64));
    m2.setSeed(7);
    m2.setJobs(1);
    m2.addArtifact(b, "campaign-csv");
    m2.addPhaseSeconds("campaign", 99.0, 12);

    EXPECT_EQ(m1.identityJson(), m2.identityJson());
    EXPECT_EQ(m1.identityHash(), m2.identityHash());

    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(RunManifest, IdentityTracksConfigSeedAndContent)
{
    const std::string base =
        writeTempFile("wss_manifest_id_c.csv", "payload\n");

    auto make = [&](const std::string &path) {
        auto m = std::make_unique<RunManifest>("wss test");
        m->setConfig("arg.hosts", static_cast<std::int64_t>(64));
        m->setSeed(7);
        m->setJobs(1);
        m->addArtifact(path, "campaign-csv");
        return m;
    };

    const std::uint64_t baseline = make(base)->identityHash();

    auto differing_config = make(base);
    differing_config->setConfig("arg.hosts",
                                static_cast<std::int64_t>(128));
    EXPECT_NE(differing_config->identityHash(), baseline);

    auto differing_seed = make(base);
    differing_seed->setSeed(8);
    EXPECT_NE(differing_seed->identityHash(), baseline);

    const std::string changed =
        writeTempFile("wss_manifest_id_d.csv", "payload CHANGED\n");
    EXPECT_NE(make(changed)->identityHash(), baseline);

    std::remove(base.c_str());
    std::remove(changed.c_str());
}

TEST(RunManifest, MissingArtifactDiesLoudly)
{
    EXPECT_EXIT(
        {
            RunManifest m("wss test");
            m.addArtifact("/nonexistent-dir/missing.csv", "csv");
        },
        ::testing::ExitedWithCode(1), "cannot read artifact");
}

TEST(RunManifest, HashBytesIsFnv1a64)
{
    // Published FNV-1a 64 test vectors.
    EXPECT_EQ(RunManifest::hashBytes(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(RunManifest::hashBytes("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(RunManifest::hashBytes("foobar"),
              0x85944171f73967e8ull);
}

TEST(RunManifest, WriteJsonIsParseable)
{
    const std::string artifact =
        writeTempFile("wss_manifest_parse.csv", "x\n");
    RunManifest manifest("wss test");
    manifest.setSeed(1);
    manifest.setJobs(2);
    manifest.addArtifact(artifact, "campaign-csv");

    std::ostringstream os;
    manifest.writeJson(os);
    const Json root = parseJson(os.str());
    ASSERT_NE(root.find("tool"), nullptr);
    EXPECT_EQ(root.find("tool")->string, "wss test");
    ASSERT_NE(root.find("artifacts"), nullptr);
    EXPECT_EQ(root.find("artifacts")->array.size(), 1u);
    ASSERT_NE(root.find("identity_hash"), nullptr);

    std::remove(artifact.c_str());
}

// ---------------------------------------------------------------------
// Trace-track allocation
// ---------------------------------------------------------------------

TEST(TraceEvent, AllocateTrackIsIdempotentAndCollisionFree)
{
    TraceEventSink sink;
    const int flow = sink.allocateTrack("flow-telemetry");
    const int coll = sink.allocateTrack("coll-telemetry");
    const int profile = sink.allocateTrack("profile");
    EXPECT_GE(flow, TraceEventSink::kFirstAllocatedTrack);
    EXPECT_NE(flow, coll);
    EXPECT_NE(coll, profile);
    EXPECT_NE(flow, profile);
    // Re-requesting a name returns the same track, not a new one.
    EXPECT_EQ(sink.allocateTrack("flow-telemetry"), flow);
    EXPECT_EQ(sink.allocateTrack("coll-telemetry"), coll);

    // Each allocated track carries thread_name metadata so Perfetto
    // labels it.
    sink.complete("span", "test", flow, 0, 10, {});
    const Json root = parseTrace(sink);
    std::set<std::string> named;
    for (const Json &e : root.find("traceEvents")->array) {
        if (e.find("ph")->string != "M" ||
            e.find("name")->string != "thread_name")
            continue;
        if (const Json *args = e.find("args"))
            if (const Json *name = args->find("name"))
                named.insert(name->string);
    }
    EXPECT_EQ(named.count("flow-telemetry"), 1u);
    EXPECT_EQ(named.count("coll-telemetry"), 1u);
    EXPECT_EQ(named.count("profile"), 1u);
}

// ---------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------

TEST(Report, SmokeFromFreshManifest)
{
    const std::string artifact =
        writeTempFile("wss_report_smoke.csv", "col\n1\n2\n");
    RunManifest manifest("wss test");
    manifest.setConfig("arg.hosts", static_cast<std::int64_t>(64));
    manifest.setSeed(9);
    manifest.setJobs(2);
    manifest.addArtifact(artifact, "campaign-csv");
    manifest.addPhaseSeconds("campaign", 0.25);
    const std::string manifest_path =
        (std::filesystem::temp_directory_path() /
         "wss_report_smoke.manifest.json")
            .string();
    manifest.writeJsonFile(manifest_path);

    ReportOptions opts;
    opts.manifest_path = manifest_path;
    const RunReport report = buildRunReport(opts);
    EXPECT_TRUE(report.ok());
    ASSERT_FALSE(report.checks.empty());
    EXPECT_EQ(report.checks[0].name, "artifact-hashes");
    EXPECT_TRUE(report.checks[0].ok);
    EXPECT_NE(report.markdown.find("wss test"), std::string::npos);
    EXPECT_NE(report.markdown.find("campaign-csv"), std::string::npos);

    // The JSON side parses and carries the marker and the checks.
    const Json root = parseJson(report.json);
    ASSERT_NE(root.find("wss_run_report"), nullptr);
    ASSERT_NE(root.find("checks"), nullptr);
    EXPECT_EQ(root.find("checks")->array.size(),
              report.checks.size());

    std::remove(manifest_path.c_str());
    std::remove(artifact.c_str());
}

TEST(Report, CorruptArtifactFailsTheHashCheckWithoutDying)
{
    const std::string artifact =
        writeTempFile("wss_report_corrupt.csv", "original\n");
    RunManifest manifest("wss test");
    manifest.setSeed(9);
    manifest.setJobs(1);
    manifest.addArtifact(artifact, "campaign-csv");
    const std::string manifest_path =
        (std::filesystem::temp_directory_path() /
         "wss_report_corrupt.manifest.json")
            .string();
    manifest.writeJsonFile(manifest_path);

    // Tamper after the manifest is sealed: the report must degrade
    // to a failed health check, not fatal() — one lost file must not
    // hide the rest of the story.
    writeTempFile("wss_report_corrupt.csv", "tampered\n");

    ReportOptions opts;
    opts.manifest_path = manifest_path;
    const RunReport report = buildRunReport(opts);
    EXPECT_FALSE(report.ok());
    ASSERT_FALSE(report.checks.empty());
    EXPECT_EQ(report.checks[0].name, "artifact-hashes");
    EXPECT_FALSE(report.checks[0].ok);
    EXPECT_NE(report.checks[0].detail.find("content differs"),
              std::string::npos);

    std::remove(manifest_path.c_str());
    std::remove(artifact.c_str());
}

TEST(Report, TruncatedArtifactFailsTheHashCheck)
{
    const std::string artifact =
        writeTempFile("wss_report_truncated.csv", "a,b\n1,2\n3,4\n");
    RunManifest manifest("wss test");
    manifest.addArtifact(artifact, "campaign-csv");
    const std::string manifest_path =
        (std::filesystem::temp_directory_path() /
         "wss_report_truncated.manifest.json")
            .string();
    manifest.writeJsonFile(manifest_path);

    // A run killed mid-write leaves a prefix of the artifact.
    writeTempFile("wss_report_truncated.csv", "a,b\n1,2\n");

    ReportOptions opts;
    opts.manifest_path = manifest_path;
    const RunReport report = buildRunReport(opts);
    EXPECT_FALSE(report.ok());
    ASSERT_FALSE(report.checks.empty());
    EXPECT_EQ(report.checks[0].name, "artifact-hashes");
    EXPECT_FALSE(report.checks[0].ok);
    EXPECT_NE(report.checks[0].detail.find("0/1 artifacts verified"),
              std::string::npos);

    std::remove(manifest_path.c_str());
    std::remove(artifact.c_str());
}

TEST(Report, NonFiniteTelemetryCellsAreSkipped)
{
    const std::string artifact = writeTempFile(
        "wss_report_nan.csv", "record,window,scope,metric,value\n"
                              "window,0,-,started,1\n"
                              "window,0,-,completed,1\n"
                              "link,0,t0,utilization,inf\n"
                              "total,run,-,started,nan\n"
                              "total,run,-,started,1\n"
                              "total,run,-,completed,1\n"
                              "total,run,-,completed_bytes,-inf\n");
    RunManifest manifest("wss test");
    manifest.addArtifact(artifact, "flow-telemetry");
    const std::string manifest_path =
        (std::filesystem::temp_directory_path() /
         "wss_report_nan.manifest.json")
            .string();
    manifest.writeJsonFile(manifest_path);

    ReportOptions opts;
    opts.manifest_path = manifest_path;
    const RunReport report = buildRunReport(opts);
    // The JSON twin stays valid JSON (the reader fatal()s on "nan").
    const util::JsonValue doc = util::JsonValue::parse(report.json, "twin");
    const util::JsonValue &totals = doc.require("flow_totals", "twin");
    EXPECT_EQ(totals.numberOr("started", -1), 1.0);
    EXPECT_EQ(totals.numberOr("completed_bytes", -1), 0.0);
    EXPECT_TRUE(doc.require("links", "twin").asArray("links").empty());
    EXPECT_TRUE(report.ok());

    std::remove(manifest_path.c_str());
    std::remove(artifact.c_str());
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// RAII reset so one failing test cannot leak an enabled recorder /
/// watchdog / crash-dump installation into the next.
struct ObsReset
{
    ObsReset() { reset(); }
    ~ObsReset() { reset(); }
    static void
    reset()
    {
        Watchdog::resetForTesting();
        FlightRecorder::resetForTesting();
        CrashDump::resetForTesting();
    }
};

TEST(FlightRecorder, DisabledRecordIsANoOp)
{
    ObsReset guard;
    EXPECT_FALSE(FlightRecorder::enabled());
    // The disabled contract: no ring attached, recordEvent is one
    // predicted branch (BM_FlightRecorderDisabled measures it).
    recordEvent(EventKind::SimEpoch, 1, 2, "ignored");
    recordPhaseEnter("ignored");
    recordPhaseExit();
    EXPECT_EQ(FlightRecorder::ringCount(), 0u);
    EXPECT_EQ(FlightRecorder::kindCount(EventKind::SimEpoch), 0u);
}

TEST(FlightRecorder, AttachBeforeEnableIsIgnored)
{
    ObsReset guard;
    FlightRecorder::attachCurrentThread("early");
    EXPECT_EQ(FlightRecorder::ringCount(), 0u);
}

TEST(FlightRecorder, RecordsEventsAndWrapsTheRing)
{
    ObsReset guard;
    FlightRecorder::enable(16);
    FlightRecorder::attachCurrentThread("t0");
    ASSERT_EQ(FlightRecorder::ringCount(), 1u);
    // Attach is idempotent: same thread, same ring.
    FlightRecorder::attachCurrentThread("t0-again");
    EXPECT_EQ(FlightRecorder::ringCount(), 1u);

    for (int i = 0; i < 40; ++i)
        recordEvent(EventKind::JobStart, i, i * 2, "cell");
    ThreadRing *ring = FlightRecorder::ring(0);
    ASSERT_NE(ring, nullptr);
    EXPECT_EQ(std::string(ring->label()), "t0");
    EXPECT_EQ(ring->capacity(), 16u);
    EXPECT_EQ(ring->written(), 40u);
    EXPECT_EQ(FlightRecorder::kindCount(EventKind::JobStart), 40u);

    // Only the last `capacity` events survive; slot(i) is addressed
    // by absolute event index, so the tail is events 24..39.
    for (std::uint64_t i = 24; i < 40; ++i) {
        const FlightEvent &e = ring->slot(i);
        EXPECT_EQ(e.kind,
                  static_cast<std::uint16_t>(EventKind::JobStart));
        EXPECT_EQ(e.a, static_cast<std::int64_t>(i));
        EXPECT_EQ(e.b, static_cast<std::int64_t>(i) * 2);
        EXPECT_EQ(std::string(e.tag), "cell");
    }
    // Timestamps are monotone within the ring tail.
    for (std::uint64_t i = 25; i < 40; ++i)
        EXPECT_GE(ring->slot(i).t, ring->slot(i - 1).t);

    // Long tags truncate, never overflow.
    recordEvent(EventKind::DesignPoint, 0, 0,
                std::string(100, 'x'));
    const FlightEvent &last = ring->slot(ring->written() - 1);
    EXPECT_EQ(std::string(last.tag), std::string(29, 'x'));
}

TEST(FlightRecorder, ProfilerPhasesDriveTheOpenPhaseStack)
{
    ObsReset guard;
    FlightRecorder::enable(64);
    FlightRecorder::attachCurrentThread("prof");
    ThreadRing *ring = FlightRecorder::ring(0);
    ASSERT_NE(ring, nullptr);

    Profiler profiler;
    {
        ScopedPhase outer(&profiler, "campaign");
        {
            ScopedPhase inner(&profiler, "cell");
            EXPECT_EQ(ring->phaseDepth(), 2);
            EXPECT_EQ(std::string(ring->phaseName(0)), "campaign");
            EXPECT_EQ(std::string(ring->phaseName(1)), "cell");
        }
        EXPECT_EQ(ring->phaseDepth(), 1);
    }
    EXPECT_EQ(ring->phaseDepth(), 0);
    EXPECT_EQ(FlightRecorder::kindCount(EventKind::PhaseEnter), 2u);
    EXPECT_EQ(FlightRecorder::kindCount(EventKind::PhaseExit), 2u);
}

TEST(FlightRecorder, WarnOnceAndArtifactWritesBecomeEvents)
{
    ObsReset guard;
    FlightRecorder::enable(64);
    FlightRecorder::attachCurrentThread("hooked");

    // WSS_WARN_ONCE routes through the logging hook into the ring.
    WSS_WARN_ONCE("flight-recorder hook test warning");
    EXPECT_EQ(FlightRecorder::kindCount(EventKind::WarnOnce), 1u);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         "wss_fr_artifact.txt")
            .string();
    util::writeArtifactFile(path, "test",
                            [](std::ostream &os) { os << "x\n"; });
    EXPECT_EQ(FlightRecorder::kindCount(EventKind::ArtifactWrite), 1u);
    ThreadRing *ring = FlightRecorder::ring(0);
    ASSERT_NE(ring, nullptr);
    const FlightEvent &e = ring->slot(ring->written() - 1);
    EXPECT_EQ(e.kind,
              static_cast<std::uint16_t>(EventKind::ArtifactWrite));
    // The tag keeps the (truncated) artifact path.
    EXPECT_NE(std::string(e.tag).find("wss_fr"), std::string::npos);
    std::remove(path.c_str());
}

TEST(FlightRecorder, SimResultsAreBitIdenticalWithRecorderOnOrOff)
{
    ObsReset guard;
    // Long enough to cross the simulator's epoch-mark cadence (one
    // SimEpoch event every 65536 cycles — the hot loop's per-cycle
    // cost is a single mask-and-compare).
    const auto run = [] {
        const auto topo = topology::buildFoldedClos(
            {8, power::scaledSsc(8, 200.0), 1});
        sim::NetworkSpec spec;
        spec.vcs = 2;
        spec.buffer_per_port = 8;
        sim::Network net(topo, spec, 21);
        sim::SyntheticWorkload workload(sim::uniformTraffic(8), 0.3,
                                        1);
        sim::SimConfig cfg;
        cfg.warmup = 500;
        cfg.measure = 66000;
        cfg.drain_limit = 80000;
        cfg.seed = 33;
        return sim::Simulator(net, workload, cfg).run();
    };
    const sim::SimResult off_result = run();

    FlightRecorder::enable(256);
    FlightRecorder::attachCurrentThread("sim");
    const sim::SimResult on_result = run();
    // The instrumented run actually recorded something…
    EXPECT_GT(FlightRecorder::kindCount(EventKind::SimEpoch), 0u);
    ObservedRun off;
    off.result = off_result;
    ObservedRun on;
    on.result = on_result;

    // …and perturbed nothing: the recorder is write-only telemetry.
    EXPECT_EQ(off.result.avg_packet_latency,
              on.result.avg_packet_latency);
    EXPECT_EQ(off.result.p99_packet_latency,
              on.result.p99_packet_latency);
    EXPECT_EQ(off.result.avg_hops, on.result.avg_hops);
    EXPECT_EQ(off.result.offered, on.result.offered);
    EXPECT_EQ(off.result.accepted, on.result.accepted);
    EXPECT_EQ(off.result.packets_measured, on.result.packets_measured);
    EXPECT_EQ(off.result.packets_finished, on.result.packets_finished);
    EXPECT_EQ(off.result.stable, on.result.stable);
    EXPECT_EQ(off.result.end_cycle, on.result.end_cycle);
    EXPECT_EQ(off.result.flits_delivered, on.result.flits_delivered);
    EXPECT_EQ(off.result.flits_injected, on.result.flits_injected);
}

TEST(FlightRecorder, CampaignResultsAreBitIdenticalWithRecorderOnOrOff)
{
    ObsReset guard;
    exec::Campaign plain;
    plain.addSweep("uniform", tinySweepJob());
    exec::ThreadPool pool_off(2);
    const exec::CampaignResult off = plain.run(&pool_off);

    FlightRecorder::enable(512);
    FlightRecorder::attachCurrentThread("main");
    exec::Campaign traced;
    traced.addSweep("uniform", tinySweepJob());
    exec::ThreadPool pool_on(2);
    const exec::CampaignResult on = traced.run(&pool_on);

    EXPECT_EQ(FlightRecorder::kindCount(EventKind::JobStart),
              FlightRecorder::kindCount(EventKind::JobFinish));
    EXPECT_GT(FlightRecorder::kindCount(EventKind::JobStart), 0u);
    EXPECT_GT(FlightRecorder::kindCount(EventKind::DesignPoint), 0u);
    EXPECT_EQ(Watchdog::progressDone(), Watchdog::progressTotal());

    ASSERT_EQ(off.jobs.size(), on.jobs.size());
    for (std::size_t j = 0; j < off.jobs.size(); ++j) {
        const auto &a = off.jobs[j].sweep.combined;
        const auto &b = on.jobs[j].sweep.combined;
        ASSERT_EQ(a.points.size(), b.points.size());
        for (std::size_t p = 0; p < a.points.size(); ++p) {
            EXPECT_EQ(a.points[p].offered, b.points[p].offered);
            EXPECT_EQ(a.points[p].accepted, b.points[p].accepted);
            EXPECT_EQ(a.points[p].avg_latency, b.points[p].avg_latency);
            EXPECT_EQ(a.points[p].p99_latency, b.points[p].p99_latency);
            EXPECT_EQ(a.points[p].stable, b.points[p].stable);
        }
        EXPECT_EQ(a.zero_load_latency, b.zero_load_latency);
        EXPECT_EQ(a.saturation_throughput, b.saturation_throughput);
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, SnapshotTracksBeatsDetailAndIdleState)
{
    ObsReset guard;
    FlightRecorder::enable(64);
    {
        const WorkerScope scope("worker-0", "uniform rep 1 rate 0.4");
        ASSERT_EQ(FlightRecorder::ringCount(), 1u);
        const ThreadRing &ring = *FlightRecorder::ring(0);
        EXPECT_STREQ(ring.label(), "worker-0");
        EXPECT_EQ(ring.detail(), "uniform rep 1 rate 0.4");
        EXPECT_TRUE(ring.busy());
        EXPECT_EQ(FlightRecorder::kindCount(EventKind::Heartbeat), 1u);

        // Busy for longer than the timeout in total, but every check
        // follows a fresh event: the watchdog measures the age of the
        // ring's last event, not the age of the scope.
        for (int i = 0; i < 6; ++i) {
            const double before = ring.lastEventTime();
            std::this_thread::sleep_for(std::chrono::milliseconds(60));
            recordEvent(EventKind::SimEpoch, i);
            EXPECT_GT(ring.lastEventTime(), before);
            EXPECT_EQ(Watchdog::checkStalls(0.25), "");
        }
    }
    EXPECT_FALSE(FlightRecorder::ring(0)->busy());
}

TEST(Watchdog, CheckStallsNamesTheCulpritAndSparesIdleThreads)
{
    ObsReset guard;
    FlightRecorder::enable(64);
    {
        const WorkerScope scope("worker-3", "fig21 rep 2 rate 0.8");
        EXPECT_EQ(Watchdog::checkStalls(10.0), "");

        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        const std::string culprit = Watchdog::checkStalls(0.01);
        EXPECT_EQ(culprit.rfind("worker-3: no progress for ", 0), 0u)
            << culprit;
        EXPECT_NE(culprit.find("(timeout 0.01 s)"), std::string::npos)
            << culprit;
        EXPECT_NE(culprit.find("while on 'fig21 rep 2 rate 0.8'"),
                  std::string::npos)
            << culprit;
    }
    // An idle ring is never a culprit, however stale…
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(Watchdog::checkStalls(0.001), "");

    // …and a thread that attached without a WorkerScope (the CLI main
    // thread) stays idle until it runs a cell itself, under the label
    // it first attached with.
    std::thread([] {
        FlightRecorder::attachCurrentThread("main");
        recordEvent(EventKind::JobStart);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(Watchdog::checkStalls(0.001), "");
        const WorkerScope scope("caller", "uniform rep 0 rate 0.1");
        EXPECT_TRUE(FlightRecorder::ring(1)->busy());
        EXPECT_STREQ(FlightRecorder::ring(1)->label(), "main");
    }).join();
    EXPECT_FALSE(FlightRecorder::ring(1)->busy());
    EXPECT_EQ(Watchdog::checkStalls(0.001), "");
}

TEST(Watchdog, ProgressLineReportsJobsAndActiveWorkers)
{
    ObsReset guard;
    FlightRecorder::enable(64);
    Watchdog::setProgressTotal(40);
    Watchdog::addProgressDone(12);
    EXPECT_EQ(Watchdog::progressTotal(), 40u);
    EXPECT_EQ(Watchdog::progressDone(), 12u);

    // A worker that finished its cell: idle, detail left behind.
    std::thread([] {
        const WorkerScope scope("worker-2", "hotspot rep 1 rate 0.2");
    }).join();
    {
        const WorkerScope scope("worker-1", "tornado rep 0 rate 0.7");
        const std::string line = Watchdog::renderProgressLine();
        EXPECT_NE(line.find("jobs 12/40"), std::string::npos) << line;
        EXPECT_NE(line.find("30.0%"), std::string::npos) << line;
        EXPECT_NE(line.find("worker-1 tornado rep 0 rate 0.7"),
                  std::string::npos)
            << line;
        EXPECT_EQ(line.find("worker-2"), std::string::npos) << line;
    }
    // Idle workers drop off the line.
    EXPECT_EQ(Watchdog::renderProgressLine().find("worker-1"),
              std::string::npos);
}

TEST(Watchdog, CampaignLeavesNoRingBusy)
{
    ObsReset guard;
    FlightRecorder::enable(512);
    FlightRecorder::attachCurrentThread("main");
    exec::Campaign campaign;
    campaign.addSweep("uniform", tinySweepJob());
    campaign.addTask("solve", [] {});
    exec::ThreadPool pool(2);
    // The monitor polls the rings (stall check + progress line) every
    // 10 ms while the workers write them: the race the tsan preset
    // checks.
    Watchdog::start(60.0, true, 0.01);
    for (int run = 0; run < 5; ++run)
        campaign.run(&pool);
    Watchdog::stop();

    // Every cell opened a WorkerScope (one heartbeat event each) and
    // every scope closed again: a leaked scope would leave its ring
    // busy and read as a stall at any timeout.
    EXPECT_EQ(FlightRecorder::kindCount(EventKind::Heartbeat),
              FlightRecorder::kindCount(EventKind::JobStart));
    ASSERT_GE(FlightRecorder::ringCount(), 1u);
    for (std::size_t i = 0; i < FlightRecorder::ringCount(); ++i)
        EXPECT_FALSE(FlightRecorder::ring(i)->busy())
            << FlightRecorder::ring(i)->label();
    EXPECT_EQ(Watchdog::checkStalls(1e-9), "");
}

TEST(Watchdog, MonitorThreadStartsAndStopsCleanly)
{
    ObsReset guard;
    Watchdog::start(0.0, false, 0.01); // no stall arm, no progress
    Watchdog::start(0.0, false, 0.01); // idempotent while running
    EXPECT_TRUE(FlightRecorder::enabled());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Watchdog::stop();
    Watchdog::stop(); // idempotent when stopped
}

// ---------------------------------------------------------------------
// Crash dumps
// ---------------------------------------------------------------------

TEST(CrashDump, WriteNowWithoutInstallIsRefused)
{
    ObsReset guard;
    EXPECT_FALSE(CrashDump::installed());
    EXPECT_FALSE(CrashDump::writeNow("not installed", 0));
}

TEST(CrashDump, WriteNowProducesParseableJsonOnce)
{
    ObsReset guard;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "wss_crash_unit.json")
            .string();
    std::remove(path.c_str());

    FlightRecorder::enable(64);
    FlightRecorder::attachCurrentThread("main");
    Profiler profiler;
    ScopedPhase phase(&profiler, "campaign");
    recordEvent(EventKind::JobStart, 7, 0, "uniform");
    recordEvent(EventKind::FaultInjection, 3, 120, "link down");

    CrashDump::install(path);
    CrashDump::setTool("wss test");
    CrashDump::setIdentity(0xdeadbeefu);
    ASSERT_TRUE(CrashDump::installed());
    EXPECT_EQ(CrashDump::path(), path);
    ASSERT_TRUE(CrashDump::writeNow("unit-test dump", 0));
    // Write-once latch: the second writer (e.g. the SIGABRT handler
    // running after panic() already dumped) must not clobber.
    EXPECT_FALSE(CrashDump::writeNow("second dump", 0));

    const util::JsonValue doc = util::JsonValue::parseFile(path, "crash dump");
    EXPECT_EQ(doc.require("wss_crash_report", "crash dump").asNumber("crash dump"), 1.0);
    EXPECT_EQ(doc.require("reason", "crash dump").asString("crash dump"), "unit-test dump");
    EXPECT_EQ(doc.require("tool", "crash dump").asString("crash dump"), "wss test");
    EXPECT_EQ(doc.require("identity_hash", "crash dump").asString("crash dump"), "0xdeadbeef");
    EXPECT_EQ(doc.require("signal", "crash dump").asNumber("crash dump"), 0.0);
    const auto &threads = doc.require("threads", "crash dump").asArray("crash dump");
    ASSERT_EQ(threads.size(), 1u);
    EXPECT_EQ(threads[0].require("label", "crash dump").asString("crash dump"), "main");
    // The open profiler phase is captured in the post-mortem.
    const auto &phases = threads[0].require("open_phases", "crash dump").asArray("crash dump");
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].asString("crash dump"), "campaign");
    const auto &events = threads[0].require("events", "crash dump").asArray("crash dump");
    ASSERT_GE(events.size(), 2u);
    bool saw_fault = false;
    for (const auto &e : events)
        if (e.require("kind", "crash dump").asString("crash dump") ==
            std::string(eventKindName(EventKind::FaultInjection))) {
            saw_fault = true;
            EXPECT_EQ(e.require("a", "crash dump").asNumber("crash dump"), 3.0);
            EXPECT_EQ(e.require("b", "crash dump").asNumber("crash dump"), 120.0);
            EXPECT_EQ(e.require("tag", "crash dump").asString("crash dump"), "link down");
        }
    EXPECT_TRUE(saw_fault);
    // Counters section mirrors FlightRecorder::kindCount.
    EXPECT_EQ(doc.require("counters", "crash dump")
                  .require(eventKindName(EventKind::JobStart),
                           "crash dump")
                  .asNumber("crash dump"),
              1.0);
    std::remove(path.c_str());
}

TEST(CrashDump, ReportRendersThePostMortem)
{
    ObsReset guard;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "wss_crash_report_unit.json")
            .string();
    FlightRecorder::enable(64);
    FlightRecorder::attachCurrentThread("worker-2");
    recordEvent(EventKind::DesignPoint, 1, 4, "rate 0.8");
    CrashDump::install(path);
    CrashDump::setTool("wss sweep");
    ASSERT_TRUE(CrashDump::writeNow("watchdog: stall detected", 6));

    ReportOptions opts;
    opts.crash_path = path; // crash-only report: no manifest at all
    const RunReport report = buildRunReport(opts);
    EXPECT_TRUE(report.ok());
    bool found = false;
    for (const auto &check : report.checks)
        if (check.name == "crash-post-mortem") {
            found = true;
            EXPECT_TRUE(check.ok);
            EXPECT_NE(check.detail.find("watchdog: stall detected"),
                      std::string::npos);
        }
    EXPECT_TRUE(found);
    EXPECT_NE(report.markdown.find("## Post-mortem"),
              std::string::npos);
    EXPECT_NE(report.markdown.find("### Thread worker-2"),
              std::string::npos);
    EXPECT_NE(report.markdown.find("rate 0.8"), std::string::npos);
    EXPECT_NE(report.json.find("\"crash\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(CrashDump, MalformedCrashJsonFailsTheCheckWithoutDying)
{
    ObsReset guard;
    const std::string path = writeTempFile(
        "wss_crash_malformed.json", "{\"not_a_crash\": true}\n");
    ReportOptions opts;
    opts.crash_path = path;
    const RunReport report = buildRunReport(opts);
    EXPECT_FALSE(report.ok());
    bool found = false;
    for (const auto &check : report.checks)
        if (check.name == "crash-post-mortem") {
            found = true;
            EXPECT_FALSE(check.ok);
        }
    EXPECT_TRUE(found);
    std::remove(path.c_str());
}

// Death tests live in their own *DiesLoudly suite: the sanitizer
// presets exclude them (fork + abort under tsan/asan is noise).
TEST(CrashDumpDiesLoudly, PanicDumpsThenAborts)
{
    ObsReset guard;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "wss_crash_panic.json")
            .string();
    std::remove(path.c_str());
    // The child enables the recorder, installs the dump, and
    // panic()s: the logging hook writes crash.json *before* abort()
    // raises SIGABRT (whose handler then finds the write-once latch
    // taken and re-raises).
    EXPECT_DEATH(
        {
            FlightRecorder::enable(64);
            FlightRecorder::attachCurrentThread("doomed");
            recordEvent(EventKind::JobStart, 1, 0, "cell");
            CrashDump::install(path);
            CrashDump::setTool("wss test");
            panic("deliberate test panic");
        },
        "deliberate test panic");
    // The dump the dying child wrote is valid JSON with its reason.
    const util::JsonValue doc = util::JsonValue::parseFile(path, "crash dump");
    EXPECT_EQ(doc.require("wss_crash_report", "crash dump").asNumber("crash dump"), 1.0);
    EXPECT_NE(doc.require("reason", "crash dump").asString("crash dump").find(
                  "deliberate test panic"),
              std::string::npos);
    EXPECT_EQ(doc.require("threads", "crash dump").asArray("crash dump").size(), 1u);
    std::remove(path.c_str());
}

TEST(CrashDumpDiesLoudly, FatalDumpsThenExits)
{
    ObsReset guard;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "wss_crash_fatal.json")
            .string();
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            FlightRecorder::enable(64);
            FlightRecorder::attachCurrentThread("doomed");
            CrashDump::install(path);
            fatal("deliberate test fatal");
        },
        ::testing::ExitedWithCode(1), "deliberate test fatal");
    const util::JsonValue doc = util::JsonValue::parseFile(path, "crash dump");
    EXPECT_NE(doc.require("reason", "crash dump").asString("crash dump").find(
                  "deliberate test fatal"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(CrashDumpDiesLoudly, WatchdogStallAbortsNamingTheCulprit)
{
    ObsReset guard;
    EXPECT_DEATH(
        {
            FlightRecorder::enable(64);
            const WorkerScope busy("sleeper", "pretending to work");
            Watchdog::start(0.05, false, 0.01);
            std::this_thread::sleep_for(std::chrono::seconds(10));
        },
        "watchdog: stall detected.*sleeper.*pretending to work");
}

} // namespace
} // namespace wss::obs

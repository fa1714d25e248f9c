/**
 * @file
 * Tests for the JSON layer: byte-for-byte goldens of every artifact
 * writer on fixed inputs (campaign results, switch profiles, run
 * manifests, the report's JSON twin, Chrome traces), round trips of
 * the tracked profiles and bench manifest, and the reader's contract
 * on malformed input.
 *
 * Golden files live in tests/golden/. A mismatch writes the actual
 * bytes next to the test binary as `<name>.actual` for diffing.
 *
 * The mutation corpus runs in-process: a log-event hook turns fatal()
 * into an exception, so thousands of malformed documents are checked
 * without a fork each. Any outcome other than "parsed" or "fatal()"
 * (a crash, a hang, a sanitizer report) fails the suite.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "coll/campaign.hpp"
#include "exec/campaign.hpp"
#include "fault/resilience.hpp"
#include "flow/dcn_campaign.hpp"
#include "flow/switch_profile.hpp"
#include "obs/report.hpp"
#include "obs/run_manifest.hpp"
#include "obs/trace_event.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wss {
namespace {

/// Every writer's strings carry the bytes the escaper treats
/// specially: quote, backslash, newline, tab and another control.
const std::string kNasty = "q\"b\\s\nn\tt\rr end";

/// Doubles whose shortest round-trip text differs from a short
/// %g: a repeating fraction, a tiny and a huge magnitude, and a
/// subnormal.
const double kThird = 1.0 / 3.0;
const double kTiny = 1e-17;
const double kHuge = 3e17;
const double kSubnormal = std::numeric_limits<double>::denorm_min();

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot read " << path;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary);
    os << content;
}

std::string
sourcePath(const std::string &relative)
{
    return std::string(WSS_SOURCE_DIR) + "/" + relative;
}

/// Compare @p actual against tests/golden/@p name byte for byte.
void
expectGolden(const std::string &actual, const std::string &name)
{
    const std::string expected = readFile(sourcePath("tests/golden/" + name));
    if (actual != expected)
        writeFile(name + ".actual", actual);
    EXPECT_EQ(actual, expected) << "golden " << name << " differs; see "
                                << name << ".actual";
}

template <typename Result>
std::string
jsonOf(const Result &result)
{
    std::ostringstream os;
    result.writeJson(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Campaign results
// ---------------------------------------------------------------------

TEST(JsonGolden, ExecCampaignResult)
{
    exec::CampaignResult result;
    result.wall_seconds = kThird;
    result.threads = 4;

    exec::CampaignJobResult sweep;
    sweep.name = kNasty;
    sweep.kind = "sweep";
    sweep.seconds = kHuge;
    sweep.cells = 2;
    sweep.mean_cell_seconds = kTiny;
    sweep.max_cell_seconds = kSubnormal;
    sweep.p95_cell_seconds = 0.1;
    sweep.sweep.reps.resize(2);
    sweep.sweep.combined.zero_load_latency = 12.5;
    sweep.sweep.combined.saturation_throughput = kThird;
    sweep.sweep.combined.points = {{0.1, kThird, 20.0, kHuge, true},
                                   {0.9, 0.5, kTiny, kSubnormal, false}};
    result.jobs.push_back(sweep);

    exec::CampaignJobResult task;
    task.name = "task-1";
    task.kind = "task";
    task.seconds = 2.0;
    task.cells = 1;
    result.jobs.push_back(task);

    expectGolden(jsonOf(result), "campaign_exec.json");
    expectGolden(jsonOf(exec::CampaignResult{}), "campaign_exec_empty.json");
}

TEST(JsonGolden, CollResult)
{
    coll::CollResult result;
    result.wall_seconds = kTiny;
    result.threads = 2;
    coll::CollCellResult cell;
    cell.design = kNasty;
    cell.collective = "allreduce/ring";
    cell.ranks = 8;
    cell.payload_bytes = 65536.0;
    cell.topology = "fat-tree\t2t";
    cell.switches = 3;
    cell.tiers = 2;
    cell.hops = 3;
    cell.flow.seconds = kThird;
    cell.flow.algbw_gbps = kHuge;
    cell.flow.busbw_gbps = kSubnormal;
    cell.flow.steps = 14;
    cell.flow.messages = 1792;
    cell.flow.bytes_on_wire = 1.5e9;
    cell.flow.failed_messages = 1;
    cell.model.seconds = 0.25;
    cell.model.busbw_gbps = 100.0;
    cell.seconds = kTiny;
    result.cells = {cell, cell};

    expectGolden(jsonOf(result), "campaign_coll.json");
    expectGolden(jsonOf(coll::CollResult{}), "campaign_coll_empty.json");
}

TEST(JsonGolden, DcnResult)
{
    flow::DcnResult result;
    result.wall_seconds = kHuge;
    result.threads = 1;
    flow::DcnCellResult cell;
    cell.design = kNasty;
    cell.topology = "fat-tree-1t";
    cell.workload = "web\\search";
    cell.load = 0.7;
    cell.hosts = 256;
    cell.switches = 1;
    cell.tiers = 1;
    cell.cables = 256;
    cell.worst_hops = 1;
    cell.power_kw = kThird;
    cell.sim.started = 100000;
    cell.sim.completed = 99999;
    cell.sim.failed = 1;
    cell.sim.rerouted = 2;
    cell.sim.fault_events = 3;
    cell.sim.avg_hops = 1.0;
    cell.sim.throughput_gbps = 14556.85151498332;
    cell.sim.fct_avg_s = kTiny;
    cell.sim.fct_p50_s = kSubnormal;
    cell.sim.fct_p99_s = kThird;
    cell.sim.fct_p999_s = kHuge;
    cell.sim.slowdown_avg = 3.8390106297149451;
    cell.sim.slowdown_p50 = 1.0;
    cell.sim.slowdown_p99 = 10.5;
    cell.sim.slowdown_p999 = 60.0;
    cell.seconds = 8.619656956;
    result.cells = {cell};

    expectGolden(jsonOf(result), "campaign_dcn.json");
    expectGolden(jsonOf(flow::DcnResult{}), "campaign_dcn_empty.json");
}

TEST(JsonGolden, ResilienceResult)
{
    fault::ResilienceResult result;
    result.wall_seconds = 0.5;
    result.threads = 3;
    fault::ResilienceCellResult cell;
    cell.topology = kNasty;
    cell.ports = 32;
    cell.chiplets = 12;
    cell.defect_density = 0.2;
    cell.spares = 1;
    cell.samples = 30;
    cell.p_node_fail = kThird;
    cell.p_link_fail = kTiny;
    cell.survival = kSubnormal;
    cell.p_degraded = kHuge;
    cell.p_partitioned = 0.0;
    cell.expected_usable_ports = 31.5;
    cell.usable_fraction = 0.984375;
    cell.mean_bisection_fraction = 0.9;
    cell.analytic_bond_yield = 0.999;
    cell.sim_samples = 1;
    cell.healthy_throughput = 0.62;
    cell.mean_degraded_throughput = 0.61;
    cell.seconds = kThird;
    result.cells = {cell, cell};

    expectGolden(jsonOf(result), "campaign_resilience.json");
    expectGolden(jsonOf(fault::ResilienceResult{}),
                 "campaign_resilience_empty.json");
}

// ---------------------------------------------------------------------
// Switch profiles
// ---------------------------------------------------------------------

flow::SwitchProfile
nastyProfile()
{
    flow::SwitchProfile profile;
    profile.name = kNasty;
    profile.radix = 8192;
    profile.line_rate_gbps = 200.0;
    profile.cycle_seconds = 2.56e-9;
    profile.power_watts = kHuge;
    profile.zero_load_latency = kThird;
    profile.saturation = 0.62;
    profile.points = {{kTiny, 12.0, 20.5},
                      {kThird, kSubnormal, 1e300},
                      {0.9, 100.0, 200.0}};
    return profile;
}

TEST(JsonGolden, SwitchProfile)
{
    expectGolden(jsonOf(nastyProfile()), "switch_profile.json");
    flow::SwitchProfile empty;
    empty.name = "empty";
    expectGolden(jsonOf(empty), "switch_profile_empty.json");
}

TEST(JsonGolden, SwitchProfileLoadsBackBitExactly)
{
    // Includes a subnormal, which the old strtod-based reader refused
    // (ERANGE) although the writer had produced it.
    const flow::SwitchProfile profile = nastyProfile();
    std::istringstream is(jsonOf(profile));
    const flow::SwitchProfile loaded = flow::SwitchProfile::fromJson(is);
    // \r is written as a space (the escaper's one lossy rule).
    std::string name = kNasty;
    name[name.find('\r')] = ' ';
    EXPECT_EQ(loaded.name, name);
    EXPECT_EQ(loaded.radix, profile.radix);
    EXPECT_EQ(loaded.power_watts, profile.power_watts);
    EXPECT_EQ(loaded.zero_load_latency, profile.zero_load_latency);
    ASSERT_EQ(loaded.points.size(), profile.points.size());
    for (std::size_t i = 0; i < profile.points.size(); ++i) {
        EXPECT_EQ(loaded.points[i].offered, profile.points[i].offered);
        EXPECT_EQ(loaded.points[i].avg_latency,
                  profile.points[i].avg_latency);
        EXPECT_EQ(loaded.points[i].p99_latency,
                  profile.points[i].p99_latency);
    }
}

TEST(JsonGolden, HostbenchProfilesRoundTripByteForByte)
{
    for (const char *name : {"conv-64.json", "ws-8192.json"}) {
        const std::string path = sourcePath("hostbench/profiles/") + name;
        const std::string original = readFile(path);
        ASSERT_FALSE(original.empty()) << path;
        EXPECT_EQ(jsonOf(flow::SwitchProfile::loadJsonFile(path)),
                  original)
            << name;
    }
}

// ---------------------------------------------------------------------
// Run manifests
// ---------------------------------------------------------------------

/// A manifest on fixed inputs: relative artifact paths (the test's
/// working directory) and pinned build entries, so the bytes do not
/// depend on the machine or build mode.
obs::RunManifest
nastyManifest()
{
    writeFile("json_golden_a.csv", "a,b\n1,2\n");
    writeFile("json_golden_b.json", "{}\n");
    obs::RunManifest manifest(kNasty);
    manifest.setConfig("build.compiler", "cc");
    manifest.setConfig("build.mode", "test");
    manifest.setConfig(kNasty, kNasty);
    manifest.setConfig("third", kThird);
    manifest.setConfig("hosts", static_cast<std::int64_t>(-64));
    manifest.setSeed(std::numeric_limits<std::uint64_t>::max());
    manifest.setJobs(4);
    manifest.addArtifact("json_golden_b.json", "bench-json");
    manifest.addArtifact("json_golden_a.csv", kNasty);
    manifest.addPhaseSeconds(kNasty, kThird, 3);
    manifest.addPhaseSeconds("tiny", kTiny);
    manifest.addPhaseSeconds("huge", kHuge);
    manifest.addPhaseSeconds("subnormal", kSubnormal);
    return manifest;
}

TEST(JsonGolden, RunManifest)
{
    const obs::RunManifest manifest = nastyManifest();
    expectGolden(jsonOf(manifest), "manifest.json");
    expectGolden(manifest.identityJson(), "manifest_identity.json");

    obs::RunManifest empty("empty");
    empty.setConfig("build.compiler", "cc");
    empty.setConfig("build.mode", "test");
    expectGolden(jsonOf(empty), "manifest_empty.json");
    expectGolden(empty.identityJson(), "manifest_identity_empty.json");
}

TEST(JsonGolden, TrackedBenchManifestRoundTripsAndKeepsItsIdentity)
{
    const std::string path =
        sourcePath("bench_results/BENCH_dcn.json.manifest.json");
    const obs::RunManifest manifest = obs::RunManifest::loadJsonFile(path);
    EXPECT_EQ(jsonOf(manifest), readFile(path));
    EXPECT_EQ(manifest.identityHash(), 0xe4d21677c839f558ULL);
}

// ---------------------------------------------------------------------
// The report's JSON twin
// ---------------------------------------------------------------------

TEST(JsonGolden, ReportJsonTwin)
{
    writeFile("json_golden_flow.csv",
              "# wss flow telemetry\n"
              "record,window,scope,metric,value\n"
              "window,0,-,started,2\n"
              "window,0,-,completed,1\n"
              "window,1,-,completed,1\n"
              "link,0,t0,utilization,0.33333333333333331\n"
              "link,1,t0,utilization,0.97999999999999998\n"
              "link,1,t\"1,utilization,1e-17\n"
              "total,run,-,started,2\n"
              "total,run,-,completed,2\n"
              "total,run,-,failed,0\n"
              "total,run,-,completed_bytes,3e17\n");
    writeFile("json_golden_coll.csv",
              "# wss coll telemetry\n"
              "record,step,scope,metric,value\n"
              "step,0,-,messages,3\n"
              "step,0,-,bytes,1e-17\n"
              "total,run,-,messages,3\n"
              "total,run,-,failed,0\n"
              "total,run,-,bytes,1e-17\n");
    obs::RunManifest manifest(kNasty);
    manifest.setConfig("build.compiler", "cc");
    manifest.setConfig("build.mode", "test");
    manifest.setSeed(7);
    manifest.setJobs(2);
    manifest.addArtifact("json_golden_flow.csv", "flow-telemetry");
    manifest.addArtifact("json_golden_coll.csv", "coll-telemetry");
    manifest.addPhaseSeconds("campaign", kThird);
    manifest.addPhaseSeconds("campaign/cell", kTiny, 2);
    manifest.addPhaseSeconds(kNasty, kHuge);
    manifest.writeJsonFile("json_golden_report.manifest.json");

    writeFile("json_golden_crash.json",
              "{\"wss_crash_report\": 1, \"reason\": "
              "\"q\\\"b\\\\s\\nn\\tt\\rr end\", \"signal\": 6, "
              "\"signal_name\": \"SIGABRT\", \"tool\": \"t\\tool\", "
              "\"identity_hash\": \"0x00000000000000ff\", "
              "\"uptime_s\": 4.9406564584124654e-324, "
              "\"counters\": {\"c\": 1}, \"threads\": ["
              "{\"label\": \"main\\n\", \"events_recorded\": 3e17, "
              "\"open_phase_depth\": 2, \"open_phases\": "
              "[\"campaign\", \"p\\\"q\"], \"events\": [{\"t_s\": "
              "1e-17, \"kind\": \"k\", \"a\": 1, \"b\": 2, \"tag\": "
              "\"x\"}]}, {\"label\": \"idle\", \"events_recorded\": "
              "3, \"open_phase_depth\": 0, "
              "\"open_phases\": [], \"events\": []}]}\n");

    obs::ReportOptions opts;
    opts.manifest_path = "json_golden_report.manifest.json";
    opts.crash_path = "json_golden_crash.json";
    expectGolden(obs::buildRunReport(opts).json, "report.json");

    // No artifacts, phases or crash: every list is empty.
    obs::RunManifest bare("bare");
    bare.setConfig("build.compiler", "cc");
    bare.setConfig("build.mode", "test");
    bare.writeJsonFile("json_golden_bare.manifest.json");
    obs::ReportOptions bare_opts;
    bare_opts.manifest_path = "json_golden_bare.manifest.json";
    expectGolden(obs::buildRunReport(bare_opts).json, "report_bare.json");
}

// ---------------------------------------------------------------------
// Chrome traces
// ---------------------------------------------------------------------

TEST(JsonGolden, TraceEventSink)
{
    using obs::TraceArg;
    obs::TraceEventSink sink;
    sink.setProcessName(kNasty);
    sink.setThreadName(3, "worker\t3");
    const int track = sink.allocateTrack("flow-telemetry");
    sink.complete(kNasty, "cat\\", 3, 5, 7,
                  {TraceArg::str(kNasty, kNasty),
                   TraceArg::num("third", kThird),
                   TraceArg::num("tiny", kTiny),
                   TraceArg::num("huge", kHuge),
                   TraceArg::num("subnormal", kSubnormal),
                   TraceArg::num("int", static_cast<std::int64_t>(-42)),
                   TraceArg::num("inf",
                                 std::numeric_limits<double>::infinity())});
    sink.instant("mark", "", track, 5, {});
    sink.counter("load", "flow", track, 9, kThird);

    std::ostringstream os;
    sink.write(os);
    expectGolden(os.str(), "trace.json");

    std::ostringstream empty;
    obs::TraceEventSink().write(empty);
    expectGolden(empty.str(), "trace_empty.json");
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

using util::JsonValue;
using util::JsonWriter;

JsonValue
parse(std::string_view text)
{
    return JsonValue::parse(text, "test");
}

TEST(Json, ParsesEveryKindInFileOrder)
{
    const JsonValue doc = parse(
        " {\"b\": [1, -2.5e3, true, false, null], \"a\": {\"s\": "
        "\"x\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\\u00e9\"}, \"e\": {}, "
        "\"z\": []} \n");
    const auto &members = doc.asObject("doc");
    ASSERT_EQ(members.size(), 4u);
    EXPECT_EQ(members[0].first, "b");
    EXPECT_EQ(members[1].first, "a");
    const auto &b = doc.require("b", "doc").asArray("b");
    ASSERT_EQ(b.size(), 5u);
    EXPECT_EQ(b[0].asNumber("b0"), 1.0);
    EXPECT_EQ(b[1].asNumber("b1"), -2500.0);
    EXPECT_TRUE(b[2].asBool("b2"));
    EXPECT_FALSE(b[3].asBool("b3"));
    EXPECT_TRUE(b[4].isNull());
    EXPECT_EQ(doc.require("a", "doc").stringOr("s", ""),
              "x\"\\/\b\f\n\r\tA\\u00e9");
    EXPECT_TRUE(doc.find("e")->asObject("e").empty());
    EXPECT_TRUE(doc.find("z")->asArray("z").empty());
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_EQ(doc.numberOr("missing", 7.0), 7.0);
}

TEST(Json, NumbersMatchStrtodBitForBit)
{
    for (const char *token :
         {"0", "-0", "1", "0.1", "0.33333333333333331", "1e-17",
          "3e+17", "4.9406564584124654e-324", "2.2250738585072014e-308",
          "1.7976931348623157e308", "123456789012345678901234567890",
          "2.5599999999999998e-09", "-1E5", "1e-310"}) {
        const double expected = std::strtod(token, nullptr);
        const double actual = parse(token).asNumber(token);
        EXPECT_EQ(std::signbit(actual), std::signbit(expected)) << token;
        EXPECT_EQ(actual, expected) << token;
    }
}

TEST(Json, NestingIsCappedAtMaxDepth)
{
    const int max = JsonValue::kMaxDepth;
    const std::string ok =
        std::string(max, '[') + std::string(max, ']');
    EXPECT_TRUE(parse(ok).isArray());
    const std::string objects = [&] {
        std::string s;
        for (int i = 0; i < max; ++i)
            s += "{\"k\": ";
        return s + "0" + std::string(max, '}');
    }();
    EXPECT_TRUE(parse(objects).isObject());
    EXPECT_EXIT(parse(std::string(max + 1, '[') +
                      std::string(max + 1, ']')),
                ::testing::ExitedWithCode(1), "nesting deeper than 256");
    // 100k unclosed brackets (a 100 KB file) once overflowed the stack.
    EXPECT_EXIT(parse(std::string(100000, '[')),
                ::testing::ExitedWithCode(1), "nesting deeper than 256");
}

TEST(Json, DuplicateKeysAreFatal)
{
    EXPECT_EXIT(parse("{\"radix\": 1, \"radix\": 2}"),
                ::testing::ExitedWithCode(1), "duplicate key \"radix\"");
    EXPECT_EXIT(parse("{\"a\": {\"\": 1, \"x\": 0, \"\": 2}}"),
                ::testing::ExitedWithCode(1), "duplicate key \"\"");
    // A larger object, duplicate far from its twin.
    std::string big = "{";
    for (int i = 0; i < 40; ++i)
        big += "\"k" + std::to_string(i) + "\": 0, ";
    EXPECT_TRUE(parse(big + "\"k40\": 0}").isObject());
    EXPECT_EXIT(parse(big + "\"k17\": 0}"), ::testing::ExitedWithCode(1),
                "duplicate key \"k17\"");
}

TEST(Json, OutOfRangeAndNonFiniteNumbersAreFatal)
{
    for (const char *doc : {"1e999", "-1e999", "1e-400", "[0, 1e400]"})
        EXPECT_EXIT(parse(doc), ::testing::ExitedWithCode(1),
                    "out of range for a double")
            << doc;
    for (const char *doc :
         {"NaN", "nan", "Infinity", "-Infinity", "inf", "[1, NaN]"})
        EXPECT_EXIT(parse(doc), ::testing::ExitedWithCode(1),
                    "malformed JSON")
            << doc;
}

TEST(Json, IntegersAreIntegralAndInRange)
{
    EXPECT_EQ(parse("-9223372036854775808").asInteger("n"), INT64_MIN);
    // The largest double below 2^63.
    EXPECT_EQ(parse("9223372036854774784").asInteger("n"),
              9223372036854774784LL);
    EXPECT_EQ(parse("4.2e1").asInteger("n", 0, 42), 42);
    EXPECT_EQ(parse("{\"n\": -3}").integerOr("n", 0), -3);
    EXPECT_EQ(parse("{}").integerOr("n", 7), 7);
    for (const char *doc :
         {"1e300", "-1e300", "9223372036854775808", "0.5", "-2.5e-3"})
        EXPECT_EXIT(parse(doc).asInteger("field"),
                    ::testing::ExitedWithCode(1),
                    "field: .* is not an integer")
            << doc;
    EXPECT_EXIT(parse("43").asInteger("jobs", 0, 42),
                ::testing::ExitedWithCode(1),
                "jobs: 43 is not an integer in \\[0, 42\\]");
    EXPECT_EXIT(parse("-1").asInteger("bytes", 0),
                ::testing::ExitedWithCode(1), "bytes: -1 is not an integer");
    EXPECT_EXIT(parse("{\"a\": 1.5}").integerOr("a", 0),
                ::testing::ExitedWithCode(1), "a: 1.5 is not an integer");
    EXPECT_EXIT(parse("\"7\"").asInteger("n"), ::testing::ExitedWithCode(1),
                "n: expected number, got string");
}

TEST(Json, BadEscapesAreFatal)
{
    for (const char *doc :
         {"\"\\x\"", "\"\\u12G4\"", "\"\\u+123\"", "\"\\u 123\"",
          "\"\\u12\"", "\"\\", "\"abc"})
        EXPECT_EXIT(parse(doc), ::testing::ExitedWithCode(1),
                    "malformed JSON")
            << doc;
}

/// fatal() as an exception, so a corpus runs without forking.
struct FatalCalled
{
};

/// Installs the throwing hook and silences stderr for its lifetime.
class FatalAsException
{
  public:
    FatalAsException() : saved_(std::cerr.rdbuf(sink_.rdbuf()))
    {
        setLogEventHook([](detail::LogEvent event,
                                 const char *) {
            if (event == detail::LogEvent::Fatal)
                throw FatalCalled{};
        });
    }
    ~FatalAsException()
    {
        setLogEventHook(nullptr);
        std::cerr.rdbuf(saved_);
    }

  private:
    std::ostringstream sink_;
    std::streambuf *saved_;
};

/// True when @p text parses, false when it ends in fatal().
bool
parses(std::string_view text)
{
    try {
        parse(text);
        return true;
    } catch (const FatalCalled &) {
        return false;
    }
}

std::string
trimEnd(std::string_view s)
{
    while (!s.empty() && (s.back() == '\n' || s.back() == ' '))
        s.remove_suffix(1);
    return std::string(s);
}

TEST(Json, MutationCorpusEitherParsesOrFatals)
{
    const std::string manifest =
        readFile(sourcePath("bench_results/BENCH_dcn.json.manifest.json"));
    ASSERT_GT(manifest.size(), 100u);
    FatalAsException guard;

    // Every truncation: only a cut inside the trailing whitespace
    // still parses.
    std::size_t fatals = 0;
    for (std::size_t n = 0; n <= manifest.size(); ++n) {
        const std::string_view cut(manifest.data(), n);
        const bool complete = trimEnd(cut) == trimEnd(manifest);
        EXPECT_EQ(parses(cut), complete) << "truncated at byte " << n;
        fatals += !complete;
    }
    EXPECT_GT(fatals, manifest.size() - 3);

    // Every byte replaced by a structural or numeric character: the
    // reader must decide, never crash.
    for (std::size_t i = 0; i < manifest.size(); ++i)
        for (char c : {'"', '\\', '{', '}', '[', ']', ',', ':', '9', '-',
                       'e', '.', 'n', '\0', '\x7f'}) {
            std::string mutated = manifest;
            mutated[i] = c;
            parses(mutated);
        }

    // Hand-written hostile inputs: all fatal.
    const std::string deep(100000, '[');
    for (const std::string &doc :
         {deep, std::string(100000, '{'), "{\"a\":" + deep,
          std::string("{\"a\": \"\\q\"}"), std::string("\"\\u00\""),
          std::string("[NaN]"), std::string("{\"x\": Infinity}"),
          std::string("[-Infinity]"), std::string("{\"uptime_s\": 1e999}"),
          std::string("[1e-400]"), std::string("{\"k\": 1, \"k\": 1}"),
          std::string("{\"wss_switch_profile\": 1, \"radix\": 8, "
                      "\"radix\": 9}"),
          std::string("{\"line_rate_gbps\": 200-5}"), std::string(""),
          std::string("   "), std::string("[1,]"), std::string("{,}"),
          std::string("{\"a\" 1}"), std::string("[1 2]"),
          std::string("01x"), std::string("-"), std::string("1.e5"),
          std::string("tru"), std::string("nul"), std::string("[]]")})
        EXPECT_FALSE(parses(doc)) << doc.substr(0, 40);
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

TEST(JsonWriter, LayoutsPlaceSeparatorsAndIndentation)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject(JsonWriter::kLines)
        .field("i", static_cast<std::int64_t>(-3))
        .field("u", std::uint64_t{18446744073709551615ULL})
        .field("d", 0.1)
        .field("b", false)
        .field("s", "a\"b\\c\nd\te\rf\x01g")
        .key("inline")
        .beginArray()
        .value(1)
        .value("x")
        .beginObject()
        .end()
        .end()
        .key("lines")
        .beginArray(JsonWriter::kLines)
        .beginArray()
        .end()
        .end()
        .key("empty_lines")
        .beginArray(JsonWriter::kLines)
        .end()
        .key("empty_compact")
        .beginObject(JsonWriter::kLinesCompact)
        .end()
        .key("first")
        .beginObject({.lines = true, .first_on_open_line = true})
        .field("a", 1)
        .field("b", 2)
        .end()
        .key("columns")
        .beginArray({.lines = true, .indent = 5, .close = 1})
        .value(1)
        .value(2)
        .end()
        .end();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"i\": -3,\n"
                        "  \"u\": 18446744073709551615,\n"
                        "  \"d\": 0.10000000000000001,\n"
                        "  \"b\": false,\n"
                        "  \"s\": \"a\\\"b\\\\c\\nd\\te f g\",\n"
                        "  \"inline\": [1, \"x\", {}],\n"
                        "  \"lines\": [\n"
                        "    []\n"
                        "  ],\n"
                        "  \"empty_lines\": [\n"
                        "  ],\n"
                        "  \"empty_compact\": {},\n"
                        "  \"first\": {\"a\": 1,\n"
                        "    \"b\": 2\n"
                        "  },\n"
                        "  \"columns\": [\n"
                        "     1,\n"
                        "     2\n"
                        " ]\n"
                        "}\n");
    // What the writer writes, the reader reads back.
    EXPECT_EQ(parse(os.str()).require("d", "doc").asNumber("d"), 0.1);
}

TEST(JsonWriter, NonFiniteNumbersAreFatalNamingTheKey)
{
    const auto write = [](const char *key, double v) {
        std::ostringstream os;
        JsonWriter(os).beginObject().field(key, v).end();
    };
    EXPECT_EXIT(write("uptime_s", std::numeric_limits<double>::infinity()),
                ::testing::ExitedWithCode(1), "\"uptime_s\" is inf");
    EXPECT_EXIT(write("started", std::nan("")),
                ::testing::ExitedWithCode(1), "\"started\" is .*nan");
    // An array element is named by its array's key.
    EXPECT_EXIT(
        {
            std::ostringstream os;
            JsonWriter(os).beginObject().key("points").beginArray().value(
                -std::numeric_limits<double>::infinity());
        },
        ::testing::ExitedWithCode(1), "\"points\" is -inf");
}

// ---------------------------------------------------------------------
// Profile reader on JsonValue
// ---------------------------------------------------------------------

flow::SwitchProfile
profileFrom(const std::string &text)
{
    std::istringstream is(text);
    return flow::SwitchProfile::fromJson(is);
}

const std::string kProfileHead =
    "{\"wss_switch_profile\": 1, \"name\": \"p\", \"cycle_seconds\": 1, ";

TEST(JsonProfile, KeepsDefaultsAndIgnoresUnknownMembers)
{
    const flow::SwitchProfile p =
        profileFrom(kProfileHead +
                    "\"radix\": 64, \"line_rate_gbps\": 200, "
                    "\"future\": {\"x\": [1, {\"y\": null}]}, \"points\": "
                    "[{\"offered\": 0.1, \"avg_latency\": 5, \"z\": 1}]}");
    EXPECT_EQ(p.radix, 64);
    EXPECT_EQ(p.saturation, 1.0); // missing: default
    EXPECT_EQ(p.power_watts, 0.0);
    ASSERT_EQ(p.points.size(), 1u);
    EXPECT_EQ(p.points[0].avg_latency, 5.0);
    EXPECT_EQ(p.points[0].p99_latency, 0.0);
}

TEST(JsonProfile, MalformedProfilesAreFatal)
{
    EXPECT_EXIT(profileFrom(kProfileHead +
                            "\"radix\": 64, \"line_rate_gbps\": 200-5}"),
                ::testing::ExitedWithCode(1), "malformed JSON");
    EXPECT_EXIT(profileFrom(kProfileHead +
                            "\"radix\": 64, \"radix\": 8, "
                            "\"line_rate_gbps\": 200}"),
                ::testing::ExitedWithCode(1), "duplicate key \"radix\"");
    EXPECT_EXIT(profileFrom("{\"wss_switch_profile\": 2}"),
                ::testing::ExitedWithCode(1), "unsupported version 2");
    EXPECT_EXIT(profileFrom(kProfileHead + "\"radix\": 64}"),
                ::testing::ExitedWithCode(1), "must be positive");
    EXPECT_EXIT(profileFrom(kProfileHead +
                            "\"radix\": 1e300, \"line_rate_gbps\": 200}"),
                ::testing::ExitedWithCode(1), "must be positive");
    EXPECT_EXIT(profileFrom(kProfileHead +
                            "\"radix\": \"64\", \"line_rate_gbps\": 200}"),
                ::testing::ExitedWithCode(1), "expected number");
    EXPECT_EXIT(profileFrom(kProfileHead +
                            "\"radix\": 64, \"line_rate_gbps\": 200, "
                            "\"points\": [{\"offered\": 0.5}, "
                            "{\"offered\": 0.5}]}"),
                ::testing::ExitedWithCode(1), "must ascend");
    EXPECT_EXIT(profileFrom(kProfileHead +
                            "\"radix\": 64, \"line_rate_gbps\": 200, "
                            "\"points\": [0.5]}"),
                ::testing::ExitedWithCode(1), "expected object");
}

} // namespace
} // namespace wss

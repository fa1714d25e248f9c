#include "flow/switch_profile.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "exec/sweep_runner.hpp"
#include "sim/traffic.hpp"
#include "topology/clos.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wss::flow {

namespace {

/// Interpolate @p points (plus the implicit (0, zero_load) anchor)
/// at @p offered, reading the latency via @p get.
template <typename Get>
double
interpolate(const std::vector<ProfilePoint> &points, double zero_load,
            double offered, Get get)
{
    if (points.empty() || offered <= 0.0)
        return zero_load;
    double x0 = 0.0;
    double y0 = zero_load;
    for (const auto &point : points) {
        if (offered <= point.offered) {
            const double span = point.offered - x0;
            if (span <= 0.0)
                return get(point);
            const double t = (offered - x0) / span;
            return y0 + t * (get(point) - y0);
        }
        x0 = point.offered;
        y0 = get(point);
    }
    // Beyond the last calibrated point: clamp. The saturation derate
    // keeps flow-level loads from straying far past it anyway.
    return y0;
}

} // namespace

double
SwitchProfile::latencyCycles(double offered) const
{
    return interpolate(points, zero_load_latency, offered,
                       [](const ProfilePoint &p) { return p.avg_latency; });
}

double
SwitchProfile::p99LatencyCycles(double offered) const
{
    return interpolate(points, zero_load_latency, offered,
                       [](const ProfilePoint &p) { return p.p99_latency; });
}

void
SwitchProfile::writeJson(std::ostream &os) const
{
    // Points sit at column 13 ('  "points": [' plus one): the tracked
    // hostbench/profiles/*.json files round-trip byte for byte.
    constexpr util::JsonLayout kPoints{
        .lines = true, .indent = 13, .compact_empty = true};
    util::JsonWriter json(os);
    json.beginObject(util::JsonWriter::kLines)
        .field("wss_switch_profile", 1).field("name", name)
        .field("radix", radix).field("line_rate_gbps", line_rate_gbps)
        .field("cycle_seconds", cycle_seconds)
        .field("power_watts", power_watts)
        .field("zero_load_latency", zero_load_latency)
        .field("saturation", saturation).key("points").beginArray(kPoints);
    for (const auto &point : points)
        json.beginObject()
            .field("offered", point.offered)
            .field("avg_latency", point.avg_latency)
            .field("p99_latency", point.p99_latency).end();
    json.end().end();
}

void
SwitchProfile::writeJsonFile(const std::string &path) const
{
    util::writeArtifactFile(path, "SwitchProfile",
                            [this](std::ostream &os) { writeJson(os); });
}

SwitchProfile
SwitchProfile::fromJson(std::istream &is)
{
    constexpr std::string_view kWhat = "SwitchProfile JSON";
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const util::JsonValue doc = util::JsonValue::parse(buffer.str(), kWhat);
    doc.asObject(kWhat);

    const util::JsonValue *version = doc.find("wss_switch_profile");
    if (!version)
        fatal("SwitchProfile JSON: missing wss_switch_profile marker "
              "(is this really a profile file?)");
    if (const double v = version->asNumber(kWhat); v != 1.0)
        fatal("SwitchProfile JSON: unsupported version ", v);

    // Unknown members are ignored (forward compatibility); missing
    // ones keep their defaults.
    SwitchProfile profile;
    profile.name = doc.stringOr("name", profile.name);
    // Out-of-range radices read as 0 (rejected below): casting them
    // to an integer would be undefined.
    const double radix = doc.numberOr("radix", 0.0);
    profile.radix =
        radix > 0.0 && radix < 0x1p63 ? static_cast<std::int64_t>(radix) : 0;
    profile.line_rate_gbps =
        doc.numberOr("line_rate_gbps", profile.line_rate_gbps);
    profile.cycle_seconds =
        doc.numberOr("cycle_seconds", profile.cycle_seconds);
    profile.power_watts = doc.numberOr("power_watts", profile.power_watts);
    profile.zero_load_latency =
        doc.numberOr("zero_load_latency", profile.zero_load_latency);
    profile.saturation = doc.numberOr("saturation", profile.saturation);
    if (const util::JsonValue *points = doc.find("points")) {
        for (const util::JsonValue &p : points->asArray(kWhat)) {
            p.asObject(kWhat);
            profile.points.push_back({p.numberOr("offered", 0.0),
                                      p.numberOr("avg_latency", 0.0),
                                      p.numberOr("p99_latency", 0.0)});
        }
    }

    if (profile.radix <= 0 || profile.line_rate_gbps <= 0.0)
        fatal("SwitchProfile JSON: radix and line_rate_gbps must be "
              "positive");
    if (profile.saturation <= 0.0 || profile.cycle_seconds <= 0.0)
        fatal("SwitchProfile JSON: saturation and cycle_seconds must "
              "be positive");
    for (std::size_t i = 1; i < profile.points.size(); ++i)
        if (profile.points[i].offered <= profile.points[i - 1].offered)
            fatal("SwitchProfile JSON: points must ascend in offered "
                  "load");
    return profile;
}

SwitchProfile
SwitchProfile::loadJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("SwitchProfile: cannot open '", path,
              "' (run the calibration first, e.g. `wss dcn "
              "--calibrate --profiles <dir>`)");
    return fromJson(is);
}

SwitchProfile
calibrateSwitchProfile(const CalibrationSpec &spec,
                       exec::ThreadPool *pool,
                       obs::TraceEventSink *trace,
                       obs::Profiler *profiler)
{
    obs::ScopedPhase calibrate_phase(profiler, "calibrate");
    const auto topo = topology::buildFoldedClos(
        {spec.ports, spec.ssc, /*leaf_split=*/1});

    exec::SweepJob job;
    job.make_network = [topo, net = spec.net_spec](std::uint64_t seed) {
        return std::make_unique<sim::Network>(topo, net, seed);
    };
    const auto ports = static_cast<int>(spec.ports);
    job.make_workload = [ports, packet = spec.packet_flits](
                            double rate, std::uint64_t) {
        return std::make_unique<sim::SyntheticWorkload>(
            sim::uniformTraffic(ports), rate, packet);
    };
    job.rates = spec.rates;
    job.cfg = spec.sim_cfg;

    const auto output =
        exec::SweepRunner(std::move(job)).run(pool, trace, profiler);
    const sim::SweepResult &sweep = output.combined;

    SwitchProfile profile;
    profile.name = spec.name;
    profile.radix = spec.radix > 0 ? spec.radix : spec.ports;
    profile.line_rate_gbps = spec.ssc.line_rate;
    profile.power_watts = spec.power_watts;
    profile.zero_load_latency = sweep.zero_load_latency;
    profile.saturation = sweep.saturation_throughput;
    for (const auto &point : sweep.points)
        if (point.stable)
            profile.points.push_back(
                {point.offered, point.avg_latency, point.p99_latency});
    if (profile.points.empty()) {
        warn("calibrateSwitchProfile: every sweep point of '",
             profile.name,
             "' is saturated; the latency curve degenerates to the "
             "zero-load anchor");
    }
    if (profile.saturation <= 0.0)
        profile.saturation = 1.0;
    return profile;
}

} // namespace wss::flow

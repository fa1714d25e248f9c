/**
 * @file
 * Simulator-core throughput benchmark — the tracked flits-per-second
 * trajectory of the cycle-accurate fabric simulator.
 *
 * Every packet-level figure (Figs. 21-24) and every exec/fault
 * campaign funnels through Simulator::run, so its Mflits/s is the
 * scaling limit of the whole reproduction. This bench pins that
 * number on representative design points:
 *
 *   - the Fig. 21 configuration (single radix-64 SSC, 64 VCs,
 *     200 ns-class terminal links) at 10% load and at saturation,
 *     with observability off and on,
 *   - a 4x4 direct mesh (Fig. 25's alternative topology), and
 *   - a 256-port folded Clos (the paper's main fabric shape),
 *
 * and emits BENCH_simcore.json (see --json) so successive PRs can
 * diff the trajectory with tools/bench_compare.py. SimResult fields
 * (flits delivered, end cycle) are included per point: a perf PR must
 * keep them bit-identical while moving the Mflits/s.
 *
 * Usage: bench_simcore [--smoke] [--json PATH] [--only SUBSTR]
 *                      [--reps N]
 *
 * --reps sweeps the whole point set N times and reports each point's
 * minimum wall time. The simulation is deterministic (the behavioural
 * fields must be identical across repetitions — asserted), so the
 * fastest repetition is the closest observation of what the code
 * costs: anything above it is scheduler interference, which matters
 * on the short low-load points whose whole run fits in a few
 * milliseconds. Repetitions of one point are deliberately spread
 * across full sweeps (not run back to back) so a single interference
 * burst cannot taint all of them.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/run_manifest.hpp"
#include "sim/simulator.hpp"
#include "topology/clos.hpp"
#include "topology/mesh.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace wss;

struct Point
{
    std::string name;
    topology::LogicalTopology topo;
    sim::NetworkSpec spec;
    double rate = 0.0;
    bool observe = false;
};

struct Measurement
{
    std::string name;
    double rate = 0.0;
    bool observe = false;
    double wall_seconds = 0.0;
    double mflits_per_second = 0.0;
    double kcycles_per_second = 0.0;
    sim::Cycle end_cycle = 0;
    std::int64_t flits_delivered = 0;
    double accepted = 0.0;
    bool stable = false;
};

sim::NetworkSpec
fig21Spec()
{
    // The Fig. 21 sweep's 200 ns-link cell at 32 flits/port.
    sim::NetworkSpec spec;
    spec.vcs = 64;
    spec.buffer_per_port = 32;
    spec.rc_delay_ingress = 1;
    spec.rc_delay_transit = 1;
    spec.pipeline_delay = 1;
    spec.terminal_link_latency = 10;
    return spec;
}

topology::LogicalTopology
fig21Topo()
{
    topology::LogicalTopology topo("single-ssc", 200.0);
    const int type = topo.addSscType(power::scaledSsc(64, 200.0));
    topo.addNode(topology::NodeRole::Router, type, 64);
    return topo;
}

Measurement
runPoint(const Point &point, bool smoke, std::uint64_t seed)
{
    sim::SimConfig cfg;
    cfg.warmup = smoke ? 100 : 1000;
    cfg.measure = smoke ? 300 : 8000;
    cfg.drain_limit = smoke ? 1000 : 4000;
    cfg.seed = seed;
    cfg.observe = point.observe;

    // Fresh fabric per run: Simulator::run consumes the network
    // state, and identical construction is exactly what makes
    // repetitions comparable.
    sim::Network net(point.topo, point.spec, seed + 1);
    sim::SyntheticWorkload workload(
        sim::uniformTraffic(net.terminalCount()), point.rate, 1);
    sim::Simulator simulator(net, workload, cfg);

    const auto start = std::chrono::steady_clock::now();
    const sim::SimResult result = simulator.run();
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();

    Measurement m;
    m.name = point.name;
    m.rate = point.rate;
    m.observe = point.observe;
    m.wall_seconds = seconds;
    m.mflits_per_second =
        seconds > 0.0
            ? static_cast<double>(result.flits_delivered) / seconds / 1e6
            : 0.0;
    m.kcycles_per_second =
        seconds > 0.0
            ? static_cast<double>(result.end_cycle + 1) / seconds / 1e3
            : 0.0;
    m.end_cycle = result.end_cycle;
    m.flits_delivered = result.flits_delivered;
    m.accepted = result.accepted;
    m.stable = result.stable;
    return m;
}

void
writeJson(const std::string &path, const std::vector<Measurement> &runs,
          bool smoke)
{
    util::writeArtifactFile(path, "bench_simcore", [&](std::ostream &os) {
        util::JsonWriter json(os);
        json.beginObject(util::JsonWriter::kLines)
            .field("bench", "simcore").field("smoke", smoke)
            .key("points").beginArray(util::JsonWriter::kLines);
        for (const Measurement &m : runs)
            json.beginObject()
                .field("name", m.name).field("rate", m.rate)
                .field("observe", m.observe)
                .field("wall_seconds", m.wall_seconds)
                .field("mflits_per_second", m.mflits_per_second)
                .field("kcycles_per_second", m.kcycles_per_second)
                .field("end_cycle", m.end_cycle)
                .field("flits_delivered", m.flits_delivered)
                .field("accepted", m.accepted).field("stable", m.stable).end();
        json.end().end();
    });
    inform("simcore JSON written to ", path);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wss;

    bool smoke = bench::fastMode();
    std::string json_path = "BENCH_simcore.json";
    std::string only;
    int reps = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc)
            only = argv[++i];
        else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
            reps = static_cast<int>(
                util::parsePositiveInt(argv[++i], "--reps", INT_MAX));
        else
            fatal("bench_simcore: unknown argument '", argv[i],
                  "' (usage: bench_simcore [--smoke] [--json PATH] "
                  "[--only SUBSTR] [--reps N])");
    }

    bench::banner("Simulator core",
                  "flits/s throughput on representative design points");

    std::vector<Point> points;
    points.push_back({"fig21/load0.10", fig21Topo(), fig21Spec(), 0.10,
                      false});
    points.push_back({"fig21/load0.98", fig21Topo(), fig21Spec(), 0.98,
                      false});
    points.push_back({"fig21/load0.10/obs", fig21Topo(), fig21Spec(),
                      0.10, true});
    points.push_back({"fig21/load0.98/obs", fig21Topo(), fig21Spec(),
                      0.98, true});
    {
        sim::NetworkSpec spec;
        spec.vcs = 8;
        spec.buffer_per_port = 16;
        spec.pipeline_delay = 1;
        spec.terminal_link_latency = 1;
        spec.internal_link_latency = 1;
        const auto mesh =
            topology::buildMesh(4, 4, power::scaledSsc(16, 200.0));
        points.push_back({"mesh4x4/load0.10", mesh, spec, 0.10, false});
        points.push_back({"mesh4x4/load0.20", mesh, spec, 0.20, false});
    }
    {
        sim::NetworkSpec spec;
        spec.vcs = 16;
        spec.buffer_per_port = 32;
        spec.pipeline_delay = 1;
        spec.terminal_link_latency = 1;
        spec.internal_link_latency = 1;
        const auto clos = topology::buildFoldedClos(
            {256, power::scaledSsc(32, 200.0), 1});
        points.push_back({"clos256/load0.10", clos, spec, 0.10, false});
        points.push_back({"clos256/load0.80", clos, spec, 0.80, false});
    }

    const auto seed = static_cast<std::uint64_t>(
        bench::envInt("WSS_BENCH_SEED", 1));

    Table table("Simulator-core throughput" +
                    std::string(smoke ? " (smoke)" : ""),
                {"point", "Mflits/s", "kcycles/s", "wall s", "accepted",
                 "flits delivered", "end cycle"});
    std::vector<Measurement> runs;
    for (int rep = 0; rep < reps; ++rep) {
        std::size_t idx = 0;
        for (const Point &point : points) {
            if (!only.empty() &&
                point.name.find(only) == std::string::npos)
                continue;
            const Measurement m = runPoint(point, smoke, seed);
            if (rep == 0) {
                runs.push_back(m);
            } else {
                Measurement &best = runs[idx];
                if (m.end_cycle != best.end_cycle ||
                    m.flits_delivered != best.flits_delivered)
                    fatal("bench_simcore: repetition ", rep, " of ",
                          point.name, " diverged (end_cycle ",
                          m.end_cycle, " vs ", best.end_cycle,
                          ") — the simulator is supposed to be "
                          "deterministic");
                if (m.wall_seconds < best.wall_seconds)
                    best = m;
            }
            ++idx;
        }
    }
    for (const Measurement &m : runs)
        table.addRow({m.name, Table::num(m.mflits_per_second, 3),
                      Table::num(m.kcycles_per_second, 1),
                      Table::num(m.wall_seconds, 3),
                      Table::num(m.accepted, 3),
                      Table::num(static_cast<double>(m.flits_delivered)),
                      Table::num(static_cast<double>(m.end_cycle))});
    table.print(std::cout);
    std::cout << "\nflits delivered / end cycle are part of the "
                 "contract: a perf PR must move Mflits/s while keeping "
                 "them\nbit-identical (compare runs with "
                 "tools/bench_compare.py).\n";

    writeJson(json_path, runs, smoke);

    // Provenance sibling: bench_compare.py refuses to diff two
    // reports whose manifests disagree on configuration.
    obs::RunManifest manifest("bench_simcore");
    manifest.setConfig("smoke", smoke ? "true" : "false");
    manifest.setConfig("only", only);
    manifest.setConfig("reps", static_cast<std::int64_t>(reps));
    manifest.setConfig("points",
                       static_cast<std::int64_t>(runs.size()));
    manifest.setSeed(seed);
    manifest.setJobs(1);
    manifest.addArtifact(json_path, "bench-json");
    for (const Measurement &m : runs)
        manifest.addPhaseSeconds(m.name, m.wall_seconds);
    const std::string manifest_path = json_path + ".manifest.json";
    manifest.writeJsonFile(manifest_path);
    inform("simcore manifest written to ", manifest_path);
    return 0;
}

/**
 * @file
 * Collectives — what LLM training traffic costs on a waferscale
 * switch versus the conventional fat-tree it replaces.
 *
 * The solver-sized waferscale design and a 64-port baseline are
 * calibrated into flow::SwitchProfiles (as in bench_dcn), then the
 * canonical collective set — ring / halving-doubling / tree
 * allreduce and the MoE all-to-all — is executed flow-level over a
 * payload sweep, every cell cross-checked against the closed-form
 * alpha-beta model.
 *
 * Emits bench_results/BENCH_coll.json (see --json): one point per
 * (design, collective, payload) keyed like bench_simcore points so
 * tools/bench_compare.py can diff successive PRs. The engine is
 * deterministic, so any drift in busbw/steps/messages is a
 * behavioural change, not noise.
 *
 * Usage: bench_coll [--smoke] [--json PATH]
 *   --smoke shrinks the calibration sweep, rank count and payload
 *   sweep for CI (WSS_BENCH_FAST=1 does the same).
 */

#include <cstring>

#include "bench_common.hpp"
#include "coll/campaign.hpp"
#include "core/radix_solver.hpp"
#include "obs/run_manifest.hpp"
#include "topology/clos.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"

namespace {

using namespace wss;

/// Round @p ports down to a positive multiple of ssc.radix / 2.
std::int64_t
alignPorts(std::int64_t ports, int ssc_radix)
{
    const std::int64_t half = ssc_radix / 2;
    return std::max<std::int64_t>(ports / half, 1) * half;
}

flow::SwitchProfile
calibrate(const std::string &name, std::int64_t radix,
          std::int64_t cal_ports, const power::SscConfig &ssc,
          double power_watts, bool smoke, exec::ThreadPool *pool)
{
    flow::CalibrationSpec spec;
    spec.name = name;
    spec.ports = alignPorts(cal_ports, ssc.radix);
    spec.ssc = ssc;
    spec.rates = sim::geometricRates(0.05, 0.95, smoke ? 3 : 5);
    spec.sim_cfg.warmup = smoke ? 200 : 1000;
    spec.sim_cfg.measure = smoke ? 500 : 4000;
    spec.sim_cfg.drain_limit = smoke ? 3000 : 20000;
    spec.sim_cfg.seed =
        static_cast<std::uint64_t>(bench::envInt("WSS_BENCH_SEED", 1));
    spec.power_watts = power_watts;
    flow::SwitchProfile profile =
        flow::calibrateSwitchProfile(spec, pool);
    profile.radix = radix;
    return profile;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wss;
    bool smoke = bench::fastMode();
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else
            fatal("bench_coll: unknown argument '", argv[i],
                  "' (--smoke | --json PATH)");
    }

    bench::banner("Collectives",
                  "allreduce / all-to-all schedules on waferscale vs "
                  "conventional, cross-checked against alpha-beta");

    exec::ThreadPool pool(bench::benchJobs());

    core::DesignSpec spec = bench::paperSpec(
        300.0, tech::siIf2x(), tech::opticalIo());
    spec.mapping_restarts = bench::envInt("WSS_BENCH_RESTARTS", 2);
    const auto solved = core::RadixSolver(spec).solveMaxPorts();
    if (solved.best.ports == 0)
        fatal("bench_coll: solver found no feasible design");
    const std::int64_t ws_ports =
        alignPorts(solved.best.ports, spec.ssc.radix);

    const power::SscConfig conv_ssc =
        power::scaledSsc(32, spec.ssc.line_rate);
    constexpr std::int64_t kConvPorts = 64;
    const double conv_power =
        static_cast<double>(
            topology::closChipletCount(kConvPorts, conv_ssc.radix)) *
            conv_ssc.core_power +
        power::externalIoPower(kConvPorts, conv_ssc.line_rate,
                               tech::serdes());

    const std::int64_t cal_cap = smoke ? 128 : 512;
    const flow::SwitchProfile ws = calibrate(
        "ws-" + std::to_string(ws_ports), ws_ports,
        std::min(ws_ports, cal_cap), spec.ssc,
        solved.best.power.total(), smoke, &pool);
    const flow::SwitchProfile conv = calibrate(
        "conv-64", kConvPorts, kConvPorts, conv_ssc, conv_power,
        smoke, &pool);

    coll::CollCampaignConfig cfg;
    cfg.designs = {ws, conv};
    cfg.kind = flow::DcnKind::FatTree;
    // 128 ranks pushes the conventional 64-port baseline to a second
    // tier (the waferscale switch stays single-hop); smoke keeps both
    // single-switch for speed.
    cfg.ranks = smoke ? 8 : 128;
    cfg.payload_bytes = smoke
                            ? std::vector<double>{1 << 16}
                            : std::vector<double>{1 << 16, 1 << 20,
                                                  1 << 24};
    cfg.seed =
        static_cast<std::uint64_t>(bench::envInt("WSS_BENCH_SEED", 1));
    const coll::CollResult result =
        coll::CollCampaign(cfg).run(&pool);

    Table table("Collectives (" + Table::num(cfg.ranks) + " ranks)",
                {"design", "collective", "payload", "flow us",
                 "flow busbw", "model us", "flow/model"});
    for (const auto &cell : result.cells) {
        const double ratio = cell.model.seconds > 0.0
                                 ? cell.flow.seconds /
                                       cell.model.seconds
                                 : 0.0;
        table.addRow({cell.design, cell.collective,
                      Table::num(cell.payload_bytes, 0),
                      Table::num(cell.flow.seconds * 1e6, 2),
                      Table::num(cell.flow.busbw_gbps, 1),
                      Table::num(cell.model.seconds * 1e6, 2),
                      Table::num(ratio, 4)});
    }
    table.print(std::cout);

    if (json_path) {
        util::writeArtifactFile(
            json_path, "bench_coll", [&](std::ostream &os) {
                util::JsonWriter json(os);
                json.beginObject(util::JsonWriter::kLines)
                    .field("bench", "coll").field("smoke", smoke)
                    .field("ws_design", ws.name).field("conv_design", conv.name)
                    .field("ranks", cfg.ranks)
                    .key("points").beginArray(util::JsonWriter::kLines);
                for (const auto &c : result.cells)
                    json.beginObject()
                        .field("name", c.design + "/" + c.collective)
                        .field("rate", c.payload_bytes)
                        .field("busbw_gbps", c.flow.busbw_gbps)
                        .field("flow_us", c.flow.seconds * 1e6)
                        .field("model_us", c.model.seconds * 1e6)
                        .field("steps", c.flow.steps)
                        .field("messages", c.flow.messages)
                        .field("failed", c.flow.failed_messages).end();
                json.end().end();
            });
        inform("Collectives JSON written to ", json_path);

        // Provenance sibling: bench_compare.py refuses to diff two
        // reports whose manifests disagree on configuration.
        obs::RunManifest manifest("bench_coll");
        manifest.setConfig("smoke", smoke ? "true" : "false");
        manifest.setConfig("ranks",
                           static_cast<std::int64_t>(cfg.ranks));
        manifest.setConfig("ws_design", ws.name);
        manifest.setConfig("conv_design", conv.name);
        manifest.setConfig(
            "payloads",
            static_cast<std::int64_t>(cfg.payload_bytes.size()));
        manifest.setSeed(cfg.seed);
        manifest.setJobs(result.threads);
        manifest.addArtifact(json_path, "bench-json");
        manifest.addPhaseSeconds("campaign", result.wall_seconds);
        const std::string manifest_path =
            std::string(json_path) + ".manifest.json";
        manifest.writeJsonFile(manifest_path);
        inform("Collectives manifest written to ", manifest_path);
    }

    std::cout << "\n[campaign] " << result.cells.size()
              << " cells on " << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n"
              << "\nOn the single waferscale switch every algorithm "
                 "runs at one hop and the full derated line rate;\n"
                 "the conventional fat-tree pays its extra tiers in "
                 "alpha on every one of the schedule's steps.\n";
    return 0;
}

/**
 * @file
 * The design pair bench_dcn and bench_coll compare, with their shared
 * command line and artifacts.
 *
 * The waferscale switch is solver-sized on the paper's 300 mm design
 * point; the conventional baseline is a 64 x 200G box built from the
 * same chiplet family (core plus SerDes I/O power). Both are
 * calibrated into flow::SwitchProfiles on sim::NetworkSpec defaults.
 */

#ifndef WSS_BENCH_DESIGN_PAIR_HPP
#define WSS_BENCH_DESIGN_PAIR_HPP

#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "core/radix_solver.hpp"
#include "flow/switch_profile.hpp"
#include "obs/run_manifest.hpp"
#include "topology/clos.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"

namespace wss::bench {

/// `[--smoke] [--json PATH]`, the command line of both benches;
/// WSS_BENCH_FAST=1 also sets smoke (shrunken calibration and
/// workload).
struct PairArgs
{
    PairArgs(int argc, char **argv, const std::string &tool)
    {
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--smoke") == 0)
                smoke = true;
            else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
                json_path = argv[++i];
            else
                fatal(tool, ": unknown argument '", argv[i],
                      "' (--smoke | --json PATH)");
        }
    }

    bool smoke = fastMode();
    const char *json_path = nullptr;
    /// WSS_BENCH_SEED: the calibration's and the campaign's seed.
    std::uint64_t seed =
        static_cast<std::uint64_t>(envInt("WSS_BENCH_SEED", 1));
};

/// The two calibrated designs every cell of both benches compares.
struct DesignPair
{
    flow::SwitchProfile ws;
    flow::SwitchProfile conv;
};

inline flow::SwitchProfile
calibrateDesign(const std::string &name, std::int64_t radix,
                std::int64_t cal_ports, const power::SscConfig &ssc,
                double power_watts, const PairArgs &args,
                exec::ThreadPool *pool)
{
    flow::CalibrationSpec spec;
    spec.name = name;
    spec.ports = topology::alignClosPorts(cal_ports, ssc.radix);
    spec.ssc = ssc;
    spec.rates = sim::geometricRates(0.05, 0.95, args.smoke ? 3 : 5);
    spec.sim_cfg.warmup = args.smoke ? 200 : 1000;
    spec.sim_cfg.measure = args.smoke ? 500 : 4000;
    spec.sim_cfg.drain_limit = args.smoke ? 3000 : 20000;
    spec.sim_cfg.seed = args.seed;
    spec.power_watts = power_watts;
    flow::SwitchProfile profile =
        flow::calibrateSwitchProfile(spec, pool);
    profile.radix = radix;
    return profile;
}

inline DesignPair
calibrateDesignPair(const std::string &tool, const PairArgs &args,
                    exec::ThreadPool *pool)
{
    core::DesignSpec spec =
        paperSpec(300.0, tech::siIf2x(), tech::opticalIo());
    spec.mapping_restarts = envInt("WSS_BENCH_RESTARTS", 2);
    const auto solved = core::RadixSolver(spec).solveMaxPorts();
    if (solved.best.ports == 0)
        fatal(tool, ": solver found no feasible design");
    const std::int64_t ws_ports =
        topology::alignClosPorts(solved.best.ports, spec.ssc.radix);

    const power::SscConfig conv_ssc =
        power::scaledSsc(32, spec.ssc.line_rate);
    constexpr std::int64_t kConvPorts = 64;
    const double conv_power =
        static_cast<double>(
            topology::closChipletCount(kConvPorts, conv_ssc.radix)) *
            conv_ssc.core_power +
        power::externalIoPower(kConvPorts, conv_ssc.line_rate,
                               tech::serdes());

    const std::int64_t cal_cap = args.smoke ? 128 : 512;
    return {calibrateDesign("ws-" + std::to_string(ws_ports), ws_ports,
                            std::min(ws_ports, cal_cap), spec.ssc,
                            solved.best.power.total(), args, pool),
            calibrateDesign("conv-64", kConvPorts, kConvPorts,
                            conv_ssc, conv_power, args, pool)};
}

/**
 * With --json, write the `bench_<name>` report (the bench name, the
 * smoke flag and both design names, then what @p body adds) and its
 * provenance manifest sibling, whose config tools/bench_compare.py
 * checks before it diffs two reports. @p manifest arrives holding
 * the bench's own config keys.
 */
template <class Body>
void
writePairArtifacts(const std::string &name, const std::string &label,
                   const PairArgs &args, const DesignPair &pair,
                   obs::RunManifest manifest, int threads,
                   double wall_seconds, const Body &body)
{
    if (!args.json_path)
        return;
    util::writeArtifactFile(
        args.json_path, "bench_" + name, [&](std::ostream &os) {
            util::JsonWriter json(os);
            json.beginObject(util::JsonWriter::kLines)
                .field("bench", name).field("smoke", args.smoke)
                .field("ws_design", pair.ws.name)
                .field("conv_design", pair.conv.name);
            body(json);
            json.end();
        });
    inform(label, " JSON written to ", args.json_path);

    manifest.setConfig("smoke", args.smoke ? "true" : "false");
    manifest.setConfig("ws_design", pair.ws.name);
    manifest.setConfig("conv_design", pair.conv.name);
    manifest.setSeed(args.seed);
    manifest.setJobs(threads);
    manifest.addArtifact(args.json_path, "bench-json");
    manifest.addPhaseSeconds("campaign", wall_seconds);
    const std::string manifest_path =
        std::string(args.json_path) + ".manifest.json";
    manifest.writeJsonFile(manifest_path);
    inform(label, " manifest written to ", manifest_path);
}

} // namespace wss::bench

#endif // WSS_BENCH_DESIGN_PAIR_HPP

/**
 * @file
 * The design pair bench_dcn and bench_coll compare, with their shared
 * command line and artifacts.
 */

#ifndef WSS_BENCH_DESIGN_PAIR_HPP
#define WSS_BENCH_DESIGN_PAIR_HPP

#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "flow/design_pair.hpp"
#include "obs/run_manifest.hpp"
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

/// `wss dcn`'s design pair at its defaults (flow::makeDesignPair()), so
/// the full runs use the profiles hostbench ships; smoke shrinks the
/// calibration fabric, load points and phases.
inline std::vector<flow::SwitchProfile>
benchDesignPair(const std::string &tool, const PairArgs &args,
                exec::ThreadPool *pool)
{
    flow::DesignPairSpec spec;
    spec.ws = paperSpec(300.0, tech::siIf2x(), tech::opticalIo());
    spec.ws.mapping_restarts = envInt("WSS_BENCH_RESTARTS", 2);
    if (args.smoke) {
        spec.calibration.ports = 128;
        spec.calibration.rates = sim::geometricRates(0.05, 0.95, 3);
        spec.calibration.sim_cfg = {
            .warmup = 200, .measure = 500, .drain_limit = 3000};
    }
    spec.calibration.sim_cfg.seed = args.seed;
    return flow::makeDesignPair(spec, tool, [&](const auto &cal) {
        return flow::calibrateSwitchProfile(cal, pool);
    });
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
                   const PairArgs &args,
                   const std::vector<flow::SwitchProfile> &designs,
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
                .field("ws_design", designs.front().name)
                .field("conv_design", designs.back().name);
            body(json);
            json.end();
        });
    inform(label, " JSON written to ", args.json_path);

    manifest.setConfig("smoke", args.smoke ? "true" : "false");
    manifest.setConfig("ws_design", designs.front().name);
    manifest.setConfig("conv_design", designs.back().name);
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

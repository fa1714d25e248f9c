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

#include "bench_design_pair.hpp"
#include "coll/campaign.hpp"

int
main(int argc, char **argv)
{
    using namespace wss;
    const bench::PairArgs args(argc, argv, "bench_coll");

    bench::banner("Collectives",
                  "allreduce / all-to-all schedules on waferscale vs "
                  "conventional, cross-checked against alpha-beta");

    exec::ThreadPool pool(bench::benchJobs());
    coll::CollCampaignConfig cfg;
    cfg.designs = bench::benchDesignPair("bench_coll", args, &pool);
    cfg.kind = flow::DcnKind::FatTree;
    // 128 ranks pushes the conventional 64-port baseline to a second
    // tier (the waferscale switch stays single-hop); smoke keeps both
    // single-switch for speed.
    cfg.ranks = args.smoke ? 8 : 128;
    cfg.payload_bytes = args.smoke
                            ? std::vector<double>{1 << 16}
                            : std::vector<double>{1 << 16, 1 << 20,
                                                  1 << 24};
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

    obs::RunManifest manifest("bench_coll");
    manifest.setConfig("ranks", static_cast<std::int64_t>(cfg.ranks));
    manifest.setConfig(
        "payloads", static_cast<std::int64_t>(cfg.payload_bytes.size()));
    bench::writePairArtifacts(
        "coll", "Collectives", args, cfg.designs, std::move(manifest),
        result.threads, result.wall_seconds,
        [&](util::JsonWriter &json) {
            json.field("ranks", cfg.ranks)
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
            json.end();
        });

    std::cout << "\n[campaign] " << result.cells.size()
              << " cells on " << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n"
              << "\nOn the single waferscale switch every algorithm "
                 "runs at one hop and the full derated line rate;\n"
                 "the conventional fat-tree pays its extra tiers in "
                 "alpha on every one of the schedule's steps.\n";
    return 0;
}

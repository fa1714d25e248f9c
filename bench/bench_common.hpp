/**
 * @file
 * Shared helpers for the per-figure/per-table bench binaries.
 *
 * Every binary in bench/ regenerates one table or figure of the
 * paper: it prints the same rows/series the paper reports (aligned
 * text via wss::Table) plus a short header naming the artifact.
 * Environment knobs:
 *   WSS_BENCH_RESTARTS  mapping-search restarts (default 4)
 *   WSS_BENCH_SEED      base RNG seed (default 1)
 *   WSS_BENCH_FAST      if set, shrink simulation phases for smoke
 *                       runs
 *   WSS_JOBS            worker threads for campaign-driven benches
 *                       (default: hardware concurrency)
 *   WSS_BENCH_CSV       write the campaign's per-cell CSV here
 *   WSS_BENCH_JSON      write the campaign's JSON summary here
 */

#ifndef WSS_BENCH_COMMON_HPP
#define WSS_BENCH_COMMON_HPP

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/design.hpp"
#include "exec/campaign.hpp"
#include "power/ssc.hpp"
#include "tech/cooling.hpp"
#include "tech/external_io.hpp"
#include "tech/wsi.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace wss::bench {

/// Integer environment knob with default.
inline int
envInt(const char *name, int fallback)
{
    const char *value = std::getenv(name);
    return value ? std::atoi(value) : fallback;
}

/// True when WSS_BENCH_FAST is set (shrunken simulation phases).
inline bool
fastMode()
{
    return std::getenv("WSS_BENCH_FAST") != nullptr;
}

/// Announce which paper artifact this binary regenerates.
inline void
banner(const std::string &artifact, const std::string &description)
{
    std::cout << "### " << artifact << " — " << description << "\n\n";
}

/// The three substrate sides the paper sweeps (mm).
inline const double kSubstrates[] = {100.0, 200.0, 300.0};

/// Baseline design spec shared by the radix benches.
inline core::DesignSpec
paperSpec(double side, const tech::WsiTechnology &wsi,
          const tech::ExternalIoTech &ext)
{
    core::DesignSpec spec;
    spec.substrate_side = side;
    spec.wsi = wsi;
    spec.external_io = ext;
    spec.ssc = power::tomahawk5(1);
    spec.cooling = tech::unlimitedCooling();
    spec.mapping_restarts = envInt("WSS_BENCH_RESTARTS", 4);
    spec.seed = static_cast<std::uint64_t>(envInt("WSS_BENCH_SEED", 1));
    return spec;
}

/// Worker threads for campaign-driven benches (WSS_JOBS override).
inline int
benchJobs()
{
    return exec::ThreadPool::defaultThreads();
}

/**
 * Write the campaign's timing artifacts where the environment asks
 * (WSS_BENCH_CSV / WSS_BENCH_JSON) and print the one-line timing
 * summary every converted figure bench reports.
 */
inline void
reportCampaign(const exec::CampaignResult &result)
{
    if (const char *path = std::getenv("WSS_BENCH_CSV")) {
        result.writeCsvFile(path);
        inform("campaign CSV written to ", path);
    }
    if (const char *path = std::getenv("WSS_BENCH_JSON")) {
        result.writeJsonFile(path);
        inform("campaign JSON written to ", path);
    }
    double busy = 0.0;
    for (const auto &job : result.jobs)
        busy += job.seconds;
    // busy sums each cell's wall time, so busy/wall measures lane
    // occupancy (how many cells ran concurrently), not speedup —
    // compare wall at --jobs N vs --jobs 1 for that. Timing goes to
    // stderr so a figure's stdout stays byte-identical across runs.
    std::cerr << "\n[campaign] " << result.jobs.size() << " jobs on "
              << result.threads << " threads: wall "
              << Table::num(result.wall_seconds, 2)
              << " s, cell-seconds " << Table::num(busy, 2)
              << ", concurrency "
              << Table::num(result.wall_seconds > 0.0
                                ? busy / result.wall_seconds
                                : 0.0,
                            2)
              << "x\n";
}

/// All three external I/O schemes in the paper's plotting order.
inline std::vector<tech::ExternalIoTech>
externalIoSchemes()
{
    return {tech::serdes(), tech::opticalIo(), tech::areaIo()};
}

} // namespace wss::bench

#endif // WSS_BENCH_COMMON_HPP

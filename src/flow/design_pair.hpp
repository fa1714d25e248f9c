/**
 * @file
 * The waferscale/conventional design pair of the DCN and collective
 * studies (the paper's Table IX comparison carried past closed form),
 * shared by `wss dcn|coll` and bench_dcn|bench_coll.
 */

#ifndef WSS_FLOW_DESIGN_PAIR_HPP
#define WSS_FLOW_DESIGN_PAIR_HPP

#include <functional>

#include "core/design.hpp"
#include "flow/switch_profile.hpp"

namespace wss::flow {

/// The pair's inputs. Past `ws`, which the caller sets, the defaults
/// are `wss dcn`'s.
struct DesignPairSpec
{
    /// The waferscale design point: its chiplet, and the WSI and
    /// external I/O that price both switches.
    core::DesignSpec ws;
    /// Waferscale radix; 0 asks core::RadixSolver.
    std::int64_t ws_ports = 0;
    /// Conventional radix, of radix-conv_ssc_radix chiplets.
    std::int64_t conv_ports = 64;
    int conv_ssc_radix = 32;
    /// The sweep. Its ports cap each design's calibration fabric;
    /// makeDesignPair() fills in the per-design fields.
    CalibrationSpec calibration;
};

/**
 * {waferscale, conventional}, the designs axis of DcnCampaignConfig
 * and coll::CollCampaignConfig. Each is sized in whole leaves (a
 * pinned radix below one leaf is fatal, prefixed by @p tool), priced
 * (a pinned switch as its Clos chiplets' cores plus WSI crossing and
 * external I/O, a solver-sized one by the solver's breakdown, printed
 * on stdout) and profiled by @p calibrate on a fabric capped at
 * calibration.ports.
 */
std::vector<SwitchProfile> makeDesignPair(
    const DesignPairSpec &spec, const std::string &tool,
    const std::function<SwitchProfile(const CalibrationSpec &)> &calibrate);

} // namespace wss::flow

#endif // WSS_FLOW_DESIGN_PAIR_HPP

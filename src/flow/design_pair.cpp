#include "flow/design_pair.hpp"

#include <algorithm>
#include <iostream>

#include "core/radix_solver.hpp"
#include "power/switch_power.hpp"
#include "topology/clos.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace wss::flow {

std::vector<SwitchProfile>
makeDesignPair(
    const DesignPairSpec &spec, const std::string &tool,
    const std::function<SwitchProfile(const CalibrationSpec &)> &calibrate)
{
    const auto pinned = [&](const char *what, std::int64_t ports,
                            const power::SscConfig &ssc) {
        if (ports < ssc.radix / 2)
            fatal(tool, ": the ", what, " switch needs at least one "
                  "leaf of its radix-", ssc.radix, " chiplets (",
                  ssc.radix / 2, " ports), got ", ports);
        return topology::alignClosPorts(ports, ssc.radix);
    };
    const auto price = [&](std::int64_t ports, const power::SscConfig &ssc) {
        const auto chiplets = topology::closChipletCount(ports, ssc.radix);
        return static_cast<double>(chiplets) * ssc.core_power +
               power::internalIoPower(
                   2.0 * static_cast<double>(ports) * ssc.line_rate,
                   spec.ws.wsi) +
               power::externalIoPower(ports, ssc.line_rate,
                                      spec.ws.external_io);
    };
    // Calibrating the full waferscale fabric cycle-accurately is
    // expensive, so the sweep runs on a capped internal fabric of the
    // same chiplet; the latency-vs-load shape carries over and the
    // profile keeps the full DCN-level radix.
    const auto profile = [&](const char *name, std::int64_t ports,
                             const power::SscConfig &ssc, double watts) {
        CalibrationSpec cal = spec.calibration;
        cal.name = name + std::to_string(ports);
        cal.ports = topology::alignClosPorts(
            std::min(ports, spec.calibration.ports), ssc.radix);
        cal.radix = ports;
        cal.ssc = ssc;
        cal.power_watts = watts;
        return calibrate(cal);
    };

    const power::SscConfig &ws_ssc = spec.ws.ssc;
    const power::SscConfig conv_ssc =
        power::scaledSsc(spec.conv_ssc_radix, ws_ssc.line_rate);
    // Both pinned radices are checked before the solver runs.
    std::int64_t ws_ports =
        spec.ws_ports == 0 ? 0 : pinned("waferscale", spec.ws_ports, ws_ssc);
    const std::int64_t conv_ports =
        pinned("conventional", spec.conv_ports, conv_ssc);
    double ws_watts = ws_ports == 0 ? 0.0 : price(ws_ports, ws_ssc);
    if (ws_ports == 0) {
        const auto solved = core::RadixSolver(spec.ws).solveMaxPorts();
        if (solved.best.ports == 0)
            fatal(tool, ": the radix solver found no feasible "
                        "waferscale design; pin its port count");
        ws_ports = topology::alignClosPorts(solved.best.ports, ws_ssc.radix);
        ws_watts = solved.best.power.total();
        std::cout << tool << ": solver sized the waferscale switch at "
                  << ws_ports << " ports, "
                  << Table::num(ws_watts / 1000.0, 1) << " kW\n";
    }
    return {profile("ws-", ws_ports, ws_ssc, ws_watts),
            profile("conv-", conv_ports, conv_ssc,
                    price(conv_ports, conv_ssc))};
}

} // namespace wss::flow

#include "fault/flow_faults.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/seed.hpp"

namespace wss::fault {

void
DcnFaultSchedule::killSwitch(double at_s, int id)
{
    if (at_s < 0.0)
        fatal("DcnFaultSchedule: event time must be >= 0, got ", at_s);
    if (id < 0)
        fatal("DcnFaultSchedule: switch id must be >= 0, got ", id);
    events_.push_back({at_s, id});
}

std::vector<DcnFaultEvent>
DcnFaultSchedule::sorted() const
{
    std::vector<DcnFaultEvent> out = events_;
    std::stable_sort(out.begin(), out.end(),
                     [](const DcnFaultEvent &x, const DcnFaultEvent &y) {
                         return x.at_s < y.at_s;
                     });
    return out;
}

DcnFaultSchedule
DcnFaultSchedule::sampleSwitchFailures(const FaultModel &model,
                                       int switches, double duration_s,
                                       std::uint64_t seed)
{
    if (switches < 0)
        fatal("sampleSwitchFailures: switch count must be >= 0");
    if (duration_s <= 0.0)
        fatal("sampleSwitchFailures: mission window must be positive");

    DcnFaultSchedule schedule;
    const double p = model.node_field_failure;
    if (p <= 0.0)
        return schedule;
    for (int id = 0; id < switches; ++id) {
        // Stateless per-switch substream: evaluation order never
        // changes the outcome.
        Rng rng(deriveSeed(seed,
                           static_cast<std::uint64_t>(id) + 1));
        if (rng.nextBool(p))
            schedule.killSwitch(rng.nextDouble() * duration_s, id);
    }
    return schedule;
}

} // namespace wss::fault

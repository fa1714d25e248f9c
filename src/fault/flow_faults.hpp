/**
 * @file
 * Fault timelines for the flow-level DCN simulator.
 *
 * At datacenter scale the unit of failure is a whole switch, and
 * time is wall-clock seconds rather than fabric cycles.
 * flow::FlowSimulator consumes the sorted event list, kills each
 * switch in its DcnTopology, rebuilds the ECMP tables, and reroutes
 * the flows that were crossing the dead switch (paper Section
 * III.C's resilience story, lifted from one wafer to the network).
 *
 * sampleSwitchFailures() bridges from the defect layer: the same
 * FaultModel field-failure probability that drives DefectSampler
 * decides which switches die during a mission window, with the
 * standard (seed, index) determinism contract.
 */

#ifndef WSS_FAULT_FLOW_FAULTS_HPP
#define WSS_FAULT_FLOW_FAULTS_HPP

#include <cstdint>
#include <vector>

#include "fault/defect.hpp"

namespace wss::fault {

/// One switch failure at a wall-clock instant.
struct DcnFaultEvent
{
    double at_s = 0.0;
    /// Switch id.
    int id = 0;
};

/**
 * A deterministic, time-ordered schedule of DCN switch failures.
 */
class DcnFaultSchedule
{
  public:
    DcnFaultSchedule() = default;

    void killSwitch(double at_s, int id);

    /// Events sorted by time, insertion order breaking ties — the
    /// order the flow simulator applies them in.
    std::vector<DcnFaultEvent> sorted() const;

    /**
     * Sample which of @p switches switches die during a mission
     * window of @p duration_s seconds: each fails independently with
     * @p model.node_field_failure probability, at a uniform instant.
     * Per-switch draws use Rng(deriveSeed(seed, id + 1)), so the
     * schedule is identical regardless of evaluation order.
     */
    static DcnFaultSchedule sampleSwitchFailures(const FaultModel &model,
                                                 int switches,
                                                 double duration_s,
                                                 std::uint64_t seed);

  private:
    std::vector<DcnFaultEvent> events_;
};

} // namespace wss::fault

#endif // WSS_FAULT_FLOW_FAULTS_HPP

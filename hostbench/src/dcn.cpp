/**
 * @file
 * dcn-websearch: 256 hosts of websearch flows at 0.7 load on the
 * single-switch ws-8192 network and the conv-64 leaf-spine. One cell
 * per (design, flow list): flow::simulateFlows over a flow list
 * generated from the seed.
 */

#include <string>
#include <vector>

#include "flow/flow_sim.hpp"
#include "harness.hpp"
#include "util/seed.hpp"

namespace hostbench {

namespace {

using namespace wss;

constexpr std::int64_t kHosts = 256;
constexpr double kLoad = 0.7;
/// Flows per list. The waterfill's cost per flow grows with the
/// number of flows in flight, which grows with the list: 10k-flow
/// lists cost about 70% per flow of BENCH_dcn.json's 100k-flow cells,
/// 1k-flow lists under 20% (README, "Flow list length").
constexpr std::int64_t kFlows = 10000;
/// Independent flow lists per design: two average out part of the
/// per-seed variation of the work.
constexpr std::size_t kFlowSets = 2;

class DcnWebsearch : public Workload
{
  public:
    explicit DcnWebsearch(const Options &options) : options_(options) {}

    void
    setup(Trace *trace) override
    {
        designs_.clear();
        for (const char *name : {"ws-8192", "conv-64"}) {
            flow::SwitchProfile profile;
            {
                Span span(trace, "SwitchProfile::loadJsonFile", name);
                profile = flow::SwitchProfile::loadJsonFile(
                    options_.profiles + "/" + name + ".json");
            }
            Span span(trace, "DcnTopology::buildFatTree", name);
            designs_.push_back(
                {profile,
                 flow::DcnTopology::buildFatTree(
                     kHosts, static_cast<int>(profile.radix),
                     profile.line_rate_gbps)});
        }
        flow::DcnWorkloadSpec spec = flow::workloadByName("websearch");
        spec.load = kLoad;
        spec.flow_count = kFlows;
        flow_sets_.clear();
        for (std::size_t k = 0; k < kFlowSets; ++k) {
            Span span(trace, "generateFlows");
            flow_sets_.push_back(flow::generateFlows(
                spec, kHosts, designs_[0].profile.line_rate_gbps,
                deriveSeed(options_.seed, k)));
        }
        results_.assign(cellCount(), {});
    }

    LayerValues
    setupLayers(const Trace &trace) const override
    {
        return {{"flow.gen_s", trace.spanSeconds("generateFlows")},
                {"flow.topo_s",
                 trace.spanSeconds("DcnTopology::buildFatTree")},
                {"util.profile_load_s",
                 trace.spanSeconds("SwitchProfile::loadJsonFile")}};
    }

    std::size_t
    cellCount() const override
    {
        return designs_.size() * kFlowSets;
    }

    std::string
    cellName(std::size_t cell) const override
    {
        return designs_[cell / kFlowSets].profile.name + "/flows" +
               std::to_string(cell % kFlowSets);
    }

    void
    runCell(std::size_t cell, Trace *trace) override
    {
        const Design &d = designs_[cell / kFlowSets];
        flow::DcnTopology topo = d.topo; // simulateFlows mutates it
        flow::FlowSimConfig cfg;
        if (trace) {
            cfg.metrics = &trace->metrics;
            cfg.profiler = &trace->profiler;
        }
        Span span(trace, "simulateFlows", d.profile.name);
        results_[cell] = flow::simulateFlows(
            topo, d.profile, flow_sets_[cell % kFlowSets], {}, cfg);
    }

    CellCheck
    checkCell(std::size_t cell) const override
    {
        const flow::FlowSimResult &r = results_[cell];
        const auto flows = kFlows;
        CellCheck check;
        check.work = static_cast<double>(flows);
        check.failed = r.started == flows && r.completed == flows &&
                               r.failed == 0
                           ? 0
                           : 1;
        Digest d;
        for (std::int64_t v : {r.started, r.completed, r.failed})
            d.add(v);
        for (double v :
             {r.duration_s, r.completed_bytes, r.fct_avg_s, r.fct_max_s,
              r.fct_p50_s, r.fct_p99_s, r.fct_p999_s, r.slowdown_avg,
              r.slowdown_p50, r.slowdown_p99, r.slowdown_p999,
              r.avg_hops})
            d.add(v);
        check.digest = d.value();
        return check;
    }

    LayerValues
    passLayers(const Trace &trace) const override
    {
        const auto flows = static_cast<double>(kFlows * kFlowSets);
        LayerValues out;
        for (std::size_t i = 0; i < designs_.size(); ++i) {
            const std::string &name = designs_[i].profile.name;
            const double sim_s = trace.spanSeconds("simulateFlows", name);
            out["flow.sim_s." + name] = sim_s;
            out["flow.us_per_flow." + name] = sim_s / flows * 1e6;
            // Little's law: the mean number of flows in flight over a
            // run is the summed completion time over the run's span.
            double active = 0.0;
            for (std::size_t k = 0; k < kFlowSets; ++k) {
                const flow::FlowSimResult &r = results_[i * kFlowSets + k];
                active += r.fct_avg_s * static_cast<double>(r.completed) /
                          r.duration_s;
            }
            out["flow.active_mean." + name] =
                active / static_cast<double>(kFlowSets);
        }
        const auto &phases = trace.profiler.phases();
        const auto waterfill = phases.find("flow-sim/waterfill");
        out["flow.waterfill_s"] =
            trace.profiler.totalSeconds("flow-sim/waterfill");
        out["flow.waterfill_calls"] =
            waterfill == phases.end()
                ? 0.0
                : static_cast<double>(waterfill->second.calls);
        out["flow.event_loop_s"] = trace.profiler.selfSeconds("flow-sim");
        out["flow.completed"] = static_cast<double>(
            trace.metrics.counterValue("flow.completed"));
        out["flow.failed"] = static_cast<double>(
            trace.metrics.counterValue("flow.failed"));
        return out;
    }

    std::string workUnit() const override { return "flows"; }

  private:
    struct Design
    {
        flow::SwitchProfile profile;
        flow::DcnTopology topo;
    };

    Options options_;
    std::vector<Design> designs_;
    std::vector<std::vector<flow::FlowArrival>> flow_sets_;
    /// Last result per cell.
    std::vector<flow::FlowSimResult> results_;
};

} // namespace

std::unique_ptr<Workload>
makeDcnWebsearch(const Options &options)
{
    return std::make_unique<DcnWebsearch>(options);
}

} // namespace hostbench

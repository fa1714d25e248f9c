/**
 * @file
 * fabric-sweep: the cycle-accurate uniform-traffic load sweep that
 * flow::calibrateSwitchProfile runs, on the 512-port internal fabric
 * of ws-8192 and on the conv-64 fabric, driven through
 * exec::SweepRunner. One cell per design; its five load points are
 * checked bit for bit against the shipped profiles, so the sweep is
 * pinned to the calibration's own seed and settings (`wss dcn`
 * defaults) whatever --seed says.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exec/sweep_runner.hpp"
#include "flow/switch_profile.hpp"
#include "harness.hpp"
#include "obs/sim_observation.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "topology/clos.hpp"

namespace hostbench {

namespace {

using namespace wss;

/// The `wss dcn` calibration: fabric flags, phases and load points
/// the shipped profiles were made with.
sim::NetworkSpec
calibrationNetwork()
{
    sim::NetworkSpec spec;
    spec.vcs = 16;
    spec.buffer_per_port = 64;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 2;
    spec.pipeline_delay = 9;
    spec.terminal_link_latency = 8;
    spec.internal_link_latency = 1;
    return spec;
}

exec::SweepJob
calibrationJob(std::int64_t ports, const power::SscConfig &ssc,
               bool observe)
{
    const auto topo = std::make_shared<const topology::LogicalTopology>(
        topology::buildFoldedClos({ports, ssc, /*leaf_split=*/1}));
    exec::SweepJob job;
    job.make_network = [topo, net = calibrationNetwork()](
                           std::uint64_t seed) {
        return std::make_unique<sim::Network>(*topo, net, seed);
    };
    const auto terminals = static_cast<int>(ports);
    job.make_workload = [terminals](double rate, std::uint64_t) {
        return std::make_unique<sim::SyntheticWorkload>(
            sim::uniformTraffic(terminals), rate, /*packet_size=*/4);
    };
    job.rates = sim::geometricRates(0.05, 0.95, 5);
    job.cfg.warmup = 1000;
    job.cfg.measure = 4000;
    job.cfg.drain_limit = 20000;
    job.cfg.seed = 1;
    job.cfg.observe = observe;
    return job;
}

class FabricSweep : public Workload
{
  public:
    explicit FabricSweep(const Options &options) : options_(options) {}

    void
    setup(Trace *trace) override
    {
        const power::SscConfig ws_ssc = power::tomahawk5(1);
        const struct
        {
            const char *name;
            std::int64_t ports;
            power::SscConfig ssc;
        } fabrics[] = {
            {"ws-8192", 512, ws_ssc},
            {"conv-64", 64, power::scaledSsc(32, ws_ssc.line_rate)},
        };
        designs_.clear();
        for (const auto &f : fabrics) {
            flow::SwitchProfile shipped;
            {
                Span span(trace, "SwitchProfile::loadJsonFile", f.name);
                shipped = flow::SwitchProfile::loadJsonFile(
                    options_.profiles + "/" + f.name + ".json");
            }
            Span span(trace, "buildFoldedClos", f.name);
            designs_.push_back(
                {f.name, shipped,
                 exec::SweepRunner(calibrationJob(f.ports, f.ssc, false)),
                 exec::SweepRunner(calibrationJob(f.ports, f.ssc, true)),
                 {}});
        }
    }

    LayerValues
    setupLayers(const Trace &) const override
    {
        return {};
    }

    std::size_t cellCount() const override { return designs_.size(); }

    std::string
    cellName(std::size_t cell) const override
    {
        return designs_[cell].name;
    }

    void
    runCell(std::size_t cell, Trace *trace) override
    {
        Design &d = designs_[cell];
        // Traced passes also read the fabric's own counters
        // (SimConfig::observe, bit-identical results).
        const exec::SweepRunner &runner = trace ? d.observed : d.plain;
        Span span(trace, "SweepRunner::run", d.name);
        d.output = runner.run(nullptr, nullptr,
                              trace ? &trace->profiler : nullptr);
    }

    CellCheck
    checkCell(std::size_t cell) const override;

    LayerValues passLayers(const Trace &trace) const override;

    std::string workUnit() const override { return "flits"; }

  private:
    struct Design
    {
        std::string name;
        flow::SwitchProfile shipped;
        exec::SweepRunner plain;
        exec::SweepRunner observed;
        exec::SweepRunOutput output;
    };

    Options options_;
    std::vector<Design> designs_;
};

CellCheck
FabricSweep::checkCell(std::size_t cell) const
{
    const Design &d = designs_[cell];
    const sim::SweepResult &sweep = d.output.combined;
    const auto &shipped = d.shipped.points;
    CellCheck check;
    check.operations = static_cast<std::int64_t>(sweep.points.size());

    // Re-derive what calibrateSwitchProfile keeps: the stable points
    // in order, the zero-load latency and the saturation estimate.
    std::size_t next = 0;
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        const sim::LoadPoint &p = sweep.points[i];
        bool ok = true;
        if (p.stable) {
            ok = next < shipped.size() &&
                 shipped[next].offered == p.offered &&
                 shipped[next].avg_latency == p.avg_latency &&
                 shipped[next].p99_latency == p.p99_latency;
            ++next;
        }
        if (!ok) {
            std::cout << "FAIL " << d.name << " point " << i
                      << ": differs from the shipped profile\n";
            ++check.failed;
        }
    }
    const double saturation =
        sweep.saturation_throughput > 0.0 ? sweep.saturation_throughput
                                          : 1.0;
    if (next != shipped.size() ||
        sweep.zero_load_latency != d.shipped.zero_load_latency ||
        saturation != d.shipped.saturation) {
        std::cout << "FAIL " << d.name
                  << ": zero-load latency, saturation or stable point "
                     "count differs from the shipped profile\n";
        check.failed = check.operations;
    }

    Digest digest;
    digest.add(sweep.zero_load_latency);
    digest.add(sweep.saturation_throughput);
    for (const exec::PointOutcome &o : d.output.outcomes) {
        const sim::SimResult &r = o.result;
        for (double v : {r.avg_packet_latency, r.p99_packet_latency,
                         r.avg_network_latency, r.avg_hops, r.offered,
                         r.accepted})
            digest.add(v);
        for (std::int64_t v : {r.packets_measured, r.packets_finished,
                               r.flits_delivered, r.flits_injected,
                               static_cast<std::int64_t>(r.end_cycle)})
            digest.add(v);
        digest.add(r.stable);
        check.work += static_cast<double>(r.flits_delivered);
    }
    check.digest = digest.value();
    return check;
}

LayerValues
FabricSweep::passLayers(const Trace &trace) const
{
    LayerValues out;
    double low_flits = 0.0, low_s = 0.0, sat_flits = 0.0, sat_s = 0.0;
    double flits = 0.0, cycles = 0.0;
    std::uint64_t vc = 0, sa = 0, credit = 0;
    for (const Design &d : designs_) {
        out["sim.run_s." + d.name] =
            trace.spanSeconds("SweepRunner::run", d.name);
        const auto &outcomes = d.output.outcomes;
        low_flits +=
            static_cast<double>(outcomes.front().result.flits_delivered);
        low_s += outcomes.front().seconds;
        sat_flits +=
            static_cast<double>(outcomes.back().result.flits_delivered);
        sat_s += outcomes.back().seconds;
        for (const exec::PointOutcome &o : outcomes) {
            flits += static_cast<double>(o.result.flits_delivered);
            cycles += static_cast<double>(o.result.end_cycle);
            if (const auto &obs = o.result.observation) {
                vc += obs->totalCounter("vc_alloc_failures");
                sa += obs->totalCounter("sa_conflicts");
                credit += obs->totalCounter("credit_stalls");
            }
        }
    }
    out["sim.mflits_per_s.low"] = low_flits / low_s / 1e6;
    out["sim.mflits_per_s.sat"] = sat_flits / sat_s / 1e6;
    out["sim.flits_delivered"] = flits;
    out["sim.cycles"] = cycles;
    out["sim.vc_alloc_failures"] = static_cast<double>(vc);
    out["sim.sa_conflicts"] = static_cast<double>(sa);
    out["sim.credit_stalls"] = static_cast<double>(credit);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeFabricSweep(const Options &options)
{
    return std::make_unique<FabricSweep>(options);
}

} // namespace hostbench

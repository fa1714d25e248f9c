/**
 * @file
 * coll-512: ring, halving-doubling and tree allreduce plus pairwise
 * all-to-all over 512 ranks, at 64 KiB and 16 MiB, on ws-8192 and
 * conv-64. One cell per (design, collective, payload):
 * coll::executeOnDcn. The seed picks the job's first host.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "coll/execute.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace hostbench {

namespace {

using namespace wss;

constexpr int kRanks = 512;
constexpr double kPayloads[] = {64.0 * 1024.0, 16.0 * 1024.0 * 1024.0};
/// ws-8192 is one switch: the flow fidelity must equal alpha-beta.
constexpr double kAlphaBetaTolerance = 1e-9;

struct CollSpec
{
    const char *tag;
    coll::Algorithm algorithm;
};

constexpr CollSpec kCollectives[] = {
    {"ring", coll::Algorithm::Ring},
    {"hd", coll::Algorithm::HalvingDoubling},
    {"tree", coll::Algorithm::Tree},
    {"alltoall", coll::Algorithm::Pairwise},
};

/// Place the job contiguously from a seeded first host: rank r runs
/// on host (r + first) mod ranks. Ascending-src order within each
/// step is restored afterwards.
void
placeRanks(coll::Schedule &schedule, std::uint64_t seed)
{
    const auto ranks = static_cast<std::uint64_t>(schedule.ranks);
    const auto first = static_cast<int>(Rng(seed).nextBelow(ranks));
    for (coll::CollMessage &m : schedule.messages) {
        m.src = (m.src + first) % schedule.ranks;
        m.dst = (m.dst + first) % schedule.ranks;
    }
    std::stable_sort(schedule.messages.begin(), schedule.messages.end(),
                     [](const coll::CollMessage &a,
                        const coll::CollMessage &b) {
                         return a.step != b.step ? a.step < b.step
                                                 : a.src < b.src;
                     });
}

class Coll512 : public Workload
{
  public:
    explicit Coll512(const Options &options) : options_(options) {}

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
                {profile, flow::DcnTopology::buildFatTree(
                              kRanks, static_cast<int>(profile.radix),
                              profile.line_rate_gbps)});
        }

        schedules_.clear();
        for (const CollSpec &spec : kCollectives) {
            Span span(trace, "schedule", spec.tag);
            schedules_.push_back(
                spec.algorithm == coll::Algorithm::Pairwise
                    ? coll::allToAllSchedule(kRanks)
                    : coll::allReduceSchedule(spec.algorithm, kRanks));
        }
        for (coll::Schedule &s : schedules_)
            placeRanks(s, options_.seed);

        cells_.clear();
        for (std::size_t d = 0; d < designs_.size(); ++d)
            for (std::size_t s = 0; s < schedules_.size(); ++s)
                for (double payload : kPayloads) {
                    Cell cell{d, s, payload, 0.0, {}};
                    if (d == 0) {
                        const flow::SwitchProfile &p = designs_[d].profile;
                        cell.model_s =
                            coll::executeAlphaBeta(
                                schedules_[s], payload,
                                coll::alphaBetaOf(p, p.line_rate_gbps, 1))
                                .seconds;
                    }
                    cells_.push_back(cell);
                }
    }

    LayerValues
    setupLayers(const Trace &trace) const override
    {
        return {{"coll.schedule_s", trace.spanSeconds("schedule")}};
    }

    std::size_t cellCount() const override { return cells_.size(); }

    std::string
    cellName(std::size_t cell) const override
    {
        const Cell &c = cells_[cell];
        return designs_[c.design].profile.name + "/" +
               kCollectives[c.schedule].tag + "/" +
               std::to_string(static_cast<long long>(c.payload));
    }

    void
    runCell(std::size_t cell, Trace *trace) override
    {
        Cell &c = cells_[cell];
        const Design &d = designs_[c.design];
        flow::DcnTopology topo = d.topo; // executeOnDcn mutates it
        coll::CollExecConfig cfg;
        if (trace) {
            cfg.metrics = &trace->metrics;
            cfg.profiler = &trace->profiler;
        }
        Span span(trace, "executeOnDcn", kCollectives[c.schedule].tag);
        c.result = coll::executeOnDcn(schedules_[c.schedule], c.payload,
                                      topo, d.profile, cfg);
    }

    CellCheck
    checkCell(std::size_t cell) const override
    {
        const Cell &c = cells_[cell];
        const coll::CollExecResult &r = c.result;
        const coll::Schedule &s = schedules_[c.schedule];
        CellCheck check;
        check.work = static_cast<double>(r.messages);
        bool ok = r.failed_messages == 0 && r.steps == s.steps &&
                  r.messages ==
                      static_cast<std::int64_t>(s.messages.size()) &&
                  r.seconds > 0.0;
        if (c.design == 0)
            ok = ok && std::fabs(r.seconds / c.model_s - 1.0) <=
                           kAlphaBetaTolerance;
        check.failed = ok ? 0 : 1;
        Digest d;
        d.add(r.steps);
        d.add(r.messages);
        d.add(r.failed_messages);
        for (double v :
             {r.seconds, r.algbw_gbps, r.busbw_gbps, r.bytes_on_wire})
            d.add(v);
        check.digest = d.value();
        return check;
    }

    LayerValues
    passLayers(const Trace &trace) const override
    {
        LayerValues out;
        double exec_s = 0.0;
        for (const CollSpec &spec : kCollectives) {
            const double s = trace.spanSeconds("executeOnDcn", spec.tag);
            out[std::string("coll.exec_s.") + spec.tag] = s;
            exec_s += s;
        }
        const auto steps =
            static_cast<double>(trace.metrics.counterValue("coll.steps"));
        out["coll.steps"] = steps;
        out["coll.messages"] = static_cast<double>(
            trace.metrics.counterValue("coll.messages"));
        out["coll.us_per_step"] = exec_s / steps * 1e6;
        out["coll.flow_share"] =
            trace.profiler.totalSeconds("coll-dcn/step/flow-sim") /
            trace.profiler.totalSeconds("coll-dcn");
        return out;
    }

    std::string workUnit() const override { return "messages"; }

  private:
    struct Design
    {
        flow::SwitchProfile profile;
        flow::DcnTopology topo;
    };
    struct Cell
    {
        std::size_t design;
        std::size_t schedule;
        double payload;
        /// Alpha-beta completion time (ws-8192 cells only).
        double model_s;
        coll::CollExecResult result;
    };

    Options options_;
    std::vector<Design> designs_;
    std::vector<coll::Schedule> schedules_;
    std::vector<Cell> cells_;
};

} // namespace

std::unique_ptr<Workload>
makeColl512(const Options &options)
{
    return std::make_unique<Coll512>(options);
}

} // namespace hostbench

#include "obs/sim_observation.hpp"

#include <ostream>

#include "util/artifact.hpp"
#include "util/logging.hpp"

namespace wss::obs {

namespace {

/// Split "r3.credit_stalls" into {"r3", "credit_stalls"}; names
/// without a dot map to scope "-".
std::pair<std::string, std::string>
splitScope(const std::string &name)
{
    const auto dot = name.find('.');
    if (dot == std::string::npos)
        return {"-", name};
    return {name.substr(0, dot), name.substr(dot + 1)};
}

bool
isRouterScope(const std::string &scope)
{
    if (scope.size() < 2 || scope[0] != 'r')
        return false;
    for (std::size_t i = 1; i < scope.size(); ++i)
        if (scope[i] < '0' || scope[i] > '9')
            return false;
    return true;
}

} // namespace

const char *
phaseName(SimPhase phase)
{
    switch (phase) {
    case SimPhase::Warmup: return "warmup";
    case SimPhase::Measure: return "measure";
    case SimPhase::Drain: return "drain";
    }
    panic("phaseName: invalid phase ",
          static_cast<int>(phase));
}

std::uint64_t
SimObservation::totalCounter(const std::string &metric) const
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : registry.counters()) {
        const auto [scope, suffix] = splitScope(name);
        if (isRouterScope(scope) && suffix == metric)
            total += value;
    }
    return total;
}

std::uint64_t
SimObservation::totalCounter(const std::string &metric,
                             SimPhase phase) const
{
    std::uint64_t total = 0;
    const auto &snap =
        phase_counters[static_cast<std::size_t>(phase)];
    for (const auto &[name, value] : snap.counters) {
        const auto [scope, suffix] = splitScope(name);
        if (isRouterScope(scope) && suffix == metric)
            total += value;
    }
    return total;
}

double
SimObservation::linkUtilization(SimPhase phase,
                                std::size_t link) const
{
    const auto p = static_cast<std::size_t>(phase);
    if (link >= link_flits[p].size())
        panic("SimObservation::linkUtilization: link ", link,
              " out of range (", link_flits[p].size(), " links)");
    const std::int64_t cycles = phase_cycles[p];
    const std::uint32_t channels =
        link < link_channel_count.size() ? link_channel_count[link]
                                         : 0;
    if (cycles <= 0 || channels == 0)
        return 0.0;
    return static_cast<double>(link_flits[p][link]) /
           (static_cast<double>(channels) *
            static_cast<double>(cycles));
}

void
SimObservation::dumpCsv(std::ostream &os) const
{
    os << "# wss sim observability\n";
    os << "# routers=" << routers << " links=" << links << "\n";
    os << "record,phase,scope,metric,value\n";

    for (std::size_t l = 0; l < link_channel_count.size(); ++l)
        os << "link,run,l" << l << ",channels,"
           << link_channel_count[l] << "\n";

    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const char *phase = phaseName(static_cast<SimPhase>(p));
        os << "phase," << phase << ",-,cycles," << phase_cycles[p]
           << "\n";
    }

    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const char *phase = phaseName(static_cast<SimPhase>(p));
        for (const auto &[name, value] : phase_counters[p].counters) {
            const auto [scope, metric] = splitScope(name);
            os << "counter," << phase << "," << scope << ","
               << metric << "," << value << "\n";
        }
    }

    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const char *phase = phaseName(static_cast<SimPhase>(p));
        for (std::size_t l = 0; l < link_flits[p].size(); ++l) {
            os << "link," << phase << ",l" << l << ",flits,"
               << link_flits[p][l] << "\n";
            os << "link," << phase << ",l" << l << ",utilization,"
               << util::formatDouble(
                      linkUtilization(static_cast<SimPhase>(p), l))
               << "\n";
        }
    }

    for (const auto &[name, data] : registry.histograms()) {
        const auto [scope, metric] = splitScope(name);
        for (std::size_t b = 0; b < data.edges.size(); ++b)
            os << "hist,run," << scope << "," << metric << ".le_"
               << util::formatDouble(data.edges[b]) << ","
               << data.buckets[b] << "\n";
        os << "hist,run," << scope << "," << metric << ".overflow,"
           << data.buckets.back() << "\n";
        os << "hist,run," << scope << "," << metric << ".count,"
           << data.count << "\n";
        os << "hist,run," << scope << "," << metric << ".sum,"
           << util::formatDouble(data.sum) << "\n";
    }

    for (const TimelineSample &s : timeline) {
        os << "sample,run,c" << s.cycle << ",flits_offered,"
           << s.flits_offered << "\n";
        os << "sample,run,c" << s.cycle << ",flits_accepted,"
           << s.flits_accepted << "\n";
        os << "sample,run,c" << s.cycle << ",flits_in_flight,"
           << s.flits_in_flight << "\n";
    }
}

void
SimObservation::dumpCsvFile(const std::string &path) const
{
    util::writeArtifactFile(
        path, "SimObservation",
        [this](std::ostream &os) { dumpCsv(os); });
}

} // namespace wss::obs

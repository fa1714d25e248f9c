/**
 * @file
 * Max-min fair rate allocation (progressive waterfill) — the solver
 * under flow::simulateFlows.
 *
 * Textbook max-min: find the bottleneck resource (smallest fair share
 * remaining capacity / unfrozen users), freeze its unfrozen flows at
 * that share, deduct it from every other resource they cross, repeat
 * until every flow is frozen. The bottleneck comes off a lazy binary
 * min-heap keyed on (fair share, position of first use), which picks
 * exactly the resource a linear scan in first-use order would pick —
 * the first minimum — so every rate, and every event order
 * downstream, is bit-identical to the scan. tests/test_flow.cpp keeps
 * the scan as the oracle.
 */

#ifndef WSS_FLOW_MAX_MIN_HPP
#define WSS_FLOW_MAX_MIN_HPP

#include <span>
#include <vector>

namespace wss::flow {

/// Buffers maxMinRates() reuses across calls, so a simulator that
/// re-solves at every event allocates only while the flow set grows.
/// Holds no state between calls; one scratch per thread.
struct MaxMinScratch
{
    struct Entry
    {
        double share = 0.0;
        int pos = 0;
    };
    std::vector<std::vector<int>> users;
    std::vector<int> touched;
    std::vector<double> remcap;
    std::vector<int> cnt;
    std::vector<double> key;
    std::vector<int> pos;
    std::vector<char> frozen;
    std::vector<Entry> heap;
};

/**
 * Max-min fair rates: flow f crosses the resources @p flow_res[f]
 * (indices into @p cap, capacities in bytes/s) and gets
 * @p rates[f] (@p rates holds one slot per flow). Ties between equal fair shares go to the resource
 * some earlier flow (in @p flow_res order) crossed first. A negative
 * fair share (capacity rounded below zero) is clamped to a rate of 0.
 * panic() when flows remain but no resource carries them (a flow
 * with no resources, or only infinite ones).
 */
void maxMinRates(std::span<const double> cap,
                 std::span<const std::span<const int>> flow_res,
                 std::span<double> rates, MaxMinScratch &scratch);

} // namespace wss::flow

#endif // WSS_FLOW_MAX_MIN_HPP

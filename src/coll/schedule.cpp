#include "coll/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace wss::coll {

namespace {

bool
isPowerOfTwo(int n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

int
log2Exact(int n)
{
    int bits = 0;
    while ((1 << bits) < n) ++bits;
    return bits;
}

void
requireRanks(Algorithm algorithm, int ranks, bool power_of_two)
{
    if (ranks < 2)
        fatal("coll: ", toString(algorithm),
                    " needs at least 2 ranks, got ", ranks);
    if (power_of_two && !isPowerOfTwo(ranks))
        fatal("coll: ", toString(algorithm),
                    " needs a power-of-two rank count, got ", ranks);
}

/// Ring reduce-scatter phase: step s has rank r sending chunk
/// (r - s) mod N to neighbour (r + 1) mod N. N-1 steps, 1/N each.
void
appendRingPhase(Schedule &s, int first_step)
{
    const int n = s.ranks;
    const double chunk = 1.0 / n;
    for (int step = 0; step < n - 1; ++step)
        for (int r = 0; r < n; ++r)
            s.messages.push_back({first_step + step, r, (r + 1) % n, chunk});
}

Schedule
ringAllReduce(int ranks)
{
    Schedule s;
    s.collective = Collective::AllReduce;
    s.algorithm = Algorithm::Ring;
    s.ranks = ranks;
    s.steps = 2 * (ranks - 1);
    s.messages.reserve(static_cast<size_t>(s.steps) * ranks);
    appendRingPhase(s, 0);             // reduce-scatter
    appendRingPhase(s, ranks - 1);     // all-gather
    return s;
}

/**
 * Full-vector hypercube exchange, emitted stage-major with ranks
 * ascending — the exact pattern (and order) the mini-app trace
 * generators have always produced, so trace lowering stays
 * bit-identical. Partners beyond the rank count are skipped, which
 * for non-power-of-two N leaves a pruned hypercube.
 */
Schedule
recursiveDoublingAllReduce(int ranks)
{
    Schedule s;
    s.collective = Collective::AllReduce;
    s.algorithm = Algorithm::RecursiveDoubling;
    s.ranks = ranks;
    int step = 0;
    for (int bit = 1; bit < ranks; bit <<= 1) {
        for (int r = 0; r < ranks; ++r) {
            const int partner = r ^ bit;
            if (partner < ranks)
                s.messages.push_back({step, r, partner, 1.0});
        }
        ++step;
    }
    s.steps = step;
    return s;
}

/**
 * Rabenseifner: lg N halving steps exchanging shrinking halves
 * (reduce-scatter), then lg N doubling steps growing them back
 * (all-gather). 2 lg N steps, bandwidth term 2 S (N-1)/N.
 */
Schedule
halvingDoublingAllReduce(int ranks)
{
    Schedule s;
    s.collective = Collective::AllReduce;
    s.algorithm = Algorithm::HalvingDoubling;
    s.ranks = ranks;
    const int stages = log2Exact(ranks);
    int step = 0;
    for (int k = 0; k < stages; ++k) {     // halving: distance N/2, N/4, ...
        const int dist = ranks >> (k + 1);
        const double fraction = 1.0 / (1 << (k + 1));
        for (int r = 0; r < ranks; ++r)
            s.messages.push_back({step, r, r ^ dist, fraction});
        ++step;
    }
    for (int k = 0; k < stages; ++k) {     // doubling: distance 1, 2, 4, ...
        const int dist = 1 << k;
        const double fraction = static_cast<double>(dist) / ranks;
        for (int r = 0; r < ranks; ++r)
            s.messages.push_back({step, r, r ^ dist, fraction});
        ++step;
    }
    s.steps = step;
    return s;
}

/**
 * Binomial tree: lg N reduce steps toward rank 0 (halving the live
 * set each step), then the mirrored broadcast. Full vector on every
 * hop — latency-optimal, bandwidth-poor.
 */
Schedule
treeAllReduce(int ranks)
{
    Schedule s;
    s.collective = Collective::AllReduce;
    s.algorithm = Algorithm::Tree;
    s.ranks = ranks;
    const int stages = log2Exact(ranks);
    int step = 0;
    for (int k = 0; k < stages; ++k) {     // reduce: odd multiples of 2^k send
        const int dist = 1 << k;
        for (int r = dist; r < ranks; r += 2 * dist)
            s.messages.push_back({step, r, r - dist, 1.0});
        ++step;
    }
    for (int k = stages - 1; k >= 0; --k) {    // broadcast: mirror image
        const int dist = 1 << k;
        for (int r = dist; r < ranks; r += 2 * dist)
            s.messages.push_back({step, r - dist, r, 1.0});
        ++step;
    }
    s.steps = step;
    return s;
}

} // namespace

std::string_view
toString(Collective collective)
{
    switch (collective) {
    case Collective::AllReduce: return "allreduce";
    case Collective::ReduceScatter: return "reduce_scatter";
    case Collective::AllGather: return "all_gather";
    case Collective::AllToAll: return "all_to_all";
    case Collective::PointToPoint: return "point_to_point";
    }
    return "?";
}

std::string_view
toString(Algorithm algorithm)
{
    switch (algorithm) {
    case Algorithm::Ring: return "ring";
    case Algorithm::RecursiveDoubling: return "recursive_doubling";
    case Algorithm::HalvingDoubling: return "halving_doubling";
    case Algorithm::Tree: return "tree";
    case Algorithm::Pairwise: return "pairwise";
    case Algorithm::Direct: return "direct";
    }
    return "?";
}

std::string
Schedule::name() const
{
    std::string n{toString(collective)};
    n += '/';
    n += toString(algorithm);
    return n;
}

std::string
Schedule::validate() const
{
    if (ranks < 2) return "ranks must be >= 2";
    if (steps < 1) return "steps must be >= 1";
    if (messages.empty()) return "schedule has no messages";
    std::vector<char> populated(static_cast<size_t>(steps), 0);
    int prev_step = 0;
    for (const CollMessage &m : messages) {
        if (m.step < 0 || m.step >= steps) return "message step out of range";
        if (m.step < prev_step) return "messages not step-major";
        prev_step = m.step;
        if (m.src < 0 || m.src >= ranks) return "message src out of range";
        if (m.dst < 0 || m.dst >= ranks) return "message dst out of range";
        if (m.src == m.dst) return "message src == dst";
        if (!(m.fraction > 0.0) || m.fraction > 1.0)
            return "message fraction outside (0, 1]";
        populated[static_cast<size_t>(m.step)] = 1;
    }
    for (int st = 0; st < steps; ++st)
        if (!populated[static_cast<size_t>(st)]) return "empty step";
    return "";
}

double
Schedule::bytesOnWire(double payload_bytes) const
{
    double total = 0.0;
    for (const CollMessage &m : messages) total += m.fraction * payload_bytes;
    return total;
}

Schedule
allReduceSchedule(Algorithm algorithm, int ranks)
{
    switch (algorithm) {
    case Algorithm::Ring:
        requireRanks(algorithm, ranks, false);
        return ringAllReduce(ranks);
    case Algorithm::RecursiveDoubling:
        requireRanks(algorithm, ranks, false);
        return recursiveDoublingAllReduce(ranks);
    case Algorithm::HalvingDoubling:
        requireRanks(algorithm, ranks, true);
        return halvingDoublingAllReduce(ranks);
    case Algorithm::Tree:
        requireRanks(algorithm, ranks, true);
        return treeAllReduce(ranks);
    case Algorithm::Pairwise:
    case Algorithm::Direct:
        break;
    }
    fatal("coll: algorithm '", toString(algorithm),
                "' does not implement allreduce");
}

Schedule
reduceScatterSchedule(int ranks)
{
    requireRanks(Algorithm::Ring, ranks, false);
    Schedule s;
    s.collective = Collective::ReduceScatter;
    s.algorithm = Algorithm::Ring;
    s.ranks = ranks;
    s.steps = ranks - 1;
    s.messages.reserve(static_cast<size_t>(s.steps) * ranks);
    appendRingPhase(s, 0);
    return s;
}

Schedule
allGatherSchedule(int ranks)
{
    requireRanks(Algorithm::Ring, ranks, false);
    Schedule s;
    s.collective = Collective::AllGather;
    s.algorithm = Algorithm::Ring;
    s.ranks = ranks;
    s.steps = ranks - 1;
    s.messages.reserve(static_cast<size_t>(s.steps) * ranks);
    appendRingPhase(s, 0);
    return s;
}

Schedule
allToAllSchedule(int ranks)
{
    requireRanks(Algorithm::Pairwise, ranks, false);
    Schedule s;
    s.collective = Collective::AllToAll;
    s.algorithm = Algorithm::Pairwise;
    s.ranks = ranks;
    s.steps = ranks - 1;
    s.messages.reserve(static_cast<size_t>(s.steps) * ranks);
    const double chunk = 1.0 / ranks;
    for (int shift = 1; shift < ranks; ++shift)
        for (int r = 0; r < ranks; ++r)
            s.messages.push_back({shift - 1, r, (r + shift) % ranks, chunk});
    return s;
}

Schedule
pointToPointSchedule()
{
    Schedule s;
    s.collective = Collective::PointToPoint;
    s.algorithm = Algorithm::Direct;
    s.ranks = 2;
    s.steps = 1;
    s.messages.push_back({0, 0, 1, 1.0});
    return s;
}

double
alphaBetaSeconds(const Schedule &schedule, double payload_bytes,
                 const AlphaBeta &cost)
{
    if (payload_bytes < 0.0)
        fatal("coll: negative payload ", payload_bytes);
    std::vector<double> step_max(static_cast<size_t>(schedule.steps), 0.0);
    for (const CollMessage &m : schedule.messages) {
        double &mx = step_max[static_cast<size_t>(m.step)];
        mx = std::max(mx, m.fraction * payload_bytes);
    }
    double total = 0.0;
    for (double mx : step_max)
        total += cost.alpha_s + cost.beta_s_per_byte * mx;
    return total;
}

double
busBandwidthFactor(Collective collective, int ranks)
{
    if (ranks < 1) fatal("coll: busBandwidthFactor ranks ", ranks);
    const double n = ranks;
    switch (collective) {
    case Collective::AllReduce: return 2.0 * (n - 1.0) / n;
    case Collective::ReduceScatter:
    case Collective::AllGather:
    case Collective::AllToAll: return (n - 1.0) / n;
    case Collective::PointToPoint: return 1.0;
    }
    return 1.0;
}

} // namespace wss::coll

/**
 * @file
 * Collective-communication schedules — the message-level plans that
 * ML frameworks (NCCL/RCCL-style) execute for allreduce,
 * reduce-scatter, all-gather and MoE all-to-all.
 *
 * A Schedule is a deterministic, dependency-ordered message list: it
 * is partitioned into *steps*, and the dependency contract is
 * bulk-synchronous — every message of step s must be delivered
 * before any message of step s+1 starts. That one contract is shared
 * by all three execution fidelities (closed-form alpha-beta,
 * flow-level DCN, cycle-accurate fabric), which is what makes them
 * cross-checkable: for the textbook algorithms the step-barrier sum
 * reproduces the classical cost formulas exactly (ring allreduce:
 * 2(N-1) · (α + S/(N·B)), recursive halving/doubling:
 * 2·lg N · α + 2·S·(1−1/N)/B, binomial tree: 2·lg N · (α + S/B)).
 *
 * Message payloads are stored as *fractions* of the collective's
 * vector size, so one schedule prices any payload and lowers to any
 * representation (bytes for the flow simulator, flits for the
 * cycle-accurate fabric).
 *
 * Builders are pure functions of (algorithm, ranks): same inputs,
 * same message list, bit for bit, on every platform and thread
 * count — the determinism the exec::Campaign CSV contract rides on.
 */

#ifndef WSS_COLL_SCHEDULE_HPP
#define WSS_COLL_SCHEDULE_HPP

#include <string>
#include <string_view>
#include <vector>

namespace wss::coll {

/// Which collective operation a schedule implements.
enum class Collective
{
    AllReduce,
    ReduceScatter,
    AllGather,
    /// Full personalized exchange — MoE expert-parallel dispatch.
    AllToAll,
    /// One rank sends the payload to one other (PP activations).
    PointToPoint,
};

/// Which message pattern implements it.
enum class Algorithm
{
    /// Logical ring; chunks of 1/N circulate N-1 times per phase.
    Ring,
    /// Full-vector pairwise exchange over hypercube dimensions
    /// (bit 1, 2, 4, ...). For non-power-of-two rank counts the
    /// pattern degenerates to the pruned hypercube the mini-app
    /// trace generators emit (partners >= ranks are skipped) — use
    /// it for trace synthesis, not as a complete allreduce there.
    RecursiveDoubling,
    /// Rabenseifner: reduce-scatter by recursive halving then
    /// all-gather by recursive doubling. Power-of-two ranks only.
    HalvingDoubling,
    /// Binomial tree reduce to rank 0 then binomial broadcast.
    /// Power-of-two ranks only.
    Tree,
    /// Linear-shift pairwise exchange (all-to-all).
    Pairwise,
    /// Single direct transfer (point-to-point).
    Direct,
};

std::string_view toString(Collective collective);
std::string_view toString(Algorithm algorithm);

/// One message of a schedule: @p src sends @p fraction of the
/// collective's payload to @p dst during step @p step.
struct CollMessage
{
    int step = 0;
    int src = 0;
    int dst = 0;
    /// Fraction of the full vector carried (0, 1].
    double fraction = 1.0;
};

/**
 * A complete collective schedule over ranks 0..ranks-1. Messages are
 * stored step-major in emission order (ascending src within a step),
 * and that order is part of the contract: trace lowering preserves
 * it so generated traces are reproducible byte for byte.
 */
struct Schedule
{
    Collective collective = Collective::AllReduce;
    Algorithm algorithm = Algorithm::Ring;
    int ranks = 0;
    /// Dependency depth: messages with equal step run concurrently,
    /// step s+1 starts only after every step-s delivery.
    int steps = 0;
    std::vector<CollMessage> messages;

    /// "allreduce/ring" — the label carried into CSV rows.
    std::string name() const;

    /// Structural validity: ranks >= 2, every step populated, src !=
    /// dst, endpoints in range, fractions in (0, 1], step-major
    /// order. Returns an empty string when valid.
    std::string validate() const;

    /// Total bytes crossing the network for @p payload_bytes per
    /// rank (sum of message fractions x payload).
    double bytesOnWire(double payload_bytes) const;
};

/**
 * Allreduce of @p ranks ranks with @p algorithm (Ring,
 * RecursiveDoubling, HalvingDoubling or Tree). fatal() on rank
 * counts an algorithm cannot schedule (HalvingDoubling/Tree need a
 * power of two; everything needs >= 2).
 */
Schedule allReduceSchedule(Algorithm algorithm, int ranks);

/// Ring reduce-scatter: N-1 steps of 1/N-fraction chunks.
Schedule reduceScatterSchedule(int ranks);

/// Ring all-gather: N-1 steps of 1/N-fraction chunks.
Schedule allGatherSchedule(int ranks);

/// Pairwise-shift all-to-all: step s sends each rank's 1/N chunk to
/// (rank + s) mod N, s = 1..N-1.
Schedule allToAllSchedule(int ranks);

/// Single full-payload transfer rank 0 -> rank 1.
Schedule pointToPointSchedule();

// --- closed-form cost -------------------------------------------------

/// The classic two-parameter cost model: a message of b bytes costs
/// alpha_s + b * beta_s_per_byte seconds.
struct AlphaBeta
{
    /// Per-message latency (seconds): switch traversals at zero
    /// load.
    double alpha_s = 0.0;
    /// Inverse bandwidth (seconds per byte) of one rank's link.
    double beta_s_per_byte = 0.0;
};

/**
 * Completion time of @p schedule under the alpha-beta model with the
 * bulk-synchronous step contract: sum over steps of
 * (alpha + beta * largest message of the step). For the textbook
 * algorithms this reproduces their published closed forms.
 */
double alphaBetaSeconds(const Schedule &schedule, double payload_bytes,
                        const AlphaBeta &cost);

/**
 * The standard bus-bandwidth correction factor relating algorithmic
 * bandwidth (payload / time) to link-level bandwidth: 2(N-1)/N for
 * allreduce, (N-1)/N for reduce-scatter / all-gather / all-to-all,
 * 1 for point-to-point. busbw = factor * payload / time.
 */
double busBandwidthFactor(Collective collective, int ranks);

} // namespace wss::coll

#endif // WSS_COLL_SCHEDULE_HPP

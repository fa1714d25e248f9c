/**
 * @file
 * Bit-exact determinism suite for the simulator core.
 *
 * The hot-path work (ring-buffer channels, flit pooling, active-set
 * scheduling, wake wheels, pending-VC lists) is only admissible
 * because it is behaviour-preserving. This suite pins that down:
 * every SimResult field — including the floating-point latency and
 * throughput statistics — must match golden values recorded from the
 * pre-optimization simulator, bit for bit, across the full matrix of
 * {uniform, transpose, tornado} x {mesh, clos} x {adaptive on/off}
 * x {low load, high load}, with observability off AND on.
 *
 * A second invariant rides along: once the fabric reaches steady
 * state, the cycle loop performs no heap allocation at all (every
 * ring, pool, wheel and scratch vector has reached its high-water
 * mark or was reserved up front). A global operator new/delete
 * counting hook asserts a zero allocation delta across the
 * measurement window. The AddressSanitizer preset excludes the
 * ZeroAllocation test (ASan interposes the allocator) and runs the
 * golden matrix under heap checking instead.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "power/ssc.hpp"
#include "sim/simulator.hpp"
#include "topology/clos.hpp"
#include "topology/mesh.hpp"

// --- Global allocation counter -------------------------------------
//
// Replaces the global allocation functions for this test binary only.
// The counter is monotone (frees are not subtracted): the invariant
// under test is "no allocation happens", not "allocation is
// balanced", and a monotone counter cannot be fooled by a
// free-then-alloc pair inside one cycle.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace wss::sim {
namespace {

/// One cell of the golden matrix. The doubles are hexadecimal float
/// literals (exact), recorded with tools equivalent to
/// std::printf("%a", ...) against the pre-optimization core.
struct GoldenRow
{
    const char *pattern;
    const char *topo;
    bool adaptive;
    double load;
    double avg_packet_latency;
    double p99_packet_latency;
    double avg_network_latency;
    double avg_hops;
    double accepted;
    std::int64_t packets_measured;
    std::int64_t packets_finished;
    bool stable;
    std::int64_t end_cycle;
    std::int64_t flits_delivered;
    std::int64_t flits_injected;
};

constexpr GoldenRow kGolden[] = {
    {"uniform", "mesh", false, 0x1.999999999999ap-4,
     0x1.0e301b7d6c3d8p+4, 0x1.9p+4,
     0x1.fa93c225cc74dp+3, 0x1.0af3f920a4f03p+1,
     0x1.9735ee402bb0dp-4,
     1192, 1192, true, 1815, 2860, 2860},
    {"uniform", "mesh", false, 0x1.6666666666666p-1,
     0x0p+0, 0x0p+0,
     0x0p+0, 0x0p+0,
     0x0p+0,
     8418, 0, false, 11800, 316, 476},
    {"uniform", "clos", false, 0x1.999999999999ap-4,
     0x1.35a338b2af3fdp+4, 0x1.8p+4,
     0x1.24bcfe48293cp+4, 0x1.4e63a6a860368p+1,
     0x1.96b2dbd194238p-4,
     1192, 1192, true, 1820, 2860, 2860},
    {"uniform", "clos", false, 0x1.6666666666666p-1,
     0x1.7d10f82769a5dp+7, 0x1.bap+8,
     0x1.c71b4f2125e2bp+4, 0x1.4e08e148ecf74p+1,
     0x1.370a3d70a3d71p-1,
     8418, 8418, true, 2216, 20172, 20172},
    {"transpose", "mesh", false, 0x1.999999999999ap-4,
     0x1.1ec3dda338b2ap+4, 0x1.9p+4,
     0x1.0e112e63a6a87p+4, 0x1.286036fad87bfp+1,
     0x1.317e4b17e4b18p-4,
     894, 894, true, 1819, 2142, 2142},
    {"transpose", "mesh", false, 0x1.6666666666666p-1,
     0x1.1009c09c09c08p+4, 0x1.5p+4,
     0x1.ep+3, 0x1p+1,
     0x1.68b4395810625p-3,
     6315, 2100, false, 11800, 5178, 5274},
    {"transpose", "clos", false, 0x1.999999999999ap-4,
     0x1.537d6c3dda33bp+4, 0x1.8p+4,
     0x1.42cabcfe48291p+4, 0x1.8p+1,
     0x1.31d5acb6f4651p-4,
     894, 894, true, 1821, 2142, 2142},
    {"transpose", "clos", false, 0x1.6666666666666p-1,
     0x1.06078a46c7b18p+6, 0x1.54p+7,
     0x1.bbd3bb68b5f06p+4, 0x1.8p+1,
     0x1.05ddddddddddep-1,
     6315, 6315, true, 1969, 15202, 15202},
    {"tornado", "mesh", false, 0x1.999999999999ap-4,
     0x1.12f80c0975254p+4, 0x1.8p+4,
     0x1.0229b30cae892p+4, 0x1.0fcc69c0ce589p+1,
     0x1.97e4b17e4b17ep-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "mesh", false, 0x1.6666666666666p-1,
     0x1.029d3ca31dbabp+11, 0x1.8f6p+12,
     0x1.95c948a94f772p+4, 0x1.0fcdf5bca7025p+1,
     0x1.18ca11bfd44f3p-2,
     8431, 8431, true, 7945, 20296, 20296},
    {"tornado", "clos", false, 0x1.999999999999ap-4,
     0x1.546808990a88ap+4, 0x1.8p+4,
     0x1.4399af9c43ec7p+4, 0x1.8p+1,
     0x1.9810624dd2f1bp-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "clos", false, 0x1.6666666666666p-1,
     0x1.090c254982f4fp+8, 0x1.29p+9,
     0x1.eb7e29b866bf9p+4, 0x1.8p+1,
     0x1.24f3078263ab6p-1,
     8431, 8431, true, 2383, 20296, 20296},
    {"uniform", "mesh", true, 0x1.999999999999ap-4,
     0x1.0dbb4671655e7p+4, 0x1.8p+4,
     0x1.f9aa180dbeb67p+3, 0x1.0af3f920a4f0ap+1,
     0x1.96de8ca11bfd4p-4,
     1192, 1192, true, 1815, 2860, 2860},
    {"uniform", "mesh", true, 0x1.6666666666666p-1,
     0x0p+0, 0x0p+0,
     0x0p+0, 0x0p+0,
     0x0p+0,
     8418, 0, false, 11800, 227, 419},
    {"uniform", "clos", true, 0x1.999999999999ap-4,
     0x1.35a338b2af402p+4, 0x1.8p+4,
     0x1.24bcfe48293bep+4, 0x1.4e63a6a860367p+1,
     0x1.970a3d70a3d71p-4,
     1192, 1192, true, 1820, 2860, 2860},
    {"uniform", "clos", true, 0x1.6666666666666p-1,
     0x1.cf865b1c86892p+6, 0x1.14p+8,
     0x1.d393400bad87ap+4, 0x1.4e08e148ecf58p+1,
     0x1.4d3490b9af72p-1,
     8418, 8418, true, 2081, 20172, 20172},
    {"transpose", "mesh", true, 0x1.999999999999ap-4,
     0x1.1dda338b2af3cp+4, 0x1.8p+4,
     0x1.0d27844b98eap+4, 0x1.286036fad87cp+1,
     0x1.317e4b17e4b18p-4,
     894, 894, true, 1819, 2142, 2142},
    {"transpose", "mesh", true, 0x1.6666666666666p-1,
     0x0p+0, 0x0p+0,
     0x0p+0, 0x0p+0,
     0x0p+0,
     6315, 0, false, 11800, 480, 640},
    {"transpose", "clos", true, 0x1.999999999999ap-4,
     0x1.52816e884de3p+4, 0x1.8p+4,
     0x1.41cebf48bbd91p+4, 0x1.8p+1,
     0x1.31a9fbe76c8b4p-4,
     894, 894, true, 1819, 2142, 2142},
    {"transpose", "clos", true, 0x1.6666666666666p-1,
     0x1.51684e2875141p+5, 0x1.a8p+6,
     0x1.a6d88e5ef0e1bp+4, 0x1.8p+1,
     0x1.0b7fa89e60f05p-1,
     6315, 6315, true, 1875, 15202, 15202},
    {"tornado", "mesh", true, 0x1.999999999999ap-4,
     0x1.11ebcb8da626dp+4, 0x1.8p+4,
     0x1.011a022642a2ap+4, 0x1.0fcc69c0ce58ap+1,
     0x1.97e4b17e4b17ep-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "mesh", true, 0x1.6666666666666p-1,
     0x1.374f997d9dcd7p+11, 0x1.6cdp+12,
     0x1.89b95f7ec52efp+4, 0x1.0fcdf5bca700bp+1,
     0x1.b194237fa89e6p-3,
     8431, 8431, true, 7370, 20296, 20296},
    {"tornado", "clos", true, 0x1.999999999999ap-4,
     0x1.532831de09e2dp+4, 0x1.8p+4,
     0x1.4259d8e14346dp+4, 0x1.8p+1,
     0x1.9810624dd2f1bp-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "clos", true, 0x1.6666666666666p-1,
     0x1.351ef0e8b5f18p+7, 0x1.51p+8,
     0x1.e26d5f217ddbfp+4, 0x1.8p+1,
     0x1.4322d0e560419p-1,
     8431, 8431, true, 2128, 20296, 20296},
};

/// Rebuild the exact fabric + workload a golden row was recorded
/// with and run it.
SimResult
runGoldenConfig(const GoldenRow &row, bool observe)
{
    topology::LogicalTopology topo =
        row.topo[0] == 'm'
            ? topology::buildMesh(2, 2, power::scaledSsc(8, 200.0))
            : topology::buildFoldedClos(
                  {16, power::scaledSsc(8, 200.0), 1});
    NetworkSpec spec;
    spec.vcs = 4;
    spec.buffer_per_port = 8;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 1;
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 3;
    spec.internal_link_latency = 2;
    spec.adaptive_routing = row.adaptive;

    Network net(topo, spec, 7);
    SyntheticWorkload workload(makeTraffic(row.pattern, 16), row.load,
                               2);
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1500;
    cfg.drain_limit = 10000;
    cfg.seed = 42;
    cfg.observe = observe;
    Simulator simulator(net, workload, cfg);
    return simulator.run();
}

void
expectMatchesGolden(const SimResult &r, const GoldenRow &row)
{
    SCOPED_TRACE(std::string(row.pattern) + "/" + row.topo +
                 (row.adaptive ? "/adaptive" : "/oblivious") +
                 "/load=" + std::to_string(row.load));
    // EXPECT_EQ on doubles is deliberate: the contract is bit-exact
    // reproduction, not closeness.
    EXPECT_EQ(r.avg_packet_latency, row.avg_packet_latency);
    EXPECT_EQ(r.p99_packet_latency, row.p99_packet_latency);
    EXPECT_EQ(r.avg_network_latency, row.avg_network_latency);
    EXPECT_EQ(r.avg_hops, row.avg_hops);
    EXPECT_EQ(r.accepted, row.accepted);
    EXPECT_EQ(r.packets_measured, row.packets_measured);
    EXPECT_EQ(r.packets_finished, row.packets_finished);
    EXPECT_EQ(r.stable, row.stable);
    EXPECT_EQ(r.end_cycle, row.end_cycle);
    EXPECT_EQ(r.flits_delivered, row.flits_delivered);
    EXPECT_EQ(r.flits_injected, row.flits_injected);
}

TEST(SimDeterminism, MatchesGoldenMatrix)
{
    for (const GoldenRow &row : kGolden)
        expectMatchesGolden(runGoldenConfig(row, false), row);
}

TEST(SimDeterminism, ObservabilityNeverPerturbsResults)
{
    // The full matrix again with instruments attached: every counter
    // bump and histogram record must leave the simulated behaviour
    // untouched.
    for (const GoldenRow &row : kGolden) {
        const SimResult r = runGoldenConfig(row, true);
        expectMatchesGolden(r, row);
        ASSERT_NE(r.observation, nullptr);
    }
}

/// Forwards to @p inner and samples allocCount() when generation
/// reaches cycles @p first and @p last.
class AllocSamplingWorkload : public Workload
{
  public:
    AllocSamplingWorkload(Workload &inner, Cycle first, Cycle last)
        : inner_(inner), first_(first), last_(last)
    {}

    void
    generate(Cycle now, Rng &rng, const EmitPacket &emit) override
    {
        if (now == first_)
            at_first = allocCount();
        if (now == last_)
            at_last = allocCount();
        inner_.generate(now, rng, emit);
    }
    bool exhausted(Cycle now) const override { return inner_.exhausted(now); }
    void packetDelivered(Cycle now) override { inner_.packetDelivered(now); }
    double offeredLoad() const override { return inner_.offeredLoad(); }
    std::string name() const override { return inner_.name(); }

    std::uint64_t at_first = 0;
    std::uint64_t at_last = 0;

  private:
    Workload &inner_;
    Cycle first_;
    Cycle last_;
};

TEST(SimDeterminismZeroAllocation, SteadyStateCycleLoopIsAllocFree)
{
    // A stable low-load run: by mid-measurement every pool, ring,
    // wheel and scratch vector has hit its high-water mark, so the
    // cycle loop must run entirely allocation-free from there to the
    // end of the measurement window.
    topology::LogicalTopology topo =
        topology::buildMesh(2, 2, power::scaledSsc(8, 200.0));
    NetworkSpec spec;
    spec.vcs = 4;
    spec.buffer_per_port = 8;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 1;
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 3;
    spec.internal_link_latency = 2;

    Network net(topo, spec, 7);
    SyntheticWorkload synthetic(makeTraffic("uniform", 16), 0.1, 2);
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1500;
    cfg.drain_limit = 10000;
    cfg.seed = 42;
    // Cycle 1799 is the last one the measurement window generates.
    AllocSamplingWorkload workload(synthetic, 800, 1799);
    Simulator simulator(net, workload, cfg);
    const SimResult r = simulator.run();

    const std::uint64_t at_steady = workload.at_first;
    const std::uint64_t at_window_end = workload.at_last;
    ASSERT_TRUE(r.stable);
    ASSERT_GT(at_steady, 0u);
    ASSERT_GE(at_window_end, at_steady);
    EXPECT_EQ(at_window_end - at_steady, 0u)
        << "the cycle loop heap-allocated "
        << (at_window_end - at_steady)
        << " times between cycles 800 and 1799";
}

} // namespace
} // namespace wss::sim

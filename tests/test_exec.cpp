/**
 * @file
 * Tests for the parallel execution engine: thread pool scheduling,
 * per-index seed derivation, sweep determinism across thread
 * counts (incl. bit-identity with the legacy serial sweepLoad),
 * and campaign batching/artifact output.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "exec/campaign.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "power/ssc.hpp"
#include "sim/load_sweep.hpp"
#include "topology/clos.hpp"

namespace wss::exec {
namespace {

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const std::int64_t n = 10000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallelFor(n, [&](std::int64_t i) { ++visits[i]; });
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForWorksOnSingleThreadPool)
{
    ThreadPool pool(1);
    std::atomic<std::int64_t> sum{0};
    pool.parallelFor(100, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(50,
                                  [&](std::int64_t i) {
                                      if (i == 17)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, WorkerSlotsAreStableAndDisjoint)
{
    ThreadPool pool(3);
    // The external caller maps to slot size().
    EXPECT_EQ(pool.workerSlot(), 3);
    std::mutex mutex;
    std::set<int> slots;
    pool.parallelFor(64, [&](std::int64_t) {
        const int slot = pool.workerSlot();
        EXPECT_GE(slot, 0);
        EXPECT_LE(slot, 3);
        std::lock_guard<std::mutex> lock(mutex);
        slots.insert(slot);
    });
    EXPECT_FALSE(slots.empty());
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(4, [&](std::int64_t) {
        pool.parallelFor(8, [&](std::int64_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, BackToBackLoopsVisitEveryIndexOnce)
{
    // Many short loops in a row leave stale helper closures queued
    // while the next loop's helpers arrive; a lost wake-up or a
    // helper running the wrong loop shows up as a missed or doubled
    // index (or a hang).
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int round = 0; round < 2000; ++round) {
        const std::int64_t n = 1 + round % 16;
        std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
        pool.parallelFor(n, [&](std::int64_t i) { ++visits[i]; });
        for (std::int64_t i = 0; i < n; ++i)
            ASSERT_EQ(visits[i].load(), 1)
                << "round " << round << " index " << i;
    }
}

TEST(ThreadPool, DestroyRightAfterNestedLoops)
{
    // Every loop's body is copied into its queued helper closures;
    // the token's use count proves that none of them outlives the
    // pool, i.e. the destructor drained the queue and joined every
    // helper.
    const auto token = std::make_shared<int>(0);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> total{0};
        {
            ThreadPool pool(4);
            pool.parallelFor(4, [&, token](std::int64_t) {
                pool.parallelFor(8, [&, token](std::int64_t) { ++total; });
            });
        }
        EXPECT_EQ(total.load(), 32);
        EXPECT_EQ(token.use_count(), 1) << "round " << round;
    }
}

TEST(ThreadPool, DefaultThreadsHonoursEnvOverride)
{
    setenv("WSS_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3);
    unsetenv("WSS_JOBS");
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, RejectsMalformedJobsEnv)
{
    // Anything that is not a whole positive decimal integer must be
    // ignored (with a warning) in favour of hardware concurrency —
    // including trailing garbage that atoi would silently accept.
    unsetenv("WSS_JOBS");
    const int fallback = ThreadPool::defaultThreads();
    for (const char *bad :
         {"0", "-2", "abc", "", "8x", "3.5", " 4", "99999999999999"}) {
        setenv("WSS_JOBS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultThreads(), fallback)
            << "WSS_JOBS='" << bad << "'";
    }
    setenv("WSS_JOBS", "2", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 2);
    unsetenv("WSS_JOBS");
}

TEST(ExecSeed, IndexZeroIsTheBaseSeed)
{
    EXPECT_EQ(deriveSeed(42, 0), 42u);
    EXPECT_EQ(deriveSeed(0, 0), 0u);
}

TEST(ExecSeed, IndicesGiveDistinctStableSeeds)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(deriveSeed(7, i));
    EXPECT_EQ(seeds.size(), 1000u);
    // Stateless: same inputs, same output, regardless of call order.
    EXPECT_EQ(deriveSeed(7, 500), deriveSeed(7, 500));
    EXPECT_NE(deriveSeed(7, 1), deriveSeed(8, 1));
}

/// An 8-port folded Clos small enough for many runs per test.
topology::LogicalTopology
tinyClos()
{
    return topology::buildFoldedClos({8, power::scaledSsc(8, 200.0), 1});
}

sim::NetworkSpec
tinySpec()
{
    sim::NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 8;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 2;
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 3;
    spec.internal_link_latency = 1;
    return spec;
}

sim::SimConfig
tinyCfg()
{
    sim::SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1500;
    cfg.drain_limit = 10000;
    cfg.seed = 9;
    return cfg;
}

SweepJob
tinyJob(const topology::LogicalTopology &topo,
        const sim::NetworkSpec &spec, const std::vector<double> &rates,
        int repetitions = 1)
{
    SweepJob job;
    job.make_network = [&topo, spec](std::uint64_t seed) {
        return std::make_unique<sim::Network>(topo, spec, seed);
    };
    job.make_workload = [](double rate, std::uint64_t) {
        return std::make_unique<sim::SyntheticWorkload>(
            sim::uniformTraffic(8), rate, 1);
    };
    job.rates = rates;
    job.cfg = tinyCfg();
    job.repetitions = repetitions;
    return job;
}

void
expectIdenticalPoints(const std::vector<sim::LoadPoint> &a,
                      const std::vector<sim::LoadPoint> &b,
                      const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Bit-identical, not approximately equal: the parallel path
        // must run the exact serial computation.
        EXPECT_EQ(a[i].offered, b[i].offered) << what << " point " << i;
        EXPECT_EQ(a[i].accepted, b[i].accepted) << what << " point " << i;
        EXPECT_EQ(a[i].avg_latency, b[i].avg_latency)
            << what << " point " << i;
        EXPECT_EQ(a[i].p99_latency, b[i].p99_latency)
            << what << " point " << i;
        EXPECT_EQ(a[i].stable, b[i].stable) << what << " point " << i;
    }
}

TEST(SweepRunner, MatchesSerialSweepLoadAtAnyThreadCount)
{
    const auto topo = tinyClos();
    const auto spec = tinySpec();
    const std::vector<double> rates = {0.05, 0.3, 0.6};
    const auto cfg = tinyCfg();

    // The legacy serial baseline.
    const auto serial = sim::sweepLoad(
        [&] {
            return std::make_unique<sim::Network>(topo, spec, cfg.seed);
        },
        [&](double rate) {
            return std::make_unique<sim::SyntheticWorkload>(
                sim::uniformTraffic(8), rate, 1);
        },
        rates, cfg);

    const SweepRunner runner(tinyJob(topo, spec, rates));

    const auto inline_run = runner.run(nullptr);
    expectIdenticalPoints(serial.points, inline_run.combined.points,
                          "inline");

    ThreadPool one(1);
    const auto one_thread = runner.run(&one);
    expectIdenticalPoints(serial.points, one_thread.combined.points,
                          "1 thread");

    ThreadPool four(4);
    const auto four_threads = runner.run(&four);
    expectIdenticalPoints(serial.points, four_threads.combined.points,
                          "4 threads");

    EXPECT_EQ(serial.zero_load_latency,
              four_threads.combined.zero_load_latency);
    EXPECT_EQ(serial.saturation_throughput,
              four_threads.combined.saturation_throughput);
}

TEST(SweepRunner, RepetitionsAreDeterministicAndDistinct)
{
    const auto topo = tinyClos();
    const auto spec = tinySpec();
    const SweepRunner runner(tinyJob(topo, spec, {0.2, 0.5}, 3));

    ThreadPool pool(4);
    const auto parallel = runner.run(&pool);
    const auto serial = runner.run(nullptr);

    ASSERT_EQ(parallel.reps.size(), 3u);
    for (std::size_t rep = 0; rep < 3; ++rep)
        expectIdenticalPoints(serial.reps[rep].points,
                              parallel.reps[rep].points, "rep");

    // Different repetitions see different seeds, so the curves must
    // actually differ.
    EXPECT_NE(parallel.reps[0].points[0].avg_latency,
              parallel.reps[1].points[0].avg_latency);

    // The combined curve averages the repetitions.
    const double mean_avg = (parallel.reps[0].points[0].avg_latency +
                             parallel.reps[1].points[0].avg_latency +
                             parallel.reps[2].points[0].avg_latency) /
                            3.0;
    EXPECT_NEAR(parallel.combined.points[0].avg_latency, mean_avg,
                1e-12);
}

TEST(SweepRunner, RecordsPerPointTiming)
{
    const auto topo = tinyClos();
    const auto spec = tinySpec();
    const SweepRunner runner(tinyJob(topo, spec, {0.1, 0.4}));
    const auto out = runner.run(nullptr);
    ASSERT_EQ(out.outcomes.size(), 2u);
    for (const auto &outcome : out.outcomes) {
        EXPECT_GT(outcome.seconds, 0.0);
        EXPECT_GT(outcome.result.packets_measured, 0);
    }
    EXPECT_GT(out.wall_seconds, 0.0);
}

TEST(Campaign, BatchesHeterogeneousJobsWithTiming)
{
    const auto topo = tinyClos();
    const auto spec = tinySpec();

    Campaign campaign;
    const int sweep_a =
        campaign.addSweep("uniform", tinyJob(topo, spec, {0.1, 0.4}));
    const int sweep_b =
        campaign.addSweep("uniform-rep2",
                          tinyJob(topo, spec, {0.3}, 2));
    std::atomic<int> task_runs{0};
    const int task =
        campaign.addTask("count", [&task_runs] { ++task_runs; });
    ASSERT_EQ(campaign.jobCount(), 3);

    ThreadPool pool(4);
    const auto result = campaign.run(&pool);
    EXPECT_EQ(result.threads, 4);
    ASSERT_EQ(result.jobs.size(), 3u);
    EXPECT_EQ(task_runs.load(), 1);

    const auto &a = result.jobs[static_cast<std::size_t>(sweep_a)];
    EXPECT_EQ(a.kind, "sweep");
    EXPECT_EQ(a.cells, 2);
    EXPECT_EQ(a.sweep.combined.points.size(), 2u);
    EXPECT_GT(a.seconds, 0.0);
    EXPECT_GT(a.mean_cell_seconds, 0.0);
    EXPECT_GE(a.max_cell_seconds, a.mean_cell_seconds);

    const auto &b = result.jobs[static_cast<std::size_t>(sweep_b)];
    EXPECT_EQ(b.cells, 2); // 1 rate x 2 repetitions
    ASSERT_EQ(b.sweep.reps.size(), 2u);

    const auto &t = result.jobs[static_cast<std::size_t>(task)];
    EXPECT_EQ(t.kind, "task");
    EXPECT_EQ(t.cells, 1);

    EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Campaign, MatchesDirectSweepRunnerOutput)
{
    const auto topo = tinyClos();
    const auto spec = tinySpec();
    const auto job = tinyJob(topo, spec, {0.1, 0.5});

    const auto direct = SweepRunner(job).run(nullptr);

    Campaign campaign;
    campaign.addSweep("curve", job);
    ThreadPool pool(3);
    const auto batched = campaign.run(&pool);
    expectIdenticalPoints(direct.combined.points,
                          batched.jobs[0].sweep.combined.points,
                          "campaign");
}

TEST(Campaign, WritesCsvAndJsonArtifacts)
{
    const auto topo = tinyClos();
    const auto spec = tinySpec();

    Campaign campaign;
    campaign.addSweep("curve", tinyJob(topo, spec, {0.2}));
    campaign.addTask("solve", [] {});
    const auto result = campaign.run(nullptr);

    std::ostringstream csv;
    result.writeCsv(csv);
    const std::string csv_text = csv.str();
    EXPECT_NE(csv_text.find("# wall_seconds="), std::string::npos);
    EXPECT_NE(csv_text.find("job,kind,repetition,offered"),
              std::string::npos);
    EXPECT_NE(csv_text.find("curve,sweep,0,"), std::string::npos);
    EXPECT_NE(csv_text.find("solve,task,"), std::string::npos);

    std::ostringstream json;
    result.writeJson(json);
    const std::string json_text = json.str();
    EXPECT_NE(json_text.find("\"wall_seconds\":"), std::string::npos);
    EXPECT_NE(json_text.find("\"name\": \"curve\""), std::string::npos);
    EXPECT_NE(json_text.find("\"kind\": \"task\""), std::string::npos);
    EXPECT_NE(json_text.find("\"saturation_throughput\":"),
              std::string::npos);
    // Balanced braces — cheap structural sanity for the hand-rolled
    // emitter.
    EXPECT_EQ(std::count(json_text.begin(), json_text.end(), '{'),
              std::count(json_text.begin(), json_text.end(), '}'));
    EXPECT_EQ(std::count(json_text.begin(), json_text.end(), '['),
              std::count(json_text.begin(), json_text.end(), ']'));
}

} // namespace
} // namespace wss::exec

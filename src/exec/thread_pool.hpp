/**
 * @file
 * Work-stealing thread pool for fanning out independent experiment
 * runs (sweep points, solver calls, mapping restarts) across cores.
 *
 * Each worker owns a deque: it pushes and pops its own work LIFO
 * (cache locality) and steals FIFO from the oldest end of its
 * siblings' deques when idle — the classic work-stealing split.
 * parallelFor() runs on exactly size() execution lanes: size() - 1
 * stolen by workers plus the *calling* thread, which participates
 * instead of blocking idle — so a 1-thread pool is truly serial and
 * nested calls from inside a worker cannot deadlock.
 *
 * Sizing: ThreadPool(0) uses defaultThreads(), which honours the
 * WSS_JOBS environment variable and otherwise takes
 * std::thread::hardware_concurrency().
 */

#ifndef WSS_EXEC_THREAD_POOL_HPP
#define WSS_EXEC_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace wss::exec {

/**
 * Move-only type-erased nullary callable. std::function requires
 * copyable targets, which rules out lambdas that capture a
 * std::packaged_task — hence this little wrapper.
 */
class UniqueTask
{
  public:
    UniqueTask() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, UniqueTask>>>
    explicit UniqueTask(F &&fn)
        : impl_(std::make_unique<Model<std::decay_t<F>>>(
              std::forward<F>(fn)))
    {
    }

    explicit operator bool() const { return impl_ != nullptr; }
    void operator()() { impl_->run(); }

  private:
    struct Concept
    {
        virtual ~Concept() = default;
        virtual void run() = 0;
    };

    template <typename F>
    struct Model final : Concept
    {
        explicit Model(F &&fn) : fn(std::move(fn)) {}
        explicit Model(const F &fn) : fn(fn) {}
        void run() override { fn(); }
        F fn;
    };

    std::unique_ptr<Concept> impl_;
};

/**
 * The pool. Tasks must not outlive the pool; the destructor stops
 * the workers after draining whatever is still queued.
 */
class ThreadPool
{
  public:
    /// @param threads worker count; <= 0 means defaultThreads().
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /// Number of worker threads.
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Stable slot of the calling thread for per-worker (mutex-free)
     * result buffers: workers get [0, size()), any external caller
     * (e.g. the thread driving parallelFor) gets size(). Buffers
     * sized size() + 1 therefore cover every thread that can touch
     * them.
     */
    int workerSlot() const;

    /// WSS_JOBS override, else hardware_concurrency(), min 1.
    static int defaultThreads();

    /// Queue @p fn and get a future for its result.
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        std::packaged_task<R()> task(std::forward<F>(fn));
        auto future = task.get_future();
        enqueue(UniqueTask(std::move(task)));
        return future;
    }

    /**
     * Run body(i) for every i in [0, n), spread over size()
     * execution lanes (workers + the calling thread), and return
     * when all n are done.
     * Indices are claimed atomically so each runs exactly once; the
     * first exception (if any) is rethrown in the caller after the
     * loop completes.
     */
    void parallelFor(std::int64_t n,
                     const std::function<void(std::int64_t)> &body);

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<UniqueTask> tasks;
    };

    void enqueue(UniqueTask task);
    bool tryRunOne(int self);
    void workerLoop(int id);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> next_queue_{0};
    std::atomic<std::int64_t> pending_{0};
    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
    std::atomic<bool> stop_{false};
};

/**
 * Flight-recorder label of pool slot @p slot (workerSlot()):
 * "worker-N" for pool threads, "caller" for the thread driving
 * parallelFor or a serial run (@p pool null).
 */
std::string workerLabel(const ThreadPool *pool, int slot);

} // namespace wss::exec

#endif // WSS_EXEC_THREAD_POOL_HPP

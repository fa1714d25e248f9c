/**
 * @file
 * Plain thread pool for fanning out independent experiment cells
 * (sweep points, solver calls, DCN and collective cells) across
 * cores.
 *
 * The pool owns size() helper threads that sleep on one
 * mutex-guarded queue of closures. parallelFor() is the only way in:
 * it queues size() - 1 helper closures and runs the loop in the
 * calling thread too, every lane claiming indices from one atomic
 * counter. The caller participates instead of blocking idle, so a
 * 1-thread pool is truly serial and nested calls from inside a
 * worker cannot deadlock.
 *
 * Sizing: ThreadPool(0) uses defaultThreads(), which honours the
 * WSS_JOBS environment variable and otherwise takes
 * std::thread::hardware_concurrency().
 */

#ifndef WSS_EXEC_THREAD_POOL_HPP
#define WSS_EXEC_THREAD_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wss::exec {

/**
 * The pool. The destructor runs whatever is still queued, then stops
 * and joins the workers.
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
    void workerLoop(int id);

    // queue_ and stop_ are guarded by mutex_. workers_ comes last:
    // the threads use every member above it.
    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Flight-recorder label of pool slot @p slot (workerSlot()):
 * "worker-N" for pool threads, "caller" for the thread driving
 * parallelFor or a serial run (@p pool null).
 */
std::string workerLabel(const ThreadPool *pool, int slot);

} // namespace wss::exec

#endif // WSS_EXEC_THREAD_POOL_HPP

#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/logging.hpp"

namespace wss::exec {

namespace {

/// Identity of the current thread within a pool (workerSlot()).
thread_local const ThreadPool *tl_pool = nullptr;
thread_local int tl_slot = -1;

} // namespace

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreads();
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

int
ThreadPool::workerSlot() const
{
    return tl_pool == this ? tl_slot : size();
}

std::string
workerLabel(const ThreadPool *pool, int slot)
{
    if (pool == nullptr || slot == pool->size())
        return "caller";
    return "worker-" + std::to_string(slot);
}

int
ThreadPool::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
    const char *env = std::getenv("WSS_JOBS");
    if (!env)
        return fallback;
    // Strict parse: the whole string must be a positive decimal
    // integer. "8x", "", "0" and "-2" all fall back loudly — a typo
    // silently serializing (or oversubscribing) a campaign is much
    // harder to notice than this warning.
    char *end = nullptr;
    errno = 0;
    const long n = std::strtol(env, &end, 10);
    // strtol alone would accept " 4", "+4" and "8x"; require the
    // value to be exactly a string of decimal digits.
    if (env[0] < '0' || env[0] > '9' || errno != 0 || end == env ||
        *end != '\0' || n <= 0 || n > 4096) {
        warn("WSS_JOBS='", env,
             "' is not a positive integer (1..4096); using ",
             fallback, " thread(s) instead");
        return fallback;
    }
    return static_cast<int>(n);
}

void
ThreadPool::workerLoop(int id)
{
    tl_pool = this;
    tl_slot = id;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        // Stop only once the queue is drained.
        if (queue_.empty())
            return;
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        task();
        task = nullptr; // drop the loop state outside the lock
        lock.lock();
    }
}

void
ThreadPool::parallelFor(std::int64_t n,
                        const std::function<void(std::int64_t)> &body)
{
    if (n <= 0)
        return;
    if (n == 1) {
        body(0);
        return;
    }

    struct LoopState
    {
        std::function<void(std::int64_t)> body;
        std::int64_t total = 0;
        std::atomic<std::int64_t> next{0};
        std::atomic<std::int64_t> done{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex mutex;
        std::condition_variable cv;
    };
    auto state = std::make_shared<LoopState>();
    state->body = body;
    state->total = n;

    auto work = [state] {
        for (;;) {
            const std::int64_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= state->total)
                return;
            if (!state->failed.load(std::memory_order_relaxed)) {
                try {
                    state->body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->mutex);
                    if (!state->failed.exchange(true))
                        state->error = std::current_exception();
                }
            }
            if (state->done.fetch_add(1, std::memory_order_acq_rel) +
                    1 ==
                state->total) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->cv.notify_all();
            }
        }
    };

    // Exactly size() execution lanes: size() - 1 helper tasks plus
    // the calling thread, which participates instead of blocking
    // idle (this also keeps nested parallelFor deadlock-free). A
    // 1-thread pool therefore runs the loop serially in the caller.
    const auto helpers =
        std::min<std::int64_t>(size() - 1, n - 1);
    if (helpers > 0) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.insert(queue_.end(), static_cast<std::size_t>(helpers),
                          work);
        }
        wake_.notify_all();
    }
    work();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
        return state->done.load(std::memory_order_acquire) ==
               state->total;
    });
    if (state->failed.load(std::memory_order_acquire))
        std::rethrow_exception(state->error);
}

} // namespace wss::exec

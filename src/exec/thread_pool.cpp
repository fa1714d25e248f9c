#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>

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
    queues_.reserve(threads);
    for (int i = 0; i < threads; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_.store(true, std::memory_order_release);
    }
    wake_cv_.notify_all();
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
ThreadPool::enqueue(UniqueTask task)
{
    // Workers push to their own deque (popped LIFO for locality);
    // external threads scatter round-robin.
    const int self = workerSlot();
    const auto target =
        self < size()
            ? static_cast<std::size_t>(self)
            : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                  queues_.size();
    {
        std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    pending_.fetch_add(1, std::memory_order_release);
    // Empty critical section: pairs with the wait predicate so a
    // sleeping worker cannot miss the increment.
    { std::lock_guard<std::mutex> lock(wake_mutex_); }
    wake_cv_.notify_one();
}

bool
ThreadPool::tryRunOne(int self)
{
    UniqueTask task;
    if (self >= 0) {
        auto &own = *queues_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = std::move(own.tasks.back());
            own.tasks.pop_back();
        }
    }
    if (!task) {
        // Steal from the FIFO end of the siblings' deques, scanning
        // from the neighbour so thieves spread out.
        const int n = static_cast<int>(queues_.size());
        const int base = self >= 0 ? self : 0;
        for (int i = self >= 0 ? 1 : 0; i < n + 1 && !task; ++i) {
            auto &victim = *queues_[(base + i) % n];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = std::move(victim.tasks.front());
                victim.tasks.pop_front();
            }
        }
    }
    if (!task)
        return false;
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    task();
    return true;
}

void
ThreadPool::workerLoop(int id)
{
    tl_pool = this;
    tl_slot = id;
    while (!stop_.load(std::memory_order_acquire)) {
        if (tryRunOne(id))
            continue;
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_cv_.wait(lock, [this] {
            return stop_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
    }
    // Drain what is still queued so pending futures are fulfilled
    // even when the pool is torn down right after submission.
    while (tryRunOne(id)) {
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
    for (std::int64_t t = 0; t < helpers; ++t)
        enqueue(UniqueTask(work));
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

#include "obs/watchdog.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "util/logging.hpp"

namespace wss::obs {
namespace {

constexpr std::size_t kProgressLineCap = 156;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::atomic<std::uint64_t> g_progress_total{0};
std::atomic<std::uint64_t> g_progress_done{0};
std::atomic<std::uint64_t> g_progress_epoch_ns{0};

std::thread g_monitor;
std::mutex g_monitor_mutex;
std::condition_variable g_monitor_cv;
bool g_monitor_running = false;
bool g_monitor_stop = false;
std::size_t g_last_line_len = 0;

/// Re-render the status line in place (no newline; the next log line
/// simply starts after it, which is cosmetic).
void
paintProgressLine(const std::string &line)
{
    std::string text = "\r" + line;
    if (line.size() < g_last_line_len)
        text.append(g_last_line_len - line.size(), ' ');
    g_last_line_len = line.size();
    std::lock_guard<std::mutex> lock(wss::detail::logMutex());
    std::cerr << text << std::flush;
}

void
eraseProgressLine()
{
    if (g_last_line_len == 0)
        return;
    std::string text = "\r";
    text.append(g_last_line_len, ' ');
    text += '\r';
    g_last_line_len = 0;
    std::lock_guard<std::mutex> lock(wss::detail::logMutex());
    std::cerr << text << std::flush;
}

/// Seconds since @p ring's newest event.
double
ringAge(const ThreadRing &ring)
{
    const double age = FlightRecorder::now() - ring.lastEventTime();
    return age > 0.0 ? age : 0.0;
}

/// Stall diagnosis: every ring's state (busy/idle, age of its last
/// event, detail, open phase stack) and its tail, one atomic stderr
/// write.
std::string
renderStallDump()
{
    std::ostringstream os;
    os << "watchdog: flight recorder rings:\n";
    const std::size_t rings = FlightRecorder::ringCount();
    if (rings == 0)
        os << "  (no threads attached)\n";
    for (std::size_t i = 0; i < rings; ++i) {
        ThreadRing *ring = FlightRecorder::ring(i);
        if (ring == nullptr)
            continue;
        const std::uint64_t written = ring->written();
        os << "  " << ring->label() << ": "
           << (ring->busy() ? "busy" : "idle") << ", last event "
           << std::fixed;
        os.precision(2);
        os << ringAge(*ring) << " s ago";
        const std::string detail = ring->detail();
        if (!detail.empty())
            os << ", on '" << detail << "'";
        os << ", " << written << " events, open phases:";
        const int depth = ring->phaseDepth();
        const int named = depth < ThreadRing::kMaxPhaseDepth
                              ? depth
                              : ThreadRing::kMaxPhaseDepth;
        if (named == 0)
            os << " (none)";
        for (int p = 0; p < named; ++p)
            os << (p == 0 ? " " : "/") << ring->phaseName(p);
        os << "\n";
        std::uint64_t window = 8;
        if (window > ring->capacity())
            window = ring->capacity();
        if (window > written)
            window = written;
        for (std::uint64_t k = 0; k < window; ++k) {
            const FlightEvent &e = ring->slot(written - window + k);
            const EventKind kind =
                e.kind < static_cast<std::uint16_t>(EventKind::kCount)
                    ? static_cast<EventKind>(e.kind)
                    : EventKind::kCount;
            os << "    t=" << std::fixed;
            os.precision(6);
            os << e.t << " " << eventKindName(kind) << " a=" << e.a
               << " b=" << e.b;
            if (e.tag[0] != '\0')
                os << " '" << e.tag << "'";
            os << "\n";
        }
    }
    return os.str();
}

void
monitorLoop(double stall_timeout_s, bool progress, double progress_period_s)
{
    double poll_s = progress ? progress_period_s : 0.25;
    if (stall_timeout_s > 0.0 && stall_timeout_s / 4.0 < poll_s)
        poll_s = stall_timeout_s / 4.0;
    if (poll_s < 0.01)
        poll_s = 0.01;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(g_monitor_mutex);
            g_monitor_cv.wait_for(
                lock, std::chrono::duration<double>(poll_s),
                [] { return g_monitor_stop; });
            if (g_monitor_stop)
                return;
        }
        if (stall_timeout_s > 0.0) {
            const std::string culprit =
                Watchdog::checkStalls(stall_timeout_s);
            if (!culprit.empty()) {
                eraseProgressLine();
                {
                    const std::string dump = renderStallDump();
                    std::lock_guard<std::mutex> lock(
                        wss::detail::logMutex());
                    std::cerr << dump << std::flush;
                }
                panic("watchdog: stall detected — ", culprit);
            }
        }
        if (progress)
            paintProgressLine(Watchdog::renderProgressLine());
    }
}

} // namespace

void
Watchdog::setProgressTotal(std::uint64_t total)
{
    g_progress_total.store(total, std::memory_order_relaxed);
    g_progress_done.store(0, std::memory_order_relaxed);
    g_progress_epoch_ns.store(nowNs(), std::memory_order_relaxed);
}

void
Watchdog::addProgressDone(std::uint64_t n)
{
    g_progress_done.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
Watchdog::progressTotal()
{
    return g_progress_total.load(std::memory_order_relaxed);
}

std::uint64_t
Watchdog::progressDone()
{
    return g_progress_done.load(std::memory_order_relaxed);
}

void
Watchdog::start(double stall_timeout_s, bool progress,
                double progress_period_s)
{
    FlightRecorder::enable();
    std::lock_guard<std::mutex> lock(g_monitor_mutex);
    if (g_monitor_running)
        return;
    g_monitor_stop = false;
    g_monitor_running = true;
    g_monitor = std::thread(monitorLoop, stall_timeout_s, progress,
                            progress_period_s);
}

void
Watchdog::stop()
{
    {
        std::lock_guard<std::mutex> lock(g_monitor_mutex);
        if (!g_monitor_running)
            return;
        g_monitor_stop = true;
    }
    g_monitor_cv.notify_all();
    g_monitor.join();
    {
        std::lock_guard<std::mutex> lock(g_monitor_mutex);
        g_monitor_running = false;
    }
    eraseProgressLine();
}

std::string
Watchdog::checkStalls(double stall_timeout_s)
{
    const std::size_t rings = FlightRecorder::ringCount();
    for (std::size_t i = 0; i < rings; ++i) {
        const ThreadRing *ring = FlightRecorder::ring(i);
        if (ring == nullptr || !ring->busy())
            continue;
        const double age = ringAge(*ring);
        if (age <= stall_timeout_s)
            continue;
        std::ostringstream os;
        os << ring->label() << ": no progress for " << std::fixed;
        os.precision(2);
        os << age << " s (timeout " << stall_timeout_s << " s)";
        const std::string detail = ring->detail();
        if (!detail.empty())
            os << " while on '" << detail << "'";
        return os.str();
    }
    return "";
}

std::string
Watchdog::renderProgressLine()
{
    std::ostringstream os;
    const std::uint64_t total = progressTotal();
    const std::uint64_t done = progressDone();
    os << "jobs " << done << "/" << total;
    if (total > 0) {
        os << " (" << std::fixed;
        os.precision(1);
        os << 100.0 * static_cast<double>(done) /
                  static_cast<double>(total)
           << "%)";
        if (done > 0 && done < total) {
            const double elapsed =
                (nowNs() -
                 g_progress_epoch_ns.load(std::memory_order_relaxed)) *
                1.0e-9;
            const double eta = elapsed *
                               static_cast<double>(total - done) /
                               static_cast<double>(done);
            os << " eta " << std::fixed;
            os.precision(0);
            os << eta << "s";
        }
    }
    const std::size_t rings = FlightRecorder::ringCount();
    for (std::size_t i = 0; i < rings; ++i) {
        const ThreadRing *ring = FlightRecorder::ring(i);
        if (ring == nullptr || !ring->busy())
            continue;
        const std::string detail = ring->detail();
        if (!detail.empty())
            os << " | " << ring->label() << " " << detail;
    }
    std::string line = os.str();
    if (line.size() > kProgressLineCap) {
        line.resize(kProgressLineCap - 3);
        line += "...";
    }
    return line;
}

void
Watchdog::resetForTesting()
{
    stop();
    g_progress_total.store(0, std::memory_order_relaxed);
    g_progress_done.store(0, std::memory_order_relaxed);
}

} // namespace wss::obs

#include "obs/flight_recorder.hpp"

#include <chrono>
#include <cstring>
#include <mutex>

#include "obs/crash_dump.hpp"
#include "util/logging.hpp"

namespace wss::obs {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxRings = 256;
constexpr std::size_t kMinCapacity = 16;

std::atomic<bool> g_enabled{false};
std::size_t g_capacity = 4096;
Clock::time_point g_epoch{};

/// Fixed-size lock-free ring table: the crash writer walks
/// g_rings[0, g_ring_count) without a mutex. Registration (cold)
/// serializes on g_attach_mutex; publication is the release store
/// into the atomic slot plus the count bump.
std::atomic<ThreadRing *> g_rings[kMaxRings]{};
std::atomic<std::size_t> g_ring_count{0};
std::mutex g_attach_mutex;

std::atomic<std::uint64_t>
    g_kind_counts[static_cast<std::size_t>(EventKind::kCount)]{};

void
copyTruncated(char *dst, std::size_t cap, std::string_view src)
{
    const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
    // An empty view may carry a null data(); memcpy from null is UB
    // even for zero bytes.
    if (n != 0)
        std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

/// util/logging.hpp bridge: record the event, and on panic()/fatal()
/// drain everything into the crash post-mortem before the process
/// dies. Runs in normal (non-signal) context — see the
/// async-signal-safety rules in util/logging.hpp.
void
obsLogEventHook(wss::detail::LogEvent event, const char *msg)
{
    switch (event) {
    case wss::detail::LogEvent::WarnOnce:
        recordEvent(EventKind::WarnOnce, 0, 0, msg);
        break;
    case wss::detail::LogEvent::Artifact:
        recordEvent(EventKind::ArtifactWrite, 0, 0, msg);
        break;
    case wss::detail::LogEvent::Panic:
        recordEvent(EventKind::Panic, 0, 0, msg);
        CrashDump::writeNow(msg, 0);
        break;
    case wss::detail::LogEvent::Fatal:
        recordEvent(EventKind::Fatal, 0, 0, msg);
        CrashDump::writeNow(msg, 0);
        break;
    }
}

} // namespace

namespace frdetail {

constinit thread_local ThreadRing *tl_ring = nullptr;

void
recordSlow(ThreadRing *ring, EventKind kind, std::int64_t a, std::int64_t b,
           std::string_view tag)
{
    const double t = std::chrono::duration<double>(Clock::now() - g_epoch)
                         .count();
    g_kind_counts[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
    ring->record(kind, t, a, b, tag);
}

} // namespace frdetail

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
    case EventKind::PhaseEnter: return "phase_enter";
    case EventKind::PhaseExit: return "phase_exit";
    case EventKind::JobStart: return "job_start";
    case EventKind::JobFinish: return "job_finish";
    case EventKind::DesignPoint: return "design_point";
    case EventKind::SimEpoch: return "sim_epoch";
    case EventKind::FaultInjection: return "fault_injection";
    case EventKind::ArtifactWrite: return "artifact_write";
    case EventKind::WarnOnce: return "warn_once";
    case EventKind::Heartbeat: return "heartbeat";
    case EventKind::Panic: return "panic";
    case EventKind::Fatal: return "fatal";
    case EventKind::kCount: break;
    }
    return "unknown";
}

ThreadRing::ThreadRing(std::string_view label, std::size_t capacity)
    : slots_(new FlightEvent[capacity]), capacity_(capacity)
{
    copyTruncated(label_, sizeof(label_), label);
}

ThreadRing::~ThreadRing() { delete[] slots_; }

void
ThreadRing::record(EventKind kind, double t, std::int64_t a, std::int64_t b,
                   std::string_view tag)
{
    const std::uint64_t i = written_.load(std::memory_order_relaxed);
    FlightEvent &e = slots_[i % capacity_];
    e.t = t;
    e.a = a;
    e.b = b;
    e.kind = static_cast<std::uint16_t>(kind);
    copyTruncated(e.tag, sizeof(e.tag), tag);
    written_.store(i + 1, std::memory_order_release);
    last_t_.store(t, std::memory_order_relaxed);
}

std::string
ThreadRing::detail() const
{
    std::lock_guard<std::mutex> lock(detail_mutex_);
    return detail_;
}

void
ThreadRing::setDetail(std::string_view detail)
{
    std::lock_guard<std::mutex> lock(detail_mutex_);
    copyTruncated(detail_, sizeof(detail_), detail);
}

void
ThreadRing::pushPhase(std::string_view name)
{
    const int depth = phase_depth_.load(std::memory_order_relaxed);
    if (depth < kMaxPhaseDepth)
        copyTruncated(phase_names_[depth], kPhaseNameCap, name);
    phase_depth_.store(depth + 1, std::memory_order_release);
}

void
ThreadRing::popPhase()
{
    const int depth = phase_depth_.load(std::memory_order_relaxed);
    if (depth > 0)
        phase_depth_.store(depth - 1, std::memory_order_release);
}

WorkerScope::WorkerScope(std::string_view label, std::string_view detail)
{
    FlightRecorder::attachCurrentThread(label);
    ring_ = frdetail::tl_ring;
    if (ring_ == nullptr)
        return;
    ring_->setDetail(detail);
    // The event refreshes lastEventTime() before the ring turns busy,
    // so the watchdog never measures a new cell from the old one's
    // last event.
    frdetail::recordSlow(ring_, EventKind::Heartbeat, 0, 0, detail);
    ring_->busy_.store(true, std::memory_order_release);
}

WorkerScope::~WorkerScope()
{
    if (ring_ != nullptr)
        ring_->busy_.store(false, std::memory_order_release);
}

void
FlightRecorder::enable(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(g_attach_mutex);
    if (g_enabled.load(std::memory_order_relaxed))
        return;
    g_capacity = capacity < kMinCapacity ? kMinCapacity : capacity;
    g_epoch = Clock::now();
    setLogEventHook(&obsLogEventHook);
    g_enabled.store(true, std::memory_order_release);
}

bool
FlightRecorder::enabled()
{
    return g_enabled.load(std::memory_order_acquire);
}

void
FlightRecorder::attachCurrentThread(std::string_view label)
{
    if (!enabled() || frdetail::tl_ring)
        return;
    std::lock_guard<std::mutex> lock(g_attach_mutex);
    const std::size_t i = g_ring_count.load(std::memory_order_relaxed);
    if (i >= kMaxRings) {
        WSS_WARN_ONCE("flight recorder: ring table full (", kMaxRings,
                      " threads) — further threads record nothing");
        return;
    }
    ThreadRing *ring = new ThreadRing(label, g_capacity);
    g_rings[i].store(ring, std::memory_order_release);
    g_ring_count.store(i + 1, std::memory_order_release);
    frdetail::tl_ring = ring;
}

void
FlightRecorder::detachCurrentThread()
{
    frdetail::tl_ring = nullptr;
}

std::size_t
FlightRecorder::ringCount()
{
    return g_ring_count.load(std::memory_order_acquire);
}

ThreadRing *
FlightRecorder::ring(std::size_t i)
{
    return g_rings[i].load(std::memory_order_acquire);
}

std::uint64_t
FlightRecorder::kindCount(EventKind kind)
{
    return g_kind_counts[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
}

double
FlightRecorder::now()
{
    if (!enabled())
        return 0.0;
    return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

void
FlightRecorder::resetForTesting()
{
    std::lock_guard<std::mutex> lock(g_attach_mutex);
    frdetail::tl_ring = nullptr;
    g_enabled.store(false, std::memory_order_release);
    const std::size_t n = g_ring_count.load(std::memory_order_relaxed);
    g_ring_count.store(0, std::memory_order_release);
    for (std::size_t i = 0; i < n; ++i)
        delete g_rings[i].exchange(nullptr, std::memory_order_acq_rel);
    for (auto &c : g_kind_counts)
        c.store(0, std::memory_order_relaxed);
    setLogEventHook(nullptr);
}

} // namespace wss::obs

/**
 * @file
 * Process-wide flight recorder: per-thread lock-free rings of
 * compact binary events, drained into crash post-mortems.
 *
 * Phases 1-2 of the observability stack (metrics, traces, profiler,
 * manifests, reports) describe runs that *finish*. The flight
 * recorder covers the runs that don't: every thread that does real
 * work keeps a fixed-capacity ring of the last events it saw — phase
 * enter/exit, campaign job start/finish, sweep design-point
 * boundaries, sim epoch marks, fault injections, artifact writes,
 * WARN_ONCE firings — so that a panic(), a fatal() invariant, a
 * watchdog stall, or a SIGSEGV can dump "what was every thread doing
 * just now" instead of a bare abort (see obs::CrashDump).
 *
 * The contract mirrors obs::MetricsRegistry / obs::Profiler:
 *
 *   - disabled (the default) costs one predicted branch per
 *     recordEvent() call — a thread-local pointer test, guarded by
 *     BM_FlightRecorder* in bench_micro and a >=10x ratio gate in
 *     check.sh;
 *   - recording is purely passive: results are bit-identical with
 *     the recorder on or off (ctest-asserted, FlightRecorder suite);
 *   - each ring has exactly one writer (its owning thread), so the
 *     hot path takes no lock: a slot is written, then the count is
 *     release-stored. Readers that stay >= capacity events behind the
 *     writer (tests, the watchdog's stall dump) see fully published
 *     slots; only the crash-time dump may observe a torn slot in the
 *     ring position being overwritten at the instant of the crash,
 *     which is an acceptable price for a wait-free writer.
 *
 * Threads attach lazily at cold call sites (campaign workers, CLI
 * main); attaching is idempotent and a no-op while the recorder is
 * disabled. Rings are registered in a fixed-size lock-free table so
 * the async-signal-safe crash writer can walk them without taking a
 * mutex (see the async-signal-safety rules in util/logging.hpp).
 *
 * The rings double as the liveness signal of obs::Watchdog: each
 * ring keeps the time of its last event, and a worker running a
 * campaign cell holds a WorkerScope that marks its ring busy and
 * names the design point it is on. A busy ring whose last event has
 * gone stale is a hung worker; idle rings are never suspects.
 */

#ifndef WSS_OBS_FLIGHT_RECORDER_HPP
#define WSS_OBS_FLIGHT_RECORDER_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace wss::obs {

/// What happened. Names (eventKindName) are stable: they appear in
/// crash.json and in the `wss report` post-mortem section.
enum class EventKind : std::uint16_t {
    PhaseEnter = 0,   ///< Profiler phase opened (tag = phase name).
    PhaseExit,        ///< Innermost profiler phase closed.
    JobStart,         ///< Campaign cell started (a = cell index).
    JobFinish,        ///< Campaign cell finished (a = cell index).
    DesignPoint,      ///< Sweep design-point boundary (a = rep, b = rate index).
    SimEpoch,         ///< Simulator progress mark (a = events/cycles so far).
    FaultInjection,   ///< A fault transition was applied (tag = target).
    ArtifactWrite,    ///< An artifact file was written (tag = path tail).
    WarnOnce,         ///< A WSS_WARN_ONCE call site fired (tag = message head).
    Heartbeat,        ///< WorkerScope opened (tag = detail).
    Panic,            ///< panic() fired (tag = message head).
    Fatal,            ///< fatal() fired (tag = message head).
    kCount
};

/// Stable lower_snake_case name of @p kind ("job_start", ...).
const char *eventKindName(EventKind kind);

/// One recorded event. Compact POD: rings are arrays of these, and
/// the crash writer reads the fields through raw pointers only.
struct FlightEvent
{
    /// Seconds since FlightRecorder::enable().
    double t = 0.0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::uint16_t kind = 0;
    /// NUL-terminated (truncating) free-text payload.
    char tag[30] = {};
};

/**
 * One thread's event ring plus its open-profiler-phase stack.
 * Single writer (the owning thread); see file comment for the
 * reader contract. Never freed once registered, so crash-time
 * readers cannot chase a dangling pointer.
 */
class ThreadRing
{
  public:
    static constexpr int kMaxPhaseDepth = 16;
    static constexpr int kPhaseNameCap = 48;

    ThreadRing(std::string_view label, std::size_t capacity);
    ~ThreadRing();
    ThreadRing(const ThreadRing &) = delete;
    ThreadRing &operator=(const ThreadRing &) = delete;

    /// Write one event (wait-free; wraps when full).
    void record(EventKind kind, double t, std::int64_t a, std::int64_t b,
                std::string_view tag);

    /// Push/pop the open-profiler-phase stack (depth beyond
    /// kMaxPhaseDepth is counted but not named).
    void pushPhase(std::string_view name);
    void popPhase();

    /// Total events ever recorded (acquire: slots below this count,
    /// and at most capacity() back, are fully published).
    std::uint64_t written() const
    {
        return written_.load(std::memory_order_acquire);
    }

    std::size_t capacity() const { return capacity_; }

    /// Raw slot access; @p i is an absolute event index (mod
    /// capacity). Valid for indices in [written - min(written,
    /// capacity), written).
    const FlightEvent &slot(std::uint64_t i) const
    {
        return slots_[i % capacity_];
    }

    /// NUL-terminated thread label ("main", "worker-3", ...).
    const char *label() const { return label_; }

    /// Open-phase stack depth (may exceed kMaxPhaseDepth; only the
    /// first kMaxPhaseDepth entries carry names).
    int phaseDepth() const
    {
        return phase_depth_.load(std::memory_order_acquire);
    }

    /// NUL-terminated name of open phase @p i (< kMaxPhaseDepth).
    const char *phaseName(int i) const { return phase_names_[i]; }

    /// FlightEvent::t of the newest event (0 before the first).
    double lastEventTime() const
    {
        return last_t_.load(std::memory_order_relaxed);
    }

    /// True while the owner runs a campaign cell (WorkerScope).
    /// Acquire: a busy ring's lastEventTime() is at least as new as
    /// the event that opened the scope.
    bool busy() const { return busy_.load(std::memory_order_acquire); }

    /// What the owner is working on ("fig21 rep 2 rate 0.8"; cold,
    /// mutex-guarded — written per cell, read per watchdog poll).
    std::string detail() const;

  private:
    friend class WorkerScope;
    void setDetail(std::string_view detail);

    FlightEvent *slots_ = nullptr;
    std::size_t capacity_ = 0;
    std::atomic<std::uint64_t> written_{0};
    std::atomic<double> last_t_{0.0};
    std::atomic<bool> busy_{false};
    char label_[32] = {};
    std::atomic<int> phase_depth_{0};
    char phase_names_[kMaxPhaseDepth][kPhaseNameCap] = {};
    mutable std::mutex detail_mutex_;
    char detail_[96] = {};
};

namespace frdetail {

/// Null while this thread is detached or the recorder is disabled —
/// the one predicted branch of the disabled contract. constinit lets
/// the inline read load the TLS slot directly instead of calling the
/// extern thread_local init wrapper.
extern constinit thread_local ThreadRing *tl_ring;

/// Slow path: timestamp, per-kind counter bump, ring write.
void recordSlow(ThreadRing *ring, EventKind kind, std::int64_t a,
                std::int64_t b, std::string_view tag);

} // namespace frdetail

/**
 * Global recorder control. All static: there is one recorder per
 * process, like the logging mutex — crash diagnostics have no use
 * for a second one.
 */
class FlightRecorder
{
  public:
    /// Turn the recorder on with @p capacity events per thread ring
    /// (clamped to >= 16). Idempotent; threads still have to
    /// attachCurrentThread() before their events are kept. Also
    /// installs the util/logging.hpp hook so WSS_WARN_ONCE, panic(),
    /// fatal() and artifact writes record events.
    static void enable(std::size_t capacity = 4096);

    static bool enabled();

    /// Register the calling thread under @p label. No-op when the
    /// recorder is disabled or the thread is already attached.
    /// Cold: takes a mutex, allocates the ring.
    static void attachCurrentThread(std::string_view label);

    /// Forget this thread's ring pointer (the ring itself stays
    /// registered for post-mortems).
    static void detachCurrentThread();

    /// Registered rings, in attach order. ring(i) stays valid until
    /// resetForTesting(); readers follow the ThreadRing contract.
    static std::size_t ringCount();
    static ThreadRing *ring(std::size_t i);

    /// Process-wide events recorded of @p kind (lock-free atomics —
    /// safe to read from a signal handler).
    static std::uint64_t kindCount(EventKind kind);

    /// Seconds since enable() (0 while disabled).
    static double now();

    /// Disable, detach the calling thread, free every ring, zero the
    /// counters. Test-only: no other thread may be recording.
    static void resetForTesting();
};

/**
 * Record one event on the calling thread's ring. Disabled or
 * detached threads pay exactly one predicted branch
 * (BM_FlightRecorderDisabled).
 */
inline void
recordEvent(EventKind kind, std::int64_t a = 0, std::int64_t b = 0,
            std::string_view tag = {})
{
    if (ThreadRing *ring = frdetail::tl_ring)
        frdetail::recordSlow(ring, kind, a, b, tag);
}

/**
 * Liveness scope of one campaign cell on the calling thread: attaches
 * the thread's ring under @p label (idempotent — a thread keeps the
 * label it first attached with), sets the ring's detail, recording
 * an EventKind::Heartbeat event, and marks the ring busy; the
 * destructor marks it idle again, so a worker waiting for work never
 * reads as stalled. Cold: one per cell, never in a hot loop. No-op
 * while the recorder is disabled.
 */
class WorkerScope
{
  public:
    WorkerScope(std::string_view label, std::string_view detail);
    ~WorkerScope();
    WorkerScope(const WorkerScope &) = delete;
    WorkerScope &operator=(const WorkerScope &) = delete;

  private:
    ThreadRing *ring_ = nullptr;
};

/// Profiler integration: maintain the open-phase stack *and* record
/// a PhaseEnter/PhaseExit event. Called by Profiler::enter/exit.
inline void
recordPhaseEnter(std::string_view name)
{
    if (ThreadRing *ring = frdetail::tl_ring) {
        ring->pushPhase(name);
        frdetail::recordSlow(ring, EventKind::PhaseEnter, 0, 0, name);
    }
}

inline void
recordPhaseExit()
{
    if (ThreadRing *ring = frdetail::tl_ring) {
        ring->popPhase();
        frdetail::recordSlow(ring, EventKind::PhaseExit, 0, 0, {});
    }
}

} // namespace wss::obs

#endif // WSS_OBS_FLIGHT_RECORDER_HPP

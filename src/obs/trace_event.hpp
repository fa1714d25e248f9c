/**
 * @file
 * Chrome trace-event JSON writer (the format chrome://tracing and
 * Perfetto load natively): complete events ("X") for spans such as
 * exec::Campaign cells, instant events ("i") for point occurrences
 * such as DCN switch failures in the flow simulator, and metadata events
 * ("M") naming the process and per-worker thread tracks.
 *
 * The sink is thread-safe (appends take a mutex — it sits on the
 * per-cell boundary of the execution engine, never inside the
 * simulator's cycle loop) and the recorded *content* (names,
 * categories, args) is deterministic for a deterministic workload:
 * the same campaign records the same events at any --jobs value, only
 * timestamps and track assignment vary with scheduling.
 */

#ifndef WSS_OBS_TRACE_EVENT_HPP
#define WSS_OBS_TRACE_EVENT_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

namespace wss::obs {

/// One "args" entry of a trace event. Numeric values are emitted as
/// JSON numbers, everything else as escaped JSON strings (a
/// non-finite double becomes its text, e.g. "inf": JSON has no
/// literal for it).
struct TraceArg
{
    std::string key;
    std::variant<std::string, double, std::int64_t> value;

    static TraceArg str(std::string key, std::string value);
    static TraceArg num(std::string key, double value);
    static TraceArg num(std::string key, std::int64_t value);
};

/**
 * Collects trace events and serializes them as a JSON object
 * (`{"traceEvents": [...]}`). Timestamps are microseconds on
 * whatever clock the caller uses; nowMicros() offers elapsed-µs
 * since sink construction for wall-clock spans, while simulated-time
 * events (fault injection) pass cycles directly.
 */
class TraceEventSink
{
  public:
    TraceEventSink();

    /// Elapsed microseconds since this sink was constructed.
    std::int64_t nowMicros() const;

    /// A span: [ts_us, ts_us + dur_us) on track @p tid.
    void complete(std::string name, std::string category, int tid,
                  std::int64_t ts_us, std::int64_t dur_us,
                  std::vector<TraceArg> args = {});

    /// A point event at @p ts_us on track @p tid.
    void instant(std::string name, std::string category, int tid,
                 std::int64_t ts_us, std::vector<TraceArg> args = {});

    /// A counter sample ("C"): Perfetto renders successive samples of
    /// the same @p name as a time series — used for the flow
    /// simulator's in-flight gauge and link-utilization telemetry.
    void counter(std::string name, std::string category, int tid,
                 std::int64_t ts_us, double value);

    /// Track ids handed out by allocateTrack() start here; the ids
    /// below are the callers' own (exec::Campaign uses worker slots
    /// 0..N), so allocated tracks can never collide with them.
    static constexpr int kFirstAllocatedTrack = 1000;

    /**
     * Sink-owned track allocation: the first call with a given
     * @p name claims the next free track id (kFirstAllocatedTrack
     * upward, in first-call order) and emits its thread_name
     * metadata; later calls with the same name return the same id.
     * This replaces ad-hoc per-call-site tid constants, which
     * collided as soon as two subsystems (flow + coll) logged into
     * one sink. Thread-safe.
     */
    int allocateTrack(const std::string &name);

    /// Label the process row in the viewer.
    void setProcessName(std::string name);

    /// Label track @p tid ("worker 3", "caller", ...).
    void setThreadName(int tid, std::string name);

    /// Events recorded so far (metadata included).
    std::size_t size() const;

    /**
     * Emit the whole trace as JSON: metadata events first, then all
     * other events sorted by (timestamp, record order) so the file
     * reads chronologically.
     */
    void write(std::ostream &os) const;

    /// write() to @p path, flushing and error-checking before
    /// returning; fatal() on I/O failure (after the stream is
    /// closed, so no partial artifact survives unnoticed).
    void writeFile(const std::string &path) const;

  private:
    struct Event
    {
        // X = complete, i = instant, C = counter, M = metadata
        char phase = 'X';
        std::string name;
        std::string category;
        int tid = 0;
        std::int64_t ts = 0;
        std::int64_t dur = 0;
        std::vector<TraceArg> args;
        std::uint64_t seq = 0; // stable tie-break for sorting
    };

    void push(Event event);

    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::uint64_t next_seq_ = 0;
    std::map<std::string, int> tracks_;
    std::chrono::steady_clock::time_point epoch_;
};

} // namespace wss::obs

#endif // WSS_OBS_TRACE_EVENT_HPP

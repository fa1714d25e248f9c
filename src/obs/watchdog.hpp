/**
 * @file
 * Liveness watchdog and live progress for long-running campaigns.
 *
 * The watchdog reads the flight-recorder rings (obs::FlightRecorder);
 * it keeps no per-thread state of its own. A campaign worker holds an
 * obs::WorkerScope for each cell, which marks its ring busy and names
 * the design point; simulateFlows, the coll:: execution loops and the
 * cycle-accurate simulator record epoch events as they go, and every
 * event refreshes the ring's last-event time. Two consumers ride on
 * that data:
 *
 *   - a monitor thread (Watchdog::start with a stall timeout) that
 *     detects a busy ring whose last event has gone stale, dumps
 *     every ring's state and tail to stderr, and panic()s with the
 *     culprit named — so a hung 10k-job campaign produces a diagnosis
 *     (and, with obs::CrashDump installed, a crash.json post-mortem)
 *     instead of sitting silent forever;
 *   - a `--progress` status line (jobs done/total, percent, ETA,
 *     per-worker current design point), re-rendered in place on
 *     stderr at a fixed period.
 *
 * Liveness costs nothing beyond the recorder's own contract: with the
 * recorder disabled every call site is one predicted branch, and the
 * watchdog never influences results — runs are bit-identical with it
 * on or off.
 *
 * Stall detection itself is testable without dying:
 * Watchdog::checkStalls() returns the culprit description (empty
 * when everything is live) and is what the monitor thread calls
 * before escalating to panic().
 */

#ifndef WSS_OBS_WATCHDOG_HPP
#define WSS_OBS_WATCHDOG_HPP

#include <cstdint>
#include <string>

namespace wss::obs {

class Watchdog
{
  public:
    /// Campaign progress for the status line: total cells in the
    /// current run, and completions as they happen.
    static void setProgressTotal(std::uint64_t total);
    static void addProgressDone(std::uint64_t n = 1);
    static std::uint64_t progressTotal();
    static std::uint64_t progressDone();

    /**
     * Start the monitor thread. @p stall_timeout_s > 0 arms stall
     * detection: a *busy* ring whose last event is older than the
     * timeout triggers a diagnostic dump and panic() naming the
     * culprit. @p progress additionally re-renders the status line
     * on stderr every @p progress_period_s. Enables the flight
     * recorder (default capacity) if it is off. No-op if already
     * running.
     */
    static void start(double stall_timeout_s, bool progress,
                      double progress_period_s = 0.5);

    /// Join the monitor thread and erase the progress line.
    static void stop();

    /**
     * The monitor's core, exposed for tests: the description of the
     * first busy ring whose last event is older than
     * @p stall_timeout_s ("worker-3: no progress for 1.20 s (timeout
     * 1.00 s) while on 'fig21 rep 2 rate 0.8'"), or "" when every
     * busy ring is live.
     */
    static std::string checkStalls(double stall_timeout_s);

    /// The status line ("jobs 12/40 (30%) eta 42s | ..."), without
    /// the leading carriage return.
    static std::string renderProgressLine();

    /// Stop the monitor and zero the progress counters. Test-only.
    static void resetForTesting();
};

} // namespace wss::obs

#endif // WSS_OBS_WATCHDOG_HPP

/**
 * @file
 * Deliberately-dying helper behind the observability smokes (ctest +
 * tools/check.sh).
 *
 * The doomed scenario runs in a fork()ed child with the full
 * observability stack wired up (flight recorder + crash dump + for
 * the stall mode a watchdog); the parent then verifies the child
 * died the *expected* way and — when a dump path was given — left a
 * crash.json behind. The helper itself exits 0 only when the death
 * matched, so ctest never has to reason about WILL_FAIL semantics
 * for signal deaths.
 *
 *   obs_crash_helper --mode panic --crash-dump crash.json
 *       child panic()s mid-"campaign": the logging hook writes the
 *       dump, abort() raises SIGABRT.
 *   obs_crash_helper --mode fatal --crash-dump crash.json
 *       child fatal()s: dump written, exit(1).
 *   obs_crash_helper --mode segv --crash-dump crash.json
 *       child dereferences nullptr: the async-signal-safe SIGSEGV
 *       handler writes the dump and re-raises.
 *   obs_crash_helper --mode stall --watchdog-timeout 0.2
 *       child marks its ring busy, then sleeps without recording:
 *       the watchdog monitor dumps its diagnosis and panic()s
 *       naming the culprit.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/crash_dump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"

namespace {

using namespace wss;

/// The child's half: set up the stack, then die as asked. Only
/// returns (0) on an unknown mode, which the parent reports as a
/// failure.
int
runDoomed(const std::string &mode, const std::string &crash_path,
          double stall_timeout_s)
{
    obs::FlightRecorder::enable(128);
    obs::FlightRecorder::attachCurrentThread(mode == "stall" ? "sleeper"
                                                             : "main");
    if (!crash_path.empty()) {
        obs::CrashDump::install(crash_path);
        obs::CrashDump::setTool("obs_crash_helper " + mode);
        obs::CrashDump::setIdentity(0x0b5c4a54ull);
    }
    // A plausible mid-campaign state for the post-mortem to capture.
    obs::recordEvent(obs::EventKind::JobStart, 1, 0, "doomed-job");
    obs::recordEvent(obs::EventKind::DesignPoint, 0, 2, "rate 0.9");
    obs::recordPhaseEnter("campaign");
    obs::recordPhaseEnter("cell");

    if (mode == "panic")
        panic("obs_crash_helper: deliberate panic");
    if (mode == "fatal")
        fatal("obs_crash_helper: deliberate fatal");
    if (mode == "segv") {
        volatile int *p = nullptr;
        return *p; // SIGSEGV -> CrashDump handler -> re-raise
    }
    if (mode == "stall") {
        const obs::WorkerScope busy("sleeper",
                                    "sleeping instead of working");
        obs::Watchdog::start(stall_timeout_s, false, 0.01);
        // Records nothing more: the monitor thread must notice within
        // the (sub-second) timeout and abort the process.
        std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    std::fprintf(stderr, "obs_crash_helper: unknown --mode '%s'\n",
                 mode.c_str());
    return 0;
}

bool
looksLikeJson(const std::string &path)
{
    std::ifstream in(path);
    char first = '\0';
    in >> first;
    return in.good() && first == '{';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode;
    std::string crash_path;
    double stall_timeout_s = 0.2;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--mode") == 0)
            mode = argv[i + 1];
        else if (std::strcmp(argv[i], "--crash-dump") == 0)
            crash_path = argv[i + 1];
        else if (std::strcmp(argv[i], "--watchdog-timeout") == 0)
            stall_timeout_s = util::parsePositiveSeconds(
                argv[i + 1], "--watchdog-timeout");
    }
    if (mode.empty()) {
        std::fprintf(stderr,
                     "usage: obs_crash_helper --mode "
                     "panic|fatal|segv|stall [--crash-dump c.json] "
                     "[--watchdog-timeout 0.2]\n");
        return 2;
    }
    if (!crash_path.empty())
        std::remove(crash_path.c_str());

    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("obs_crash_helper: fork");
        return 2;
    }
    if (pid == 0)
        _exit(runDoomed(mode, crash_path, stall_timeout_s));

    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
        std::perror("obs_crash_helper: waitpid");
        return 2;
    }

    bool died_right = false;
    if (mode == "fatal")
        died_right = WIFEXITED(status) && WEXITSTATUS(status) == 1;
    else if (mode == "segv")
        died_right =
            WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV;
    else // panic / stall end in panic() -> abort()
        died_right =
            WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
    if (!died_right) {
        std::fprintf(stderr,
                     "obs_crash_helper: child did not die as expected "
                     "for mode '%s' (status 0x%x)\n",
                     mode.c_str(), status);
        return 1;
    }
    if (!crash_path.empty() && !looksLikeJson(crash_path)) {
        std::fprintf(stderr,
                     "obs_crash_helper: expected crash dump '%s' is "
                     "missing or not JSON\n",
                     crash_path.c_str());
        return 1;
    }
    std::printf("obs_crash_helper: mode %s died as expected%s%s\n",
                mode.c_str(),
                crash_path.empty() ? "" : ", crash dump at ",
                crash_path.c_str());
    return 0;
}

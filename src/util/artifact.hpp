/**
 * @file
 * Flush-checked artifact file writing.
 *
 * fatal() terminates via exit(1) without unwinding the stack, so an
 * `std::ofstream` open in an enclosing scope never runs its
 * destructor and silently drops buffered data — the classic way a
 * campaign dies mid-run and leaves a truncated CSV that *looks*
 * complete. writeArtifactFile() closes the sandwich: open, write,
 * flush, close, and only then check the stream — any failure is a
 * fatal() *after* the data that could be saved has been saved.
 */

#ifndef WSS_UTIL_ARTIFACT_HPP
#define WSS_UTIL_ARTIFACT_HPP

#include <charconv>
#include <fstream>
#include <string>

#include "util/logging.hpp"

namespace wss::util {

/**
 * Open @p path, run @p writer on the stream, then flush, close and
 * verify. fatal() with @p what in the message if the file cannot be
 * opened or any write failed.
 */
template <typename Writer>
void
writeArtifactFile(const std::string &path, std::string_view what,
                  Writer &&writer)
{
    std::ofstream os(path);
    if (!os)
        fatal(what, ": cannot open '", path, "' for writing");
    writer(os);
    os.flush();
    const bool ok = os.good();
    os.close();
    if (!ok || !os)
        fatal(what, ": error writing '", path, "' (disk full?)");
    detail::notifyLogEvent(detail::LogEvent::Artifact, path.c_str());
}

/// Shortest round-trip decimal form of @p v: the number format of
/// the telemetry CSVs, bit-identical across runs and lossless to
/// parse back.
inline std::string
formatDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

} // namespace wss::util

#endif // WSS_UTIL_ARTIFACT_HPP

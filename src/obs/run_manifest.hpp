/**
 * @file
 * Run provenance manifests.
 *
 * Every artifact-producing entry point (wss subcommands, the bench
 * binaries, campaigns) can write one RunManifest next to its
 * artifacts: the full resolved configuration, the base seed, the
 * worker count, build flags, per-phase wall times from the Profiler,
 * and an inventory of every artifact written with content hash and
 * byte size. `wss report` consumes the manifest to find and verify a
 * run's artifacts; tools/bench_compare.py reads it to prove two bench
 * reports came from the same configuration.
 *
 * The manifest splits into two parts:
 *
 *   - the *identity* (tool, config, seed, jobs, artifact kinds +
 *     content hashes) is timestamp-free and canonically serialized,
 *     so two identical runs produce byte-identical identity sections
 *     and equal identityHash() values (ctest-asserted);
 *   - the *timing* section (per-phase wall seconds) varies run to
 *     run and is excluded from the hash.
 *
 * Hashing is FNV-1a 64 over artifact bytes — not cryptographic, but
 * collisions here would only misreport provenance, and the stdlib
 * offers nothing better without new dependencies.
 */

#ifndef WSS_OBS_RUN_MANIFEST_HPP
#define WSS_OBS_RUN_MANIFEST_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wss::obs {

class Profiler;

/// One artifact the run wrote, identified by content.
struct ManifestArtifact
{
    /// Path as recorded (not part of the identity — the same run in
    /// a different directory is still the same run).
    std::string path;
    /// What the artifact is ("campaign-json", "trace",
    /// "flow-telemetry", ...); free-form but stable per writer.
    std::string kind;
    /// Content size in bytes.
    std::uint64_t bytes = 0;
    /// FNV-1a 64 of the content.
    std::uint64_t hash = 0;
};

/// One aggregated phase timing carried into the manifest.
struct ManifestPhase
{
    /// '/'-joined Profiler path.
    std::string path;
    std::int64_t calls = 0;
    double seconds = 0.0;
};

/**
 * Provenance of one run. Build it as the run goes (config first,
 * artifacts as they are written, timings last) and writeJsonFile()
 * after the final artifact so the inventory is complete.
 */
class RunManifest
{
  public:
    /// @p tool names the entry point ("wss coll", "bench_coll", ...).
    /// Build mode and compiler are recorded automatically.
    explicit RunManifest(std::string tool);

    /// Record one resolved configuration entry. Values are strings;
    /// numeric overloads format at full precision. Keys are unique —
    /// setting one twice overwrites (last resolved value wins).
    void setConfig(const std::string &key, std::string value);
    void setConfig(const std::string &key, std::int64_t value);
    void setConfig(const std::string &key, double value);

    /// Base RNG seed of the run.
    void setSeed(std::uint64_t seed);

    /// Resolved worker-thread count (WSS_JOBS / --jobs).
    void setJobs(int jobs);

    /// Inventory @p path (reading and hashing its current content);
    /// fatal() when the file cannot be read — an artifact that was
    /// claimed but not written is a provenance lie.
    void addArtifact(const std::string &path, std::string kind);

    /// Record one phase wall time directly (for runs without a
    /// Profiler).
    void addPhaseSeconds(const std::string &path, double seconds,
                         std::int64_t calls = 1);

    /// Import every aggregated phase of @p profiler.
    void setProfile(const Profiler &profiler);

    const std::string &tool() const { return tool_; }
    const std::map<std::string, std::string> &
    config() const
    {
        return config_;
    }
    std::uint64_t seed() const { return seed_; }
    int jobs() const { return jobs_; }
    const std::vector<ManifestArtifact> &
    artifacts() const
    {
        return artifacts_;
    }
    const std::vector<ManifestPhase> &phases() const { return phases_; }

    /**
     * The canonical timestamp-free identity document: tool, sorted
     * config, seed, jobs, and the artifact inventory sorted by
     * (kind, hash, bytes) with paths omitted. Byte-identical across
     * identical runs.
     */
    std::string identityJson() const;

    /// FNV-1a 64 of identityJson().
    std::uint64_t identityHash() const;

    /// Full manifest: identity fields, artifact paths, and timings.
    void writeJson(std::ostream &os) const;

    /// Flush-checked file counterpart (util::writeArtifactFile).
    void writeJsonFile(const std::string &path) const;

    /// Parse a document written by writeJson(); fatal() on malformed
    /// input or a missing version marker.
    static RunManifest loadJsonFile(const std::string &path);

    /// FNV-1a 64 of @p data (the manifest's content hash function,
    /// exposed for tests and for `wss report`'s artifact check).
    static std::uint64_t hashBytes(std::string_view data);

    /// @p hash as the fixed-width "0x%016x" string manifests store:
    /// 64-bit values do not survive a round-trip through JSON numbers
    /// (doubles).
    static std::string hashText(std::uint64_t hash);

  private:
    std::string tool_;
    std::map<std::string, std::string> config_;
    std::uint64_t seed_ = 0;
    int jobs_ = 0;
    std::vector<ManifestArtifact> artifacts_;
    std::vector<ManifestPhase> phases_;
};

} // namespace wss::obs

#endif // WSS_OBS_RUN_MANIFEST_HPP

#include "obs/run_manifest.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/profiler.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wss::obs {

namespace {

/// @p text as a whole unsigned integer in @p base (a hash's "0x"
/// prefix is optional); fatal() naming @p what and @p field otherwise.
std::uint64_t
parseUnsigned(std::string_view text, int base, std::string_view what,
              const char *field)
{
    const std::string_view digits =
        base == 16 && text.starts_with("0x") ? text.substr(2) : text;
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), value, base);
    if (digits.empty() || ec != std::errc() ||
        end != digits.data() + digits.size())
        fatal(what, ": bad ", field, " '", text, "'");
    return value;
}

/// The identity section, shared verbatim between identityJson() and
/// writeJson() so the hash always covers exactly what the file says.
void
writeIdentityMembers(util::JsonWriter &json, const std::string &tool,
                     const std::map<std::string, std::string> &config,
                     std::uint64_t seed, int jobs,
                     std::vector<ManifestArtifact> artifacts,
                     bool with_paths)
{
    json.field("tool", tool)
        .field("seed", std::to_string(seed)).field("jobs", jobs)
        .key("config").beginObject(util::JsonWriter::kLinesCompact);
    for (const auto &[key, value] : config)
        json.field(key, value);
    json.end().key("artifacts").beginArray(util::JsonWriter::kLinesCompact);
    // Identity must not depend on the order artifacts were recorded
    // in (parallel writers) nor on where they live on disk.
    std::sort(artifacts.begin(), artifacts.end(),
              [](const ManifestArtifact &a, const ManifestArtifact &b) {
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return a.bytes < b.bytes;
              });
    for (const ManifestArtifact &a : artifacts) {
        json.beginObject();
        if (with_paths)
            json.field("path", a.path);
        json.field("kind", a.kind).field("bytes", a.bytes)
            .field("hash", RunManifest::hashText(a.hash)).end();
    }
    json.end();
}

} // namespace

RunManifest::RunManifest(std::string tool) : tool_(std::move(tool))
{
#ifdef NDEBUG
    config_["build.mode"] = "release";
#else
    config_["build.mode"] = "debug";
#endif
#ifdef __VERSION__
    config_["build.compiler"] = __VERSION__;
#endif
}

void
RunManifest::setConfig(const std::string &key, std::string value)
{
    config_[key] = std::move(value);
}

void
RunManifest::setConfig(const std::string &key, std::int64_t value)
{
    config_[key] = std::to_string(value);
}

void
RunManifest::setConfig(const std::string &key, double value)
{
    config_[key] = util::JsonWriter::number(value);
}

void
RunManifest::setSeed(std::uint64_t seed)
{
    seed_ = seed;
}

void
RunManifest::setJobs(int jobs)
{
    jobs_ = jobs;
}

void
RunManifest::addArtifact(const std::string &path, std::string kind)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("RunManifest: cannot read artifact '", path,
              "' for hashing (was it written?)");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string content = buffer.str();

    ManifestArtifact artifact;
    artifact.path = path;
    artifact.kind = std::move(kind);
    artifact.bytes = content.size();
    artifact.hash = hashBytes(content);
    artifacts_.push_back(std::move(artifact));
}

void
RunManifest::addPhaseSeconds(const std::string &path, double seconds,
                             std::int64_t calls)
{
    phases_.push_back({path, calls, seconds});
}

void
RunManifest::setProfile(const Profiler &profiler)
{
    phases_.clear();
    for (const auto &[path, stats] : profiler.phases())
        phases_.push_back({path, stats.calls, stats.seconds});
}

std::string
RunManifest::identityJson() const
{
    // The first member shares the '{' line: these bytes are hashed, so
    // the layout is pinned by every recorded identity_hash (e.g.
    // bench_results/BENCH_dcn.json.manifest.json's 0xba5372277ed45d3f).
    constexpr util::JsonLayout kIdentity{.lines = true,
                                         .first_on_open_line = true};
    std::ostringstream os;
    util::JsonWriter json(os);
    json.beginObject(kIdentity).field("wss_run_manifest_identity", 1);
    writeIdentityMembers(json, tool_, config_, seed_, jobs_, artifacts_,
                         /*with_paths=*/false);
    json.end();
    return os.str();
}

std::uint64_t
RunManifest::identityHash() const
{
    return hashBytes(identityJson());
}

void
RunManifest::writeJson(std::ostream &os) const
{
    util::JsonWriter json(os);
    json.beginObject(util::JsonWriter::kLines).field("wss_run_manifest", 1);
    writeIdentityMembers(json, tool_, config_, seed_, jobs_, artifacts_,
                         /*with_paths=*/true);
    json.field("identity_hash", hashText(identityHash()))
        .key("timing").beginObject(util::JsonWriter::kLines)
        .key("phases").beginArray(util::JsonWriter::kLinesCompact);
    for (const ManifestPhase &p : phases_)
        json.beginObject()
            .field("path", p.path).field("calls", p.calls)
            .field("seconds", p.seconds).end();
    json.end().end().end();
}

void
RunManifest::writeJsonFile(const std::string &path) const
{
    util::writeArtifactFile(path, "RunManifest",
                            [this](std::ostream &os) { writeJson(os); });
}

RunManifest
RunManifest::loadJsonFile(const std::string &path)
{
    const std::string what = "run manifest '" + path + "'";
    const util::JsonValue doc = util::JsonValue::parseFile(path, what);
    if (!doc.find("wss_run_manifest"))
        fatal(what, ": not a wss run manifest (missing version "
                    "marker)");

    RunManifest manifest(doc.require("tool", what).asString(what));
    manifest.config_.clear(); // loaded, not rebuilt: file wins
    for (const auto &[key, value] :
         doc.require("config", what).asObject(what))
        manifest.config_[key] = value.asString(what);

    manifest.seed_ = parseUnsigned(
        doc.require("seed", what).asString(what), 10, what, "seed");
    manifest.jobs_ = static_cast<int>(
        doc.require("jobs", what).asInteger(what + ": jobs", 0, INT_MAX));

    for (const util::JsonValue &entry :
         doc.require("artifacts", what).asArray(what)) {
        ManifestArtifact artifact;
        artifact.path = entry.require("path", what).asString(what);
        artifact.kind = entry.require("kind", what).asString(what);
        artifact.bytes = static_cast<std::uint64_t>(
            entry.require("bytes", what).asInteger(what + ": bytes", 0));
        artifact.hash = parseUnsigned(
            entry.require("hash", what).asString(what), 16, what, "hash");
        manifest.artifacts_.push_back(std::move(artifact));
    }

    if (const util::JsonValue *timing = doc.find("timing")) {
        if (const util::JsonValue *phases = timing->find("phases")) {
            for (const util::JsonValue &entry :
                 phases->asArray(what)) {
                ManifestPhase phase;
                phase.path =
                    entry.require("path", what).asString(what);
                phase.calls = entry.require("calls", what)
                                  .asInteger(what + ": calls", 0);
                phase.seconds =
                    entry.require("seconds", what).asNumber(what);
                manifest.phases_.push_back(std::move(phase));
            }
        }
    }
    return manifest;
}

std::string
RunManifest::hashText(std::uint64_t hash)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

std::uint64_t
RunManifest::hashBytes(std::string_view data)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (unsigned char c : data) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace wss::obs

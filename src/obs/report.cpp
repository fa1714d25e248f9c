#include "obs/report.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/run_manifest.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wss::obs {

namespace {

/// Directory part of @p path ("." when it has none).
std::string
dirName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Short fixed-precision number for Markdown tables.
std::string
fmt(double v, int digits = 4)
{
    std::ostringstream os;
    os << std::setprecision(digits) << v;
    return os.str();
}

/// One parsed row of a long-format telemetry CSV
/// (`record,key,scope,metric,value`).
struct CsvRow
{
    std::string record;
    std::string key;
    std::string scope;
    std::string metric;
    double value = 0.0;
};

/// Parse the repo's long-format CSVs: `#` comments and the header
/// line are skipped, short, non-numeric or non-finite rows are
/// ignored (a corrupt artifact already fails the hash check).
std::vector<CsvRow>
parseLongCsv(const std::string &content)
{
    std::vector<CsvRow> rows;
    std::istringstream is(content);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#' ||
            line.rfind("record,", 0) == 0)
            continue;
        std::array<std::string, 5> fields;
        std::size_t field = 0;
        std::size_t start = 0;
        while (field < 4) {
            const std::size_t comma = line.find(',', start);
            if (comma == std::string::npos)
                break;
            fields[field++] = line.substr(start, comma - start);
            start = comma + 1;
        }
        if (field < 4)
            continue;
        fields[4] = line.substr(start);
        double value = 0.0;
        try {
            value = std::stod(fields[4]);
        } catch (const std::exception &) {
            continue; // non-numeric value cell: not one of ours
        }
        if (!std::isfinite(value))
            continue; // nan/inf: no writer of ours emits them either
        rows.push_back(
            {fields[0], fields[1], fields[2], fields[3], value});
    }
    return rows;
}

/// One resolved artifact: the manifest entry plus what we found.
struct ResolvedArtifact
{
    ManifestArtifact entry;
    /// Where the content was actually read; empty when missing.
    std::string resolved_path;
    bool hash_ok = false;
    std::string content;
};

ResolvedArtifact
resolveArtifact(const ManifestArtifact &entry,
                const std::string &manifest_dir)
{
    ResolvedArtifact out;
    out.entry = entry;
    const std::string candidates[] = {
        entry.path,
        manifest_dir + "/" + entry.path,
        manifest_dir + "/" + baseName(entry.path),
    };
    for (const std::string &candidate : candidates) {
        std::ifstream is(candidate, std::ios::binary);
        if (!is)
            continue;
        std::ostringstream buffer;
        buffer << is.rdbuf();
        out.content = buffer.str();
        out.resolved_path = candidate;
        out.hash_ok = out.content.size() == entry.bytes &&
                      RunManifest::hashBytes(out.content) == entry.hash;
        break;
    }
    return out;
}

/// Per-window aggregate of one flow-telemetry artifact.
struct FlowWindow
{
    double started = 0, completed = 0, failed = 0;
    double in_flight_end = 0, completed_bytes = 0;
    double max_utilization = 0;
};

/// Everything the report keeps from one flow-telemetry artifact.
struct FlowView
{
    std::string name;
    /// Keyed by window index string, in numeric file order (the
    /// writer emits windows ascending, map re-sorts by int value).
    std::map<long, FlowWindow> windows;
    double total_started = 0, total_completed = 0, total_failed = 0;
    double total_completed_bytes = 0;
};

/// Per-step aggregate of one coll-telemetry artifact.
struct CollStep
{
    double start_s = 0, seconds = 0, messages = 0, failed = 0,
           bytes = 0;
};

struct CollView
{
    std::string name;
    std::map<long, CollStep> steps;
    double total_messages = 0, total_failed = 0, total_bytes = 0;
};

struct HotLink
{
    /// "<artifact basename>:<trunk scope>".
    std::string link;
    double peak_utilization = 0;
    long peak_window = 0;
    int saturated_windows = 0;
};

long
keyIndex(const std::string &key)
{
    try {
        return std::stol(key);
    } catch (const std::exception &) {
        return -1;
    }
}

/// Everything the report keeps from one crash.json post-mortem.
struct CrashThreadView
{
    std::string label;
    std::int64_t events_recorded = 0;
    std::int64_t open_phase_depth = 0;
    std::vector<std::string> open_phases;
    struct Event
    {
        double t_s = 0;
        std::string kind;
        std::int64_t a = 0, b = 0;
        std::string tag;
    };
    std::vector<Event> events;
};

struct CrashView
{
    bool present = false;
    /// Structurally sound (every expected member present and typed).
    bool well_formed = false;
    std::string problem;
    std::string reason, signal_name, tool, identity_hash;
    std::int64_t signal = 0;
    double uptime_s = 0;
    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<CrashThreadView> threads;
};

/// Parse an obs::CrashDump crash.json. fatal() on unreadable or
/// non-JSON input (the path was explicitly requested); structural
/// surprises inside valid JSON degrade to well_formed = false so the
/// crash-post-mortem health check can report them.
CrashView
parseCrashReport(const std::string &path)
{
    CrashView view;
    view.present = true;
    const util::JsonValue doc =
        util::JsonValue::parseFile(path, "crash report");
    if (doc.find("wss_crash_report") == nullptr) {
        view.problem = "missing wss_crash_report marker";
        return view;
    }
    view.reason = doc.stringOr("reason", "");
    view.signal = doc.integerOr("signal", 0);
    view.signal_name = doc.stringOr("signal_name", "");
    view.tool = doc.stringOr("tool", "");
    view.identity_hash = doc.stringOr("identity_hash", "");
    view.uptime_s = doc.numberOr("uptime_s", 0.0);
    if (const util::JsonValue *counters = doc.find("counters"))
        for (const auto &[name, value] :
             counters->asObject("crash counters"))
            view.counters.emplace_back(
                name, value.asInteger("crash counter " + name));
    const util::JsonValue *threads = doc.find("threads");
    if (threads == nullptr) {
        view.problem = "missing threads array";
        return view;
    }
    for (const util::JsonValue &t : threads->asArray("crash threads")) {
        CrashThreadView tv;
        tv.label = t.stringOr("label", "?");
        tv.events_recorded = t.integerOr("events_recorded", 0);
        tv.open_phase_depth = t.integerOr("open_phase_depth", 0);
        if (const util::JsonValue *phases = t.find("open_phases"))
            for (const util::JsonValue &p :
                 phases->asArray("crash open_phases"))
                tv.open_phases.push_back(p.asString("crash phase"));
        if (const util::JsonValue *events = t.find("events"))
            for (const util::JsonValue &e :
                 events->asArray("crash events")) {
                CrashThreadView::Event ev;
                ev.t_s = e.numberOr("t_s", 0.0);
                ev.kind = e.stringOr("kind", "?");
                ev.a = e.integerOr("a", 0);
                ev.b = e.integerOr("b", 0);
                ev.tag = e.stringOr("tag", "");
                tv.events.push_back(std::move(ev));
            }
        view.threads.push_back(std::move(tv));
    }
    view.well_formed = true;
    return view;
}

} // namespace

bool
RunReport::ok() const
{
    for (const ReportCheck &check : checks)
        if (!check.ok)
            return false;
    return true;
}

void
RunReport::writeMarkdownFile(const std::string &path) const
{
    util::writeArtifactFile(path, "RunReport markdown",
                            [this](std::ostream &os) { os << markdown; });
}

void
RunReport::writeJsonFile(const std::string &path) const
{
    util::writeArtifactFile(path, "RunReport json",
                            [this](std::ostream &os) { os << json; });
}

RunReport
buildRunReport(const ReportOptions &opts)
{
    if (opts.manifest_path.empty() && opts.crash_path.empty())
        fatal("wss report: need a manifest path (or --crash)");
    // A crashed run usually never wrote its manifest, so a
    // crash-only report is legal: manifest-backed sections collapse
    // to their empty forms and every applicable check still runs.
    RunManifest manifest{std::string()};
    if (!opts.manifest_path.empty())
        manifest = RunManifest::loadJsonFile(opts.manifest_path);
    const std::string manifest_dir = dirName(opts.manifest_path);

    CrashView crash;
    if (!opts.crash_path.empty())
        crash = parseCrashReport(opts.crash_path);

    RunReport report;

    // ---- resolve + verify artifacts -----------------------------
    std::vector<ResolvedArtifact> artifacts;
    artifacts.reserve(manifest.artifacts().size());
    std::size_t verified = 0;
    std::string first_problem;
    for (const ManifestArtifact &entry : manifest.artifacts()) {
        artifacts.push_back(resolveArtifact(entry, manifest_dir));
        const ResolvedArtifact &a = artifacts.back();
        if (a.hash_ok) {
            ++verified;
        } else if (first_problem.empty()) {
            first_problem = a.resolved_path.empty()
                                ? entry.path + " missing"
                                : entry.path + " content differs";
        }
    }
    {
        ReportCheck check;
        check.name = "artifact-hashes";
        check.ok = verified == artifacts.size();
        std::ostringstream detail;
        detail << verified << "/" << artifacts.size()
               << " artifacts verified";
        if (!check.ok)
            detail << " (" << first_problem << ")";
        check.detail = detail.str();
        report.checks.push_back(std::move(check));
    }

    // ---- parse telemetry artifacts ------------------------------
    std::vector<FlowView> flows;
    std::vector<CollView> colls;
    std::vector<HotLink> hot_links;
    int saturated_link_windows = 0;
    double peak_utilization = 0.0;

    for (const ResolvedArtifact &a : artifacts) {
        if (a.resolved_path.empty())
            continue;
        if (a.entry.kind == "flow-telemetry") {
            FlowView view;
            view.name = baseName(a.entry.path);
            std::map<std::string, HotLink> links;
            for (const CsvRow &row : parseLongCsv(a.content)) {
                if (row.record == "window") {
                    FlowWindow &w = view.windows[keyIndex(row.key)];
                    if (row.metric == "started")
                        w.started += row.value;
                    else if (row.metric == "completed")
                        w.completed += row.value;
                    else if (row.metric == "failed")
                        w.failed += row.value;
                    else if (row.metric == "in_flight_end")
                        w.in_flight_end = row.value;
                    else if (row.metric == "completed_bytes")
                        w.completed_bytes = row.value;
                } else if (row.record == "link" &&
                           row.metric == "utilization") {
                    view.windows[keyIndex(row.key)].max_utilization =
                        std::max(view.windows[keyIndex(row.key)]
                                     .max_utilization,
                                 row.value);
                    HotLink &link = links[row.scope];
                    if (row.value > link.peak_utilization) {
                        link.peak_utilization = row.value;
                        link.peak_window = keyIndex(row.key);
                    }
                    if (row.value > opts.saturation_threshold) {
                        ++link.saturated_windows;
                        ++saturated_link_windows;
                    }
                    peak_utilization =
                        std::max(peak_utilization, row.value);
                } else if (row.record == "total") {
                    if (row.metric == "started")
                        view.total_started = row.value;
                    else if (row.metric == "completed")
                        view.total_completed = row.value;
                    else if (row.metric == "failed")
                        view.total_failed = row.value;
                    else if (row.metric == "completed_bytes")
                        view.total_completed_bytes = row.value;
                }
            }
            for (auto &[scope, link] : links) {
                link.link = view.name + ":" + scope;
                hot_links.push_back(link);
            }

            // Flow conservation + windows-vs-totals reconciliation:
            // every started flow is completed or failed, and the
            // windowed series sums exactly to the run totals.
            double started = 0, completed = 0, failed = 0;
            for (const auto &[index, w] : view.windows) {
                started += w.started;
                completed += w.completed;
                failed += w.failed;
            }
            ReportCheck check;
            check.name = "flow-reconciliation (" + view.name + ")";
            check.ok = started == view.total_started &&
                       completed == view.total_completed &&
                       failed == view.total_failed &&
                       view.total_started ==
                           view.total_completed + view.total_failed;
            std::ostringstream detail;
            detail << "windows sum " << started << "/" << completed
                   << "/" << failed << " started/completed/failed; "
                   << "totals " << view.total_started << "/"
                   << view.total_completed << "/" << view.total_failed;
            check.detail = detail.str();
            report.checks.push_back(std::move(check));
            flows.push_back(std::move(view));
        } else if (a.entry.kind == "coll-telemetry") {
            CollView view;
            view.name = baseName(a.entry.path);
            for (const CsvRow &row : parseLongCsv(a.content)) {
                if (row.record == "step") {
                    CollStep &s = view.steps[keyIndex(row.key)];
                    if (row.metric == "start_s")
                        s.start_s = row.value;
                    else if (row.metric == "seconds")
                        s.seconds = row.value;
                    else if (row.metric == "messages")
                        s.messages = row.value;
                    else if (row.metric == "failed")
                        s.failed = row.value;
                    else if (row.metric == "bytes")
                        s.bytes = row.value;
                } else if (row.record == "total") {
                    if (row.metric == "messages")
                        view.total_messages = row.value;
                    else if (row.metric == "failed")
                        view.total_failed = row.value;
                    else if (row.metric == "bytes")
                        view.total_bytes = row.value;
                }
            }
            double messages = 0, failed = 0, bytes = 0;
            for (const auto &[index, s] : view.steps) {
                messages += s.messages;
                failed += s.failed;
                bytes += s.bytes;
            }
            ReportCheck check;
            check.name = "coll-reconciliation (" + view.name + ")";
            check.ok = messages == view.total_messages &&
                       failed == view.total_failed &&
                       bytes == view.total_bytes;
            std::ostringstream detail;
            detail << "per-step sums " << messages << " msgs, "
                   << failed << " failed, "
                   << util::JsonWriter::number(bytes) << " B; totals "
                   << view.total_messages << ", " << view.total_failed
                   << ", " << util::JsonWriter::number(view.total_bytes);
            check.detail = detail.str();
            report.checks.push_back(std::move(check));
            colls.push_back(std::move(view));
        }
    }

    // Saturation is informational: a hot fabric is a finding, not a
    // broken run. The check always passes; the detail carries the
    // flags.
    {
        ReportCheck check;
        check.name = "saturation";
        check.ok = true;
        std::ostringstream detail;
        if (saturated_link_windows == 0)
            detail << "no link-window above "
                   << fmt(opts.saturation_threshold, 3)
                   << " utilization (peak " << fmt(peak_utilization, 3)
                   << ")";
        else
            detail << saturated_link_windows
                   << " link-window(s) above "
                   << fmt(opts.saturation_threshold, 3) << " (peak "
                   << fmt(peak_utilization, 3) << ")";
        check.detail = detail.str();
        report.checks.push_back(std::move(check));
    }

    // The crash report validates as a report artifact: the check
    // passes when the post-mortem was structurally sound. The crash
    // itself is the *content* of the post-mortem section, not a
    // health failure of this report.
    if (crash.present) {
        ReportCheck check;
        check.name = "crash-post-mortem";
        check.ok = crash.well_formed;
        std::ostringstream detail;
        if (crash.well_formed)
            detail << "reason '" << crash.reason << "', "
                   << crash.threads.size() << " thread(s) captured";
        else
            detail << "malformed crash report (" << crash.problem
                   << ")";
        check.detail = detail.str();
        report.checks.push_back(std::move(check));
    }

    // ---- self-time phases from the manifest timing --------------
    struct PhaseRow
    {
        std::string path;
        std::int64_t calls = 0;
        double seconds = 0;
        double self_seconds = 0;
    };
    std::vector<PhaseRow> phase_rows;
    {
        std::map<std::string, double> self;
        for (const ManifestPhase &p : manifest.phases())
            self[p.path] += p.seconds;
        for (const ManifestPhase &p : manifest.phases()) {
            const std::size_t slash = p.path.rfind('/');
            if (slash == std::string::npos)
                continue;
            const auto parent = self.find(p.path.substr(0, slash));
            if (parent != self.end())
                parent->second -= p.seconds;
        }
        for (const ManifestPhase &p : manifest.phases())
            phase_rows.push_back(
                {p.path, p.calls, p.seconds,
                 std::max(self[p.path], 0.0)});
        std::sort(phase_rows.begin(), phase_rows.end(),
                  [](const PhaseRow &a, const PhaseRow &b) {
                      if (a.self_seconds != b.self_seconds)
                          return a.self_seconds > b.self_seconds;
                      return a.path < b.path;
                  });
        if (phase_rows.size() > opts.top_phases)
            phase_rows.resize(opts.top_phases);
    }

    std::sort(hot_links.begin(), hot_links.end(),
              [](const HotLink &a, const HotLink &b) {
                  if (a.peak_utilization != b.peak_utilization)
                      return a.peak_utilization > b.peak_utilization;
                  return a.link < b.link;
              });
    if (hot_links.size() > opts.top_links)
        hot_links.resize(opts.top_links);

    // ---- render Markdown ----------------------------------------
    const bool have_manifest = !opts.manifest_path.empty();
    std::string title = manifest.tool();
    if (title.empty())
        title = crash.tool.empty() ? "(unknown tool)"
                                   : crash.tool + " (crashed run)";
    const std::string identity_hash =
        RunManifest::hashText(manifest.identityHash());
    std::ostringstream md;
    md << "# wss run report: " << title << "\n\n";
    if (have_manifest) {
        md << "- identity hash: `" << identity_hash << "`\n";
        md << "- seed: " << manifest.seed() << "\n";
        md << "- jobs: " << manifest.jobs() << "\n";
    }
    md << "- health: " << (report.ok() ? "all checks passed"
                                       : "CHECKS FAILED")
       << "\n\n";

    if (have_manifest) {
        md << "## Configuration\n\n";
        md << "| key | value |\n|---|---|\n";
        for (const auto &[key, value] : manifest.config())
            md << "| " << key << " | " << value << " |\n";
        md << "\n";

        md << "## Artifacts\n\n";
        md << "| path | kind | bytes | verified |\n|---|---|---|---|\n";
        for (const ResolvedArtifact &a : artifacts)
            md << "| " << a.entry.path << " | " << a.entry.kind << " | "
               << a.entry.bytes << " | "
               << (a.hash_ok
                       ? "yes"
                       : (a.resolved_path.empty() ? "MISSING"
                                                  : "HASH MISMATCH"))
               << " |\n";
        md << "\n";
    }

    if (!phase_rows.empty()) {
        md << "## Top self-time phases\n\n";
        md << "| phase | calls | total s | self s |\n|---|---|---|---|"
              "\n";
        for (const PhaseRow &row : phase_rows)
            md << "| " << row.path << " | " << row.calls << " | "
               << fmt(row.seconds) << " | " << fmt(row.self_seconds)
               << " |\n";
        md << "\n";
    }

    if (!hot_links.empty()) {
        md << "## Hottest links\n\n";
        md << "| link | peak utilization | peak window | windows > "
           << fmt(opts.saturation_threshold, 3)
           << " |\n|---|---|---|---|\n";
        for (const HotLink &link : hot_links)
            md << "| " << link.link << " | "
               << fmt(link.peak_utilization, 3) << " | "
               << link.peak_window << " | " << link.saturated_windows
               << " |\n";
        md << "\n";
    }

    for (const FlowView &view : flows) {
        md << "## Congestion timeline: " << view.name << "\n\n";
        md << "| window | started | completed | failed | in flight | "
              "max link util |\n|---|---|---|---|---|---|\n";
        for (const auto &[index, w] : view.windows)
            md << "| " << index << " | " << w.started << " | "
               << w.completed << " | " << w.failed << " | "
               << w.in_flight_end << " | "
               << fmt(w.max_utilization, 3) << " |\n";
        md << "\n";
    }

    for (const CollView &view : colls) {
        md << "## Collective steps: " << view.name << "\n\n";
        md << "| step | start s | seconds | messages | failed | bytes "
              "|\n|---|---|---|---|---|---|\n";
        for (const auto &[index, s] : view.steps)
            md << "| " << index << " | " << fmt(s.start_s) << " | "
               << fmt(s.seconds) << " | " << s.messages << " | "
               << s.failed << " | " << fmt(s.bytes, 10) << " |\n";
        md << "\n";
    }

    if (crash.present) {
        md << "## Post-mortem\n\n";
        md << "- reason: " << (crash.reason.empty() ? "(unknown)"
                                                    : crash.reason)
           << "\n";
        md << "- signal: " << crash.signal_name << " ("
           << crash.signal << ")\n";
        if (!crash.tool.empty())
            md << "- tool: " << crash.tool << "\n";
        if (!crash.identity_hash.empty())
            md << "- config identity hash: `" << crash.identity_hash
               << "`\n";
        md << "- uptime: " << fmt(crash.uptime_s) << " s\n\n";
        if (!crash.counters.empty()) {
            md << "### Event counters\n\n";
            md << "| event | count |\n|---|---|\n";
            for (const auto &[name, count] : crash.counters)
                md << "| " << name << " | " << count << " |\n";
            md << "\n";
        }
        for (const CrashThreadView &t : crash.threads) {
            md << "### Thread " << t.label << "\n\n";
            md << "- events recorded: " << t.events_recorded << "\n";
            md << "- open phases: ";
            if (t.open_phases.empty()) {
                md << "(none)";
            } else {
                for (std::size_t p = 0; p < t.open_phases.size(); ++p)
                    md << (p ? "/" : "") << t.open_phases[p];
                const auto named =
                    static_cast<std::int64_t>(t.open_phases.size());
                if (t.open_phase_depth > named)
                    md << " (+" << t.open_phase_depth - named
                       << " deeper)";
            }
            md << "\n\n";
            if (!t.events.empty()) {
                md << "| t (s) | kind | a | b | tag |\n"
                      "|---|---|---|---|---|\n";
                const std::size_t first =
                    t.events.size() > opts.crash_events
                        ? t.events.size() - opts.crash_events
                        : 0;
                for (std::size_t e = first; e < t.events.size(); ++e) {
                    const CrashThreadView::Event &ev = t.events[e];
                    md << "| " << fmt(ev.t_s, 6) << " | " << ev.kind
                       << " | " << ev.a << " | " << ev.b
                       << " | " << ev.tag << " |\n";
                }
                md << "\n";
            }
        }
    }

    md << "## Health checks\n\n";
    md << "| check | status | detail |\n|---|---|---|\n";
    for (const ReportCheck &check : report.checks)
        md << "| " << check.name << " | "
           << (check.ok ? "ok" : "FAIL") << " | " << check.detail
           << " |\n";
    report.markdown = md.str();

    // ---- render JSON --------------------------------------------
    std::ostringstream js;
    util::JsonWriter json(js);
    json.beginObject(util::JsonWriter::kLines)
        .field("wss_run_report", 1).field("tool", manifest.tool())
        .field("identity_hash", identity_hash)
        .field("seed", std::to_string(manifest.seed()))
        .field("jobs", manifest.jobs()).field("ok", report.ok())
        .key("checks").beginArray(util::JsonWriter::kLinesCompact);
    for (const ReportCheck &check : report.checks)
        json.beginObject()
            .field("name", check.name).field("ok", check.ok)
            .field("detail", check.detail).end();
    json.end().key("phases").beginArray(util::JsonWriter::kLinesCompact);
    for (const PhaseRow &row : phase_rows)
        json.beginObject()
            .field("path", row.path).field("calls", row.calls)
            .field("seconds", row.seconds)
            .field("self_seconds", row.self_seconds).end();
    json.end().key("links").beginArray(util::JsonWriter::kLinesCompact);
    for (const HotLink &link : hot_links)
        json.beginObject()
            .field("link", link.link)
            .field("peak_utilization", link.peak_utilization)
            .field("peak_window", link.peak_window)
            .field("saturated_windows", link.saturated_windows).end();
    json.end();
    {
        double started = 0, completed = 0, failed = 0, bytes = 0;
        for (const FlowView &view : flows) {
            started += view.total_started;
            completed += view.total_completed;
            failed += view.total_failed;
            bytes += view.total_completed_bytes;
        }
        json.key("flow_totals").beginObject()
            .field("started", started).field("completed", completed)
            .field("failed", failed).field("completed_bytes", bytes).end();
    }
    {
        double messages = 0, failed = 0, bytes = 0;
        for (const CollView &view : colls) {
            messages += view.total_messages;
            failed += view.total_failed;
            bytes += view.total_bytes;
        }
        json.key("coll_totals").beginObject()
            .field("messages", messages).field("failed", failed)
            .field("bytes", bytes).end();
    }
    if (crash.present) {
        json.key("crash").beginObject()
            .field("reason", crash.reason)
            .field("signal", crash.signal)
            .field("signal_name", crash.signal_name).field("tool", crash.tool)
            .field("identity_hash", crash.identity_hash)
            .field("uptime_s", crash.uptime_s)
            .field("well_formed", crash.well_formed)
            .key("threads").beginArray();
        for (const CrashThreadView &t : crash.threads) {
            json.beginObject()
                .field("label", t.label)
                .field("events_recorded", t.events_recorded)
                .field("open_phase_depth", t.open_phase_depth)
                .key("open_phases").beginArray();
            for (const std::string &phase : t.open_phases)
                json.value(phase);
            json.end().field("events", t.events.size()).end();
        }
        json.end().end();
    }
    json.end();
    report.json = js.str();

    return report;
}

} // namespace wss::obs

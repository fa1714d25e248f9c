#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "util/logging.hpp"

namespace hostbench {

namespace {

/// Traced setup repeats: at least kMinSetups, then more while the
/// repeats took under kSetupBudget seconds, up to kMaxSetups.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 1000;
constexpr double kSetupBudget = 0.5;

/// Untraced runs spend this share of their time on setup repeats,
/// spread between cells over the whole run, so that setup_s samples
/// the same machine speed as wall_s. A burst of setups at process
/// start reads only that instant's core and neighbour load: setups of
/// tens of microseconds timed so drifted by a third between sets of
/// runs.
constexpr double kSetupShare = 0.1;

struct Tally
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
};

/// Samples and the reference digest of one cell.
struct CellRecord
{
    std::vector<double> samples;
    std::uint64_t digest = 0;
    bool seen = false;
    double work = 0.0;
};

/// Check the last execution of @p cell: every later pass must
/// reproduce the first pass's digest bit for bit.
void
checkCell(const Workload &w, std::size_t cell, CellRecord &record,
          Tally &tally)
{
    const CellCheck check = w.checkCell(cell);
    tally.attempted += check.operations;
    tally.failed += check.failed;
    if (!record.seen) {
        record.seen = true;
        record.digest = check.digest;
        record.work = check.work;
    } else if (check.digest != record.digest) {
        std::cout << "FAIL " << w.cellName(cell)
                  << ": outputs differ from the first pass\n";
        tally.failed += check.operations;
    }
}

/// Run cell @p cell once, timed, and check it.
void
runCell(Workload &w, std::size_t cell, Trace *trace, CellRecord &record,
        Tally &tally)
{
    const auto start = Clock::now();
    w.runCell(cell, trace);
    record.samples.push_back(secondsSince(start));
    checkCell(w, cell, record, tally);
}

/// Run every cell once.
void
runPass(Workload &w, Trace *trace, std::vector<CellRecord> &records,
        Tally &tally)
{
    for (std::size_t c = 0; c < w.cellCount(); ++c)
        runCell(w, c, trace, records[c], tally);
}

/// Sum over cells of each cell's median sample: one pass's seconds.
double
passSeconds(const std::vector<CellRecord> &records)
{
    double total = 0.0;
    for (const CellRecord &r : records)
        total += median(r.samples);
    return total;
}

/// Repeat traced setups and append each repeat's per-layer values to
/// @p layers.
void
traceSetups(Workload &w, std::vector<LayerValues> &layers)
{
    const auto start = Clock::now();
    while (layers.size() < kMinSetups ||
           (layers.size() < kMaxSetups &&
            secondsSince(start) < kSetupBudget)) {
        Trace trace;
        w.setup(&trace);
        layers.push_back(w.setupLayers(trace));
    }
}

/// Untraced setup repeats until their total reaches @p budget seconds
/// (at least one, at most kMaxSetups), appending each repeat's seconds
/// to @p times; returns the seconds spent.
///
/// Each repeat rebuilds the inputs the next cells run on; the digest
/// check of later passes shows that it rebuilds them alike. The cap
/// keeps @p times small: a sample vector grown past glibc's 128 KiB
/// mmap threshold and freed raises that threshold, the fabric's
/// buffers then land on the heap, and peak_rss_mb wanders by
/// megabytes.
double
timeSetups(Workload &w, double budget, std::vector<double> &times)
{
    double spent = 0.0;
    std::size_t repeats = 0;
    do {
        const auto t0 = Clock::now();
        w.setup(nullptr);
        times.push_back(secondsSince(t0));
        spent += times.back();
    } while (spent < budget && ++repeats < kMaxSetups);
    return spent;
}

/// Per-key median over several traced setups or passes.
LayerValues
medianLayers(const std::vector<LayerValues> &runs)
{
    std::map<std::string, std::vector<double>> values;
    for (const LayerValues &run : runs)
        for (const auto &[name, value] : run)
            values[name].push_back(value);
    LayerValues out;
    for (auto &[name, samples] : values)
        out[name] = median(samples);
    return out;
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss
/// would also count the parent's RSS inherited across fork/exec.
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    wss::fatal("hostbench: no VmHWM in /proc/self/status");
}

void
printCells(const Workload &w, const std::vector<CellRecord> &records,
           const char *label)
{
    for (std::size_t c = 0; c < records.size(); ++c) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "  %-8s %-40s median %.6f s over %zu samples\n",
                      label, w.cellName(c).c_str(),
                      median(records[c].samples),
                      records[c].samples.size());
        std::cout << line;
    }
}

std::uint64_t
combinedDigest(const std::vector<CellRecord> &records)
{
    Digest d;
    for (const CellRecord &r : records)
        d.add(r.digest);
    return d.value();
}

void
printDigest(const std::string &workload, std::uint64_t seed,
            std::uint64_t digest)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::cout << "digest " << workload << " seed " << seed << " " << hex
              << "\n";
}

/// The last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: value}}. Units come from BENCHMARK.json (run.py).
void
printResult(const Tally &tally, const LayerValues &metrics)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    bool finite = true;
    for (const auto &[name, value] : metrics)
        finite = finite && std::isfinite(value);
    os << "{\"correct\": "
       << (tally.failed == 0 && finite ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, value] : metrics) {
        os << sep << "\"" << name << "\": "
           << (std::isfinite(value) ? value : 0.0);
        sep = ", ";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/// --trace 0: the end-to-end metrics of one workload.
int
runEndToEnd(const Options &options)
{
    const auto w = makeWorkload(options.workload, options);
    // The first setup, untimed, also warms files and caches.
    w->setup(nullptr);

    const std::size_t n = w->cellCount();
    std::vector<CellRecord> records(n);
    std::vector<double> setups;
    double setup_spent = 0.0;
    Tally tally;
    const auto start = Clock::now();
    bool done = false;
    std::size_t passes = 0;
    while (!done) {
        for (std::size_t c = 0; c < n && !done; ++c) {
            runCell(*w, c, nullptr, records[c], tally);
            setup_spent += timeSetups(
                *w, kSetupShare * secondsSince(start) - setup_spent,
                setups);
            done = secondsSince(start) >= options.seconds &&
                   (passes > 0 || c + 1 == n);
        }
        ++passes;
    }
    const double setup_s = median(setups);

    double work = 0.0;
    for (const CellRecord &r : records)
        work += r.work;
    const double wall_s = passSeconds(records);

    std::cout << "hostbench " << options.workload << " seed "
              << options.seed << ": " << n << " cells, " << passes
              << " passes, setup " << setup_s << " s (median of "
              << setups.size() << ")\n";
    printCells(*w, records, "cell");
    std::cout << "  " << w->workUnit() << " per pass: " << work
              << ", per second: " << work / wall_s << "\n";
    printDigest(options.workload, options.seed, combinedDigest(records));

    printResult(tally, {{"wall_s", wall_s},
                        {"setup_s", setup_s},
                        {"peak_rss_mb", peakRssMb()},
                        {"ops_per_s", work / wall_s}});
    return 0;
}

/// --trace 1: per-layer metrics of every workload's layers, plus the
/// tracing overhead of the named workload.
int
runTraced(const Options &options)
{
    LayerValues layers;
    Tally tally;
    double overhead = 0.0;
    for (const std::string &name : workloadNames()) {
        const auto w = makeWorkload(name, options);
        std::vector<LayerValues> setup_layers;
        traceSetups(*w, setup_layers);
        for (const auto &[key, value] : medianLayers(setup_layers))
            layers[key] = value;

        const std::size_t n = w->cellCount();
        std::vector<CellRecord> plain(n), traced(n);
        std::vector<LayerValues> pass_layers;
        const auto start = Clock::now();
        do {
            // The named workload alternates untraced and traced
            // passes for the whole run to measure the overhead; the
            // others contribute one traced pass each.
            if (name == options.workload)
                runPass(*w, nullptr, plain, tally);
            Trace trace;
            runPass(*w, &trace, traced, tally);
            pass_layers.push_back(w->passLayers(trace));
        } while (name == options.workload &&
                 secondsSince(start) < options.seconds);
        for (const auto &[key, value] : medianLayers(pass_layers))
            layers[key] = value;

        if (name == options.workload) {
            overhead = passSeconds(traced) / passSeconds(plain);
            std::cout << "hostbench " << name << " seed " << options.seed
                      << " traced: " << pass_layers.size()
                      << " traced passes, overhead " << overhead << "\n";
            printCells(*w, plain, "plain");
            printCells(*w, traced, "traced");
            printDigest(name, options.seed, combinedDigest(traced));
            // Tracing must not change a single simulated output.
            if (combinedDigest(traced) != combinedDigest(plain)) {
                std::cout << "FAIL " << name
                          << ": traced outputs differ from untraced\n";
                ++tally.failed;
            }
        }
    }
    layers["obs.trace_overhead"] = overhead;
    printResult(tally, layers);
    return 0;
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (v >> (8 * i)) & 0xffu;
        hash_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

double
Trace::spanSeconds(std::string_view call, std::string_view tag) const
{
    double total = 0.0;
    for (const Span &s : spans)
        if (s.call == call && (tag.empty() || s.tag == tag))
            total += s.seconds;
    return total;
}

std::vector<double>
Trace::spanDurations(std::string_view call) const
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (s.call == call)
            out.push_back(s.seconds);
    return out;
}

Span::Span(Trace *trace, std::string call, std::string tag)
    : trace_(trace)
{
    if (!trace_)
        return;
    call_ = std::move(call);
    tag_ = std::move(tag);
    start_ = Clock::now();
}

Span::~Span()
{
    if (trace_)
        trace_->spans.push_back(
            {std::move(call_), std::move(tag_), secondsSince(start_)});
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "dcn-websearch", "coll-512", "fabric-sweep", "paper-solver"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &options)
{
    if (name == "dcn-websearch")
        return makeDcnWebsearch(options);
    if (name == "coll-512")
        return makeColl512(options);
    if (name == "fabric-sweep")
        return makeFabricSweep(options);
    if (name == "paper-solver")
        return makePaperSolver(options);
    wss::fatal("hostbench: unknown workload '", name, "'");
}

int
runBenchmark(const Options &options)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end())
        wss::fatal("hostbench: unknown workload '", options.workload, "'");
    return options.trace ? runTraced(options) : runEndToEnd(options);
}

} // namespace hostbench

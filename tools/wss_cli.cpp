/**
 * @file
 * `wss` — command-line front end to the waferscale-switch models.
 *
 * kCommands (at the end of the file) lists the subcommands and their
 * flag tables; `wss <subcommand> --help` prints one table.
 */

#include <climits>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coll/campaign.hpp"
#include "coll/plan.hpp"
#include "core/radix_solver.hpp"
#include "exec/campaign.hpp"
#include "fault/resilience.hpp"
#include "flow/dcn_campaign.hpp"
#include "flow/design_pair.hpp"
#include "obs/crash_dump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/run_manifest.hpp"
#include "obs/trace_event.hpp"
#include "obs/watchdog.hpp"
#include "sim/load_sweep.hpp"
#include "sysarch/cooling_loop.hpp"
#include "sysarch/enclosure.hpp"
#include "sysarch/power_delivery.hpp"
#include "tech/yield.hpp"
#include "topology/clos.hpp"
#include "trace/generators.hpp"
#include "util/artifact.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

using namespace wss;

/// One flag of a subcommand: its name (without "--"), whether it
/// takes a value, and its help line.
struct Flag
{
    const char *name;
    bool takes_value;
    const char *help;
};
constexpr bool kValue = true;
constexpr bool kSwitch = false;

using FlagGroup = std::vector<Flag>;

class Args;

/// One subcommand: its flag table (a list of groups, each printed as
/// one block by --help) and the function that runs it.
struct Command
{
    const char *name;
    const char *summary;
    std::vector<const FlagGroup *> groups;
    int (*run)(const Args &);

    const Flag *
    find(const std::string &name) const
    {
        for (const FlagGroup *group : groups)
            for (const Flag &flag : *group)
                if (name == flag.name)
                    return &flag;
        return nullptr;
    }
};

/**
 * The flags of one `wss <command>` invocation, checked against the
 * command's table before any work runs: an unknown flag, a value
 * given to a switch, a malformed --seed or --jobs is a fatal() naming
 * the flag. A value-taking flag given without a value reads as "".
 */
class Args
{
  public:
    Args(int argc, char **argv, const Command &cmd)
    {
        for (int i = 2; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                fatal("unexpected argument '", key,
                      "' (flags look like --key value)");
            key = key.substr(2);
            const Flag *flag = cmd.find(key);
            if (flag == nullptr && key != "help")
                fatal("wss ", cmd.name, ": unknown flag --", key,
                      " (see `wss ", cmd.name, " --help`)");
            const bool valued =
                i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
            if (valued && (flag == nullptr || !flag->takes_value))
                fatal("wss ", cmd.name, ": --", key,
                      " takes no value (got '", argv[i + 1], "')");
            values_[key] = valued ? argv[++i] : "";
        }
        // Strict by contract (same as WSS_JOBS): a seed or worker
        // count silently coerced would poison every artifact.
        if (has("seed"))
            seed_ = static_cast<std::uint64_t>(
                util::parsePositiveInt(str("seed", ""), "--seed"));
        if (has("jobs"))
            jobs_ = static_cast<int>(
                util::parsePositiveInt(str("jobs", ""), "--jobs", 4096));
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) > 0;
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /// Flag @p key as a whole-string finite decimal; fatal() naming
    /// the flag on anything else ("0.3abc", "nan", "1e999").
    double
    num(const std::string &key, double fallback) const
    {
        const auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : util::parseFiniteNumber(it->second,
                                             ("--" + key).c_str());
    }

    /// Flag @p key as a whole-string integer; fatal() naming the flag
    /// on anything else ("2x", "1e5", 20 digits).
    long long
    integer(const std::string &key, long long fallback) const
    {
        const auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : util::parseInteger(it->second, ("--" + key).c_str());
    }

    /// --seed (default 1).
    std::uint64_t seed() const { return seed_; }

    /// --jobs (default: exec::ThreadPool::defaultThreads()).
    int
    jobs() const
    {
        return jobs_ > 0 ? jobs_ : exec::ThreadPool::defaultThreads();
    }

    /// Every flag as given, for provenance manifests.
    const std::map<std::string, std::string> &
    all() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::uint64_t seed_ = 1;
    int jobs_ = 0;
};

/// True for flags that only say *where* outputs go: they are not
/// part of a run's identity (the same run pointed at a different
/// directory must hash identically).
bool
isOutputPathFlag(const std::string &key)
{
    return key == "csv" || key == "json" || key == "out" ||
           key == "profiles" || key == "crash-dump" ||
           (key.size() > 4 &&
            key.compare(key.size() - 4, 4, "-out") == 0);
}

/**
 * The observability session of one campaign-shaped subcommand (sim /
 * sweep / resilience / dcn / coll): the one place `wss` handles the
 * flags of kObsFlags and owns the state behind them. The manifest
 * records every non-output flag, the seed, the worker count, the
 * artifact inventory and the phase timings (the input to `wss
 * report`).
 *
 * The constructor validates every flag, --stats-out included, before
 * any work runs; finish() prints the profile table, writes the trace
 * and then the manifest. --crash-dump, --watchdog and --progress all
 * imply the flight recorder: their dumps and status lines read its
 * rings. All of it is passive — results are bit-identical with the
 * recorder on or off (asserted by test_obs).
 */
class ObsSession
{
  public:
    ObsSession(const Args &args, std::string tool, std::uint64_t seed,
               int jobs)
        : args_(args), tool_(std::move(tool)), seed_(seed), jobs_(jobs),
          tracing_(args.has("trace-out"))
    {
        for (const char *flag :
             {"trace-out", "manifest-out", "stats-out", "crash-dump"})
            if (args.has(flag) && args.str(flag, "").empty())
                fatal(tool_, ": --", flag, " needs a file path");
        double timeout = 0.0;
        if (args.has("watchdog"))
            timeout = util::parsePositiveSeconds(
                args.str("watchdog", ""), "--watchdog");
        const bool progress = args.has("progress");
        if (tracing_)
            trace_.setProcessName(tool_);

        if (!args.has("flight-recorder") && !args.has("crash-dump") &&
            !args.has("watchdog") && !progress)
            return;
        std::size_t capacity = 4096;
        if (!args.str("flight-recorder", "").empty())
            capacity = static_cast<std::size_t>(util::parsePositiveInt(
                args.str("flight-recorder", ""), "--flight-recorder"));
        obs::FlightRecorder::enable(capacity);
        // Main mostly waits on workers; its ring is busy only while
        // it runs a cell itself, so a long fan-out never reads as a
        // main-thread stall.
        obs::FlightRecorder::attachCurrentThread("main");

        if (args.has("crash-dump")) {
            // The dump carries the *configuration* identity (flags +
            // seed + jobs): a crashed run never wrote its manifest,
            // so this hash is what links the post-mortem back to the
            // design point that died.
            obs::CrashDump::install(args.str("crash-dump", ""));
            obs::CrashDump::setTool(tool_);
            obs::CrashDump::setIdentity(identity().identityHash());
        }
        if (args.has("watchdog") || progress) {
            obs::Watchdog::start(timeout, progress);
            monitoring_ = true;
        }
    }

    ~ObsSession()
    {
        if (monitoring_)
            obs::Watchdog::stop();
    }

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    obs::Profiler &profiler() { return profiler_; }

    /// The trace sink, or null without --trace-out.
    obs::TraceEventSink *sink() { return tracing_ ? &trace_ : nullptr; }

    /// Note one written artifact for the manifest inventory.
    void
    note(const std::string &path, const std::string &kind)
    {
        artifacts_.emplace_back(path, kind);
    }

    /// --csv / --json: write @p result's tables, flush-checked, as
    /// artifacts of kind "<kind>-csv" / "<kind>-json".
    template <typename Result>
    void
    writeResults(const Result &result, const std::string &kind)
    {
        if (args_.has("csv")) {
            const std::string path = args_.str("csv", "");
            util::writeArtifactFile(path, kind, [&](std::ostream &os) {
                result.writeCsv(os);
            });
            note(path, kind + "-csv");
            std::cout << "CSV written to " << path << "\n";
        }
        if (args_.has("json")) {
            const std::string path = args_.str("json", "");
            util::writeArtifactFile(path, kind, [&](std::ostream &os) {
                result.writeJson(os);
            });
            note(path, kind + "-json");
            std::cout << "JSON written to " << path << "\n";
        }
    }

    /// The shared tail: --profile table, then the trace (with the
    /// profile laid out as spans on its own track), then the
    /// manifest, so the manifest's inventory covers the trace.
    void
    finish()
    {
        if (args_.has("profile"))
            profiler_.writeSummary(std::cout);
        if (tracing_) {
            if (!profiler_.phases().empty())
                profiler_.addToTrace(trace_,
                                     trace_.allocateTrack("profile"));
            const std::string path = args_.str("trace-out", "");
            trace_.writeFile(path);
            note(path, "trace");
            std::cout << "trace written to " << path << " ("
                      << trace_.size()
                      << " events; open in Perfetto / chrome://tracing)\n";
        }
        if (args_.has("manifest-out")) {
            const std::string path = args_.str("manifest-out", "");
            obs::RunManifest manifest = identity();
            for (const auto &[artifact_path, kind] : artifacts_)
                manifest.addArtifact(artifact_path, kind);
            manifest.setProfile(profiler_);
            manifest.writeJsonFile(path);
            std::ostringstream hash;
            hash << std::hex << manifest.identityHash();
            std::cout << "manifest written to " << path << " (identity 0x"
                      << hash.str() << ", " << artifacts_.size()
                      << " artifacts)\n";
        }
    }

  private:
    /// A manifest holding the run's configuration identity: every
    /// non-output flag verbatim (arg.<key>), the seed and the worker
    /// count.
    obs::RunManifest
    identity() const
    {
        obs::RunManifest manifest(tool_);
        for (const auto &[key, value] : args_.all())
            if (!isOutputPathFlag(key))
                manifest.setConfig("arg." + key, value);
        manifest.setSeed(seed_);
        manifest.setJobs(jobs_);
        return manifest;
    }

    const Args &args_;
    const std::string tool_;
    const std::uint64_t seed_;
    const int jobs_;
    const bool tracing_;
    obs::Profiler profiler_;
    obs::TraceEventSink trace_;
    std::vector<std::pair<std::string, std::string>> artifacts_;
    bool monitoring_ = false;
};

/// The value named @p name among @p choices; fatal() with @p what
/// and the valid names on anything else.
template <class T>
T
choose(const std::string &what, const std::string &name,
       std::initializer_list<std::pair<const char *, T>> choices)
{
    std::string names;
    for (const auto &[key, value] : choices) {
        if (name == key)
            return value;
        names += (names.empty() ? "" : " | ") + std::string(key);
    }
    fatal(what, " '", name, "' (", names, ")");
}

/// The design point of `wss solve` / `wss plan`, and the waferscale
/// side of `wss dcn` / `wss coll`, whose tables leave out --topology,
/// --hetero and --ideal (their internal fabric is a plain Clos).
core::DesignSpec
specFromArgs(const Args &args, int default_restarts)
{
    core::DesignSpec spec;
    spec.substrate_side = args.num("substrate", 300.0);
    spec.wsi = choose<tech::WsiTechnology>(
        "unknown WSI technology", args.str("wsi", "siif2x"),
        {{"siif", tech::siIf()}, {"siif2x", tech::siIf2x()},
         {"infosow", tech::infoSow()}});
    spec.external_io = choose<tech::ExternalIoTech>(
        "unknown external I/O", args.str("ext", "optical"),
        {{"serdes", tech::serdes()}, {"optical", tech::opticalIo()},
         {"area", tech::areaIo()}});
    const int config = static_cast<int>(args.integer("ssc-config", 1));
    spec.ssc = power::tomahawk5(config);
    const int deradix = static_cast<int>(args.integer("deradix", 1));
    if (deradix > 1)
        spec.ssc = topology::deradixedSsc(spec.ssc, deradix);
    spec.cooling = choose<tech::CoolingSolution>(
        "unknown cooling", args.str("cooling", "none"),
        {{"air", tech::airCooling()}, {"water", tech::waterCooling()},
         {"multiphase", tech::multiphaseCooling()},
         {"none", tech::unlimitedCooling()}});
    spec.leaf_split = static_cast<int>(args.integer("hetero", 1));
    using core::TopologyKind;
    spec.topology = choose<TopologyKind>(
        "unknown topology", args.str("topology", "clos"),
        {{"clos", TopologyKind::Clos}, {"mesh", TopologyKind::Mesh},
         {"butterfly", TopologyKind::Butterfly},
         {"fb", TopologyKind::FlattenedButterfly},
         {"dragonfly", TopologyKind::Dragonfly}});
    spec.area_only = args.has("ideal");
    spec.mapping_restarts =
        static_cast<int>(args.integer("restarts", default_restarts));
    spec.seed = args.seed();
    return spec;
}

int
cmdSolve(const Args &args)
{
    const core::DesignSpec spec = specFromArgs(args, 4);
    const auto result = core::RadixSolver(spec).solveMaxPorts();
    const auto &best = result.best;

    Table table("wss solve — " + std::string(core::toString(
                    spec.topology)) + " on " +
                    Table::num(spec.substrate_side, 0) + " mm",
                {"metric", "value"});
    table.addRow({"max ports", Table::num(best.ports)});
    table.addRow({"SSC chiplets", Table::num(best.ssc_chiplets)});
    table.addRow({"I/O chiplets", Table::num(best.io_chiplets)});
    table.addRow({"silicon area (mm^2)",
                  Table::num(best.silicon_area, 0)});
    table.addRow({"hottest edge / capacity (Gbps)",
                  Table::num(best.max_edge_load, 0) + " / " +
                      Table::num(best.edge_capacity, 0)});
    table.addRow({"external demand / capacity (Tbps)",
                  Table::num(best.external_demand / 1000.0, 1) + " / " +
                      Table::num(best.external_capacity / 1000.0, 1)});
    table.addRow({"power (kW)",
                  Table::num(best.power.total() / 1000.0, 2)});
    table.addRow({"power density (W/mm^2)",
                  Table::num(best.power_density, 3)});
    if (result.blocking) {
        table.addRow({"next candidate blocked by",
                      std::string(core::toString(
                          result.blocking->violated))});
    }
    table.print(std::cout);
    return 0;
}

/// The fabric of kFabricFlags. Unset flags keep the fabric `wss dcn`
/// calibrates its switches on (flow::CalibrationSpec).
sim::NetworkSpec
fabricSpecFromArgs(const Args &args)
{
    sim::NetworkSpec spec = flow::CalibrationSpec().net_spec;
    const auto set = [&](const char *flag, int &field) {
        field = static_cast<int>(args.integer(flag, field));
    };
    set("vcs", spec.vcs);
    set("buffer", spec.buffer_per_port);
    set("rc-ingress", spec.rc_delay_ingress);
    set("rc-transit", spec.rc_delay_transit);
    set("pipeline", spec.pipeline_delay);
    set("io-delay", spec.terminal_link_latency);
    set("hop-delay", spec.internal_link_latency);
    spec.adaptive_routing = args.has("adaptive");
    return spec;
}

/// The phases of kPhaseFlags, defaulting like fabricSpecFromArgs().
sim::SimConfig
simConfigFromArgs(const Args &args)
{
    sim::SimConfig cfg = flow::CalibrationSpec().sim_cfg;
    cfg.warmup = args.integer("warmup", cfg.warmup);
    cfg.measure = args.integer("measure", cfg.measure);
    cfg.drain_limit = args.integer("drain", cfg.drain_limit);
    cfg.seed = args.seed();
    return cfg;
}

/// Sweep rates: --geometric gives min-rate..max-rate geometric
/// spacing, otherwise linear in (0, max-rate].
std::vector<double>
ratesFromArgs(const Args &args)
{
    const int points = static_cast<int>(args.integer("points", 9));
    const double max_rate = args.num("max-rate", 0.9);
    if (args.has("geometric"))
        return sim::geometricRates(args.num("min-rate", 0.05),
                                   max_rate, points);
    return sim::linearRates(max_rate, points);
}

/// Comma-separated "--key a,b,c" list; fatal when empty. An empty
/// item ("a,,b") is kept, so the caller's parser rejects it instead
/// of a value silently going missing.
std::vector<std::string>
listFromArgs(const Args &args, const std::string &key,
             const std::string &fallback)
{
    std::vector<std::string> items;
    std::istringstream list(args.str(key, fallback));
    std::string item;
    while (std::getline(list, item, ','))
        items.push_back(item);
    if (items.empty())
        fatal("--", key, " needs at least one value");
    return items;
}

/// The latency-vs-load table of @p sweep (offered load printed to
/// @p offered_digits), then its zero-load/saturation line, unended.
void
printSweep(const std::string &title, const sim::SweepResult &sweep,
           int offered_digits)
{
    Table table(title,
                {"offered", "accepted", "avg latency", "p99", "stable"});
    for (const auto &point : sweep.points)
        table.addRow({Table::num(point.offered, offered_digits),
                      Table::num(point.accepted, 3),
                      Table::num(point.avg_latency, 1),
                      Table::num(point.p99_latency, 1),
                      point.stable ? "yes" : "no"});
    table.print(std::cout);
    std::cout << "zero-load " << Table::num(sweep.zero_load_latency, 1)
              << " cycles, saturation "
              << Table::num(sweep.saturation_throughput, 3)
              << " flits/terminal/cycle";
}

int
cmdSim(const Args &args)
{
    const auto ports = args.integer("ports", 512);
    const std::string pattern = args.str("pattern", "uniform");
    const int packet =
        static_cast<int>(args.integer("packet-flits", 1));
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});

    const sim::NetworkSpec spec = fabricSpecFromArgs(args);
    const sim::SimConfig cfg = simConfigFromArgs(args);
    ObsSession session(args, "wss sim", cfg.seed, 1);

    const auto make_network = [&] {
        return std::make_unique<sim::Network>(topo, spec, cfg.seed);
    };
    const auto make_workload = [&](double rate) {
        return std::make_unique<sim::SyntheticWorkload>(
            sim::makeTraffic(pattern, static_cast<int>(ports)), rate,
            packet);
    };

    const auto sweep = [&] {
        obs::ScopedPhase phase(&session.profiler(), "sweep");
        return sim::sweepLoad(make_network, make_workload,
                              ratesFromArgs(args), cfg);
    }();

    printSweep("wss sim — " + pattern + " on " + Table::num(ports) +
                   " ports",
               sweep, 2);
    std::cout << "\n";

    // Observed run: one extra simulation with per-router/per-link
    // telemetry on, dumped as long-format CSV.
    if (args.has("stats-out")) {
        const std::string path = args.str("stats-out", "");
        sim::SimConfig obs_cfg = cfg;
        obs_cfg.observe = true;
        obs_cfg.observe_sample_every = args.integer("obs-sample", 0);
        const double rate =
            args.num("rate", args.num("max-rate", 0.9));

        sim::SimResult full;
        {
            obs::ScopedPhase phase(&session.profiler(), "observe");
            sim::runLoadPoint(make_network, make_workload, rate,
                              obs_cfg, &full);
        }
        full.observation->dumpCsvFile(path);
        session.note(path, "sim-observation");

        const std::uint64_t counted =
            full.observation->totalCounter("flits_delivered");
        if (counted !=
            static_cast<std::uint64_t>(full.flits_delivered))
            panic("sim: per-router flits_delivered counters (",
                  counted, ") disagree with SimResult (",
                  full.flits_delivered, ")");
        std::cout << "stats written to " << path << " (rate "
                  << Table::num(rate, 3) << ", "
                  << full.flits_delivered
                  << " flits delivered, counters reconcile)\n";
    }
    session.finish();
    return 0;
}

int
cmdSweep(const Args &args)
{
    const auto ports = args.integer("ports", 512);
    const int packet =
        static_cast<int>(args.integer("packet-flits", 1));
    const int repetitions =
        static_cast<int>(args.integer("reps", 1));
    const int jobs = args.jobs();
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});

    const sim::NetworkSpec spec = fabricSpecFromArgs(args);
    const sim::SimConfig cfg = simConfigFromArgs(args);
    const auto rates = ratesFromArgs(args);

    // One campaign job per traffic pattern; an unknown (or empty)
    // name fatal()s here, before any work runs.
    exec::Campaign campaign;
    for (const auto &pattern : listFromArgs(args, "patterns", "uniform")) {
        sim::makeTraffic(pattern, static_cast<int>(ports));
        exec::SweepJob job;
        job.make_network = [&topo, spec](std::uint64_t seed) {
            return std::make_unique<sim::Network>(topo, spec, seed);
        };
        job.make_workload = [pattern, ports,
                             packet](double rate, std::uint64_t) {
            return std::make_unique<sim::SyntheticWorkload>(
                sim::makeTraffic(pattern, static_cast<int>(ports)),
                rate, packet);
        };
        job.rates = rates;
        job.cfg = cfg;
        job.repetitions = repetitions;
        campaign.addSweep(pattern, std::move(job));
    }

    exec::ThreadPool pool(jobs);
    ObsSession session(args, "wss sweep", cfg.seed, jobs);
    const auto result =
        campaign.run(&pool, session.sink(), &session.profiler());

    for (const auto &job : result.jobs) {
        printSweep("wss sweep — " + job.name + " on " +
                       Table::num(ports) + " ports (" +
                       Table::num(static_cast<double>(
                                      job.sweep.reps.size()),
                                  0) +
                       " reps)",
                   job.sweep.combined, 3);
        std::cout << ", " << Table::num(job.seconds, 2) << " cpu-s over "
                  << job.cells << " runs\n\n";
    }
    std::cout << "campaign: " << result.jobs.size() << " jobs on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";

    session.writeResults(result, "campaign");
    session.finish();
    return 0;
}

int
cmdTrace(const Args &args)
{
    const std::string app = args.str("app", "lulesh");
    const int ranks = static_cast<int>(args.integer("ranks", 512));
    trace::GeneratorConfig gen;
    gen.iterations = static_cast<int>(args.integer("iterations", 8));
    gen.iteration_period = args.integer("period", 600);
    gen.base_message_flits =
        static_cast<int>(args.integer("message-flits", 8));
    gen.seed = args.seed();

    trace::MessageTrace trace = trace::generateMiniApp(app, ranks, gen);
    const int duplicate =
        static_cast<int>(args.integer("duplicate", 1));
    if (duplicate > 1)
        trace = trace::duplicateTrace(trace, duplicate);

    std::cout << "trace '" << trace.name << "': " << trace.ranks
              << " ranks, " << trace.events.size() << " messages, "
              << trace.totalFlits() << " flits over " << trace.span()
              << " cycles (avg load "
              << Table::num(trace.averageLoad(), 4)
              << " flits/rank/cycle)\n";
    if (args.has("out")) {
        const std::string path = args.str("out", "");
        std::ofstream os(path);
        if (!os)
            fatal("cannot open '", path, "' for writing");
        trace::saveTrace(trace, os);
        std::cout << "written to " << path << "\n";
    }
    return 0;
}

int
cmdYield(const Args &args)
{
    tech::YieldModel model;
    model.defect_density_cm2 = args.num("defects", 0.1);
    model.bond_yield = args.num("bond-yield", 0.999);

    const int sockets = static_cast<int>(args.integer("chiplets", 96));
    const double area = args.num("die-area", 800.0);

    Table table("wss yield", {"metric", "value"});
    table.addRow({"die yield (" + Table::num(area, 0) + " mm^2)",
                  Table::num(tech::dieYield(area, model), 4)});
    table.addRow({"KGD cost factor",
                  Table::num(tech::kgdCostFactor(area, model), 3)});
    for (int spares : {0, 1, 2, 4}) {
        table.addRow(
            {"system yield, " + Table::num(spares) + " spares",
             Table::num(tech::chipletSystemYield(sockets, spares, model),
                        5)});
    }
    table.addRow({"monolithic wafer (99% redundancy)",
                  Table::num(tech::monolithicWaferYield(
                                 args.num("substrate", 300.0), 0.99,
                                 model),
                             5)});
    table.print(std::cout);
    return 0;
}

/// The items of list flag --@p key, each parsed by @p parse, which
/// fatals naming the flag.
template <class Parse>
auto
numbersFromArgs(const Args &args, const std::string &key,
                const std::string &fallback, Parse parse)
{
    const std::string flag = "--" + key;
    std::vector<decltype(parse(std::string(), flag.c_str()))> values;
    for (const auto &item : listFromArgs(args, key, fallback))
        values.push_back(parse(item, flag.c_str()));
    return values;
}

/// A whole number in [0, INT_MAX], e.g. a spare count.
int
parseCount(const std::string &value, const char *what)
{
    const double v = util::parseFiniteNumber(value, what);
    if (v < 0.0 || v != std::floor(v) || v > INT_MAX)
        fatal(what, "='", value, "' is not a whole number >= 0");
    return static_cast<int>(v);
}

int
cmdResilience(const Args &args)
{
    fault::ResilienceConfig cfg;
    cfg.radices = numbersFromArgs(
        args, "ports", "256", [](const std::string &v, const char *flag) {
            return util::parsePositiveInt(v, flag);
        });
    cfg.defect_densities = numbersFromArgs(args, "densities", "0.1,0.3",
                                           util::parseFiniteNumber);
    cfg.spare_counts = numbersFromArgs(args, "spares", "0,1,2", parseCount);

    cfg.ssc = power::scaledSsc(
        static_cast<int>(args.integer("ssc-radix", 64)),
        args.num("line-rate", 200.0));
    cfg.model.yield.bond_yield = args.num("bond-yield", 0.999);
    cfg.model.test_escape = args.num("test-escape", 0.05);
    cfg.model.node_field_failure = args.num("node-fail", 0.002);
    cfg.model.link_field_failure = args.num("link-fail", 0.0005);
    cfg.samples = static_cast<int>(args.integer("samples", 500));
    cfg.sim_samples =
        static_cast<int>(args.integer("sim-samples", 0));
    cfg.sim_rate = args.num("sim-rate", 0.9);
    cfg.sim_packet_size =
        static_cast<int>(args.integer("packet-flits", 4));
    cfg.net_spec = fabricSpecFromArgs(args);
    cfg.sim_cfg = simConfigFromArgs(args);
    cfg.seed = args.seed();

    const int jobs = args.jobs();
    exec::ThreadPool pool(jobs);
    ObsSession session(args, "wss resilience", cfg.seed, jobs);
    const fault::ResilienceResult result =
        fault::ResilienceCampaign(cfg).run(&pool, session.sink(),
                                           &session.profiler());

    Table table("wss resilience — " + Table::num(cfg.samples) +
                    " maps/cell, seed " + Table::num(cfg.seed),
                {"topology", "density", "spares", "survival",
                 "E[ports]", "bisection", "analytic", "sim thr"});
    for (const auto &cell : result.cells) {
        table.addRow(
            {cell.topology, Table::num(cell.defect_density, 2),
             Table::num(cell.spares), Table::num(cell.survival, 4),
             Table::num(cell.expected_usable_ports, 1),
             Table::num(cell.mean_bisection_fraction, 4),
             Table::num(cell.analytic_bond_yield, 4),
             cell.sim_samples > 0
                 ? Table::num(cell.mean_degraded_throughput, 3) +
                       "/" + Table::num(cell.healthy_throughput, 3)
                 : "-"});
    }
    table.print(std::cout);
    std::cout << "campaign: " << result.cells.size() << " cells on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";

    session.writeResults(result, "resilience");
    session.finish();
    return 0;
}

/// Sets @p cfg.kind and @p cfg.designs, the flow::makeDesignPair() of
/// the flags; returns its spec. With --profiles, a profile is loaded
/// from `<dir>/<name>.json` when there (unless --calibrate) and written
/// there when calibrated.
template <class CampaignConfig>
flow::DesignPairSpec
setupDesignPair(const Args &args, const std::string &tool,
                exec::ThreadPool *pool, ObsSession &session,
                CampaignConfig &cfg)
{
    cfg.kind = choose<flow::DcnKind>(
        tool + ": unknown --dcn-topology",
        args.str("dcn-topology", "fat-tree"),
        {{"fat-tree", flow::DcnKind::FatTree},
         {"dragonfly", flow::DcnKind::Dragonfly}});

    flow::DesignPairSpec spec;
    spec.ws = specFromArgs(args, 2);
    spec.ws_ports = args.integer("ws-ports", 0);
    spec.conv_ports = args.integer("conv-ports", 64);
    spec.conv_ssc_radix =
        static_cast<int>(args.integer("conv-ssc-radix", 32));
    spec.calibration.ports = args.integer("cal-ports", 512);
    spec.calibration.rates = sim::geometricRates(
        args.num("min-rate", 0.05), args.num("max-rate", 0.95),
        static_cast<int>(args.integer("points", 5)));
    spec.calibration.packet_flits =
        static_cast<int>(args.integer("packet-flits", 4));
    spec.calibration.net_spec = fabricSpecFromArgs(args);
    spec.calibration.sim_cfg = simConfigFromArgs(args);

    const std::string dir = args.str("profiles", "");
    cfg.designs = flow::makeDesignPair(spec, tool, [&](const auto &cal) {
        const std::string path = dir + "/" + cal.name + ".json";
        if (!dir.empty() && !args.has("calibrate") &&
            std::ifstream(path).good()) {
            std::cout << "dcn: loading profile " << path << "\n";
            return flow::SwitchProfile::loadJsonFile(path);
        }
        std::cout << "dcn: calibrating " << cal.name << " (" << cal.ports
                  << "-port internal fabric, " << cal.rates.size()
                  << " load points)\n";
        flow::SwitchProfile profile = flow::calibrateSwitchProfile(
            cal, pool, session.sink(), &session.profiler());
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            profile.writeJsonFile(path);
            std::cout << "dcn: profile written to " << path << "\n";
        }
        return profile;
    });
    return spec;
}

int
cmdDcn(const Args &args)
{
    const int jobs = args.jobs();
    exec::ThreadPool pool(jobs);
    ObsSession session(args, "wss dcn", args.seed(), jobs);
    // Checked before the solver and calibration run.
    const std::vector<double> loads =
        numbersFromArgs(args, "loads", "0.3,0.7", util::parseFiniteNumber);

    flow::DcnCampaignConfig cfg;
    setupDesignPair(args, "dcn", &pool, session, cfg);
    cfg.hosts = args.integer("hosts", 1024);
    cfg.workloads.clear();
    for (const auto &name :
         listFromArgs(args, "workloads", "websearch"))
        cfg.workloads.push_back(flow::workloadByName(name));
    cfg.loads = loads;
    cfg.flows_per_cell = args.integer("flows", 100000);
    cfg.fault_model.node_field_failure = args.num("node-fail", 0.0);
    cfg.seed = args.seed();

    const flow::DcnCampaign campaign(cfg);
    const flow::DcnResult result =
        campaign.run(&pool, session.sink(), &session.profiler());

    Table table("wss dcn — " + Table::num(cfg.hosts) + " hosts, " +
                    Table::num(cfg.flows_per_cell) +
                    " flows/cell, seed " + Table::num(cfg.seed),
                {"design", "workload", "load", "switches", "hops",
                 "power kW", "fct p50 us", "fct p99 us", "slow p99",
                 "done/fail"});
    for (const auto &cell : result.cells) {
        table.addRow(
            {cell.design, cell.workload, Table::num(cell.load, 2),
             Table::num(cell.switches),
             Table::num(cell.worst_hops),
             Table::num(cell.power_kw, 1),
             Table::num(cell.sim.fct_p50_s * 1e6, 1),
             Table::num(cell.sim.fct_p99_s * 1e6, 1),
             Table::num(cell.sim.slowdown_p99, 2),
             Table::num(cell.sim.completed) + "/" +
                 Table::num(cell.sim.failed)});
    }
    table.print(std::cout);
    std::cout << "campaign: " << result.cells.size() << " cells on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";

    session.writeResults(result, "dcn");

    // Observed run: re-run the campaign's first cell (same flows,
    // same faults) with windowed telemetry on and dump the per-link
    // congestion timeline.
    if (args.has("stats-out")) {
        const std::string path = args.str("stats-out", "");
        flow::FlowSimConfig obs_cfg;
        obs_cfg.profiler = &session.profiler();
        obs_cfg.trace = session.sink();
        obs_cfg.trace_label = "dcn-observed";
        // Default window: ~24 buckets over the campaign's own run of
        // this cell (its duration is already known).
        const double duration = result.cells.front().sim.duration_s;
        obs_cfg.telemetry_window_s =
            args.num("telemetry-window",
                     duration > 0.0 ? duration / 24.0 : 1e-6);
        if (obs_cfg.telemetry_window_s <= 0.0)
            fatal("dcn: --telemetry-window must be positive");

        const flow::FlowSimResult observed =
            campaign.runCell(0, obs_cfg).sim;
        observed.telemetry->dumpCsvFile(path);
        session.note(path, "flow-telemetry");
        std::cout << "telemetry written to " << path << " ("
                  << observed.telemetry->windows.size()
                  << " windows of "
                  << Table::num(obs_cfg.telemetry_window_s * 1e6, 3)
                  << " us, " << observed.started << " flows)\n";
    }

    session.finish();
    return 0;
}

/// Collective name -> (collective, algorithm) for `wss coll`.
coll::CollSpec
parseCollSpec(const std::string &name)
{
    if (name == "ring")
        return {coll::Collective::AllReduce, coll::Algorithm::Ring};
    if (name == "rd" || name == "recursive-doubling")
        return {coll::Collective::AllReduce,
                coll::Algorithm::RecursiveDoubling};
    if (name == "hd" || name == "halving-doubling")
        return {coll::Collective::AllReduce,
                coll::Algorithm::HalvingDoubling};
    if (name == "tree")
        return {coll::Collective::AllReduce, coll::Algorithm::Tree};
    if (name == "alltoall" || name == "a2a")
        return {coll::Collective::AllToAll, coll::Algorithm::Pairwise};
    if (name == "reduce-scatter" || name == "rs")
        return {coll::Collective::ReduceScatter, coll::Algorithm::Ring};
    if (name == "all-gather" || name == "ag")
        return {coll::Collective::AllGather, coll::Algorithm::Ring};
    fatal("coll: unknown collective '", name,
          "' (ring | rd | hd | tree | alltoall | reduce-scatter | "
          "all-gather)");
}

/// Parse `--plan dp=8,tp=4,pp=2,ep=2` (every axis optional,
/// defaulting to 1, values strictly positive).
coll::PlanShape
parsePlanShape(const std::string &text)
{
    coll::PlanShape shape;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos)
            fatal("coll: --plan entries look like dp=8, got '", item,
                  "'");
        const std::string axis = item.substr(0, eq);
        const int v = static_cast<int>(util::parsePositiveInt(
            item.substr(eq + 1), ("--plan " + axis).c_str(), 1 << 20));
        if (axis == "dp")
            shape.dp = v;
        else if (axis == "tp")
            shape.tp = v;
        else if (axis == "pp")
            shape.pp = v;
        else if (axis == "ep")
            shape.ep = v;
        else
            fatal("coll: unknown --plan axis '", axis,
                  "' (dp | tp | pp | ep)");
    }
    const std::string err = shape.validate();
    if (!err.empty())
        fatal("coll: invalid --plan: ", err);
    return shape;
}

int
cmdColl(const Args &args)
{
    const int ranks = static_cast<int>(util::parsePositiveInt(
        args.str("ranks", "64"), "--ranks", 1 << 20));
    const int jobs = args.jobs();
    const std::vector<double> payloads = numbersFromArgs(
        args, "payloads", "1048576", util::parseFiniteNumber);

    exec::ThreadPool pool(jobs);
    ObsSession session(args, "wss coll", args.seed(), jobs);

    coll::CollCampaignConfig cfg;
    const power::SscConfig ws_ssc =
        setupDesignPair(args, "coll", &pool, session, cfg).ws.ssc;
    const flow::SwitchProfile &ws_profile = cfg.designs.front();
    cfg.ranks = ranks;
    cfg.collectives.clear();
    for (const auto &name :
         listFromArgs(args, "collectives", "ring,hd,tree,alltoall"))
        cfg.collectives.push_back(parseCollSpec(name));
    cfg.payload_bytes = payloads;
    if (args.has("kill-step")) {
        cfg.fault.at_step =
            static_cast<int>(args.integer("kill-step", -1));
        cfg.fault.kill_switch = !args.has("kill-trunk");
        cfg.fault.id = static_cast<int>(args.integer("kill-id", 0));
    }

    const coll::CollCampaign campaign(cfg);
    const coll::CollResult result =
        campaign.run(&pool, session.sink(), &session.profiler());

    Table table("wss coll — " + Table::num(cfg.ranks) +
                    " ranks, seed " + Table::num(args.seed()),
                {"design", "collective", "payload", "hops", "steps",
                 "flow us", "flow busbw", "model us", "model busbw",
                 "flow/model", "failed"});
    for (const auto &cell : result.cells) {
        const double ratio = cell.model.seconds > 0.0
                                 ? cell.flow.seconds / cell.model.seconds
                                 : 0.0;
        table.addRow(
            {cell.design, cell.collective,
             Table::num(cell.payload_bytes, 0), Table::num(cell.hops),
             Table::num(cell.flow.steps),
             Table::num(cell.flow.seconds * 1e6, 1),
             Table::num(cell.flow.busbw_gbps, 1),
             Table::num(cell.model.seconds * 1e6, 1),
             Table::num(cell.model.busbw_gbps, 1),
             Table::num(ratio, 3),
             Table::num(cell.flow.failed_messages)});
    }
    table.print(std::cout);
    std::cout << "campaign: " << result.cells.size() << " cells on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";

    // Optional cycle-accurate crosscheck: replay each schedule on
    // the waferscale switch's own internal chiplet fabric.
    if (args.has("fabric")) {
        const double fab_payload = args.num("fabric-payload", 65536.0);
        // The smallest fabric of whole leaves covering every rank.
        const std::int64_t fab_ports = topology::alignClosPorts(
            ranks + ws_ssc.radix / 2 - 1, ws_ssc.radix);
        const topology::LogicalTopology fab = topology::buildFoldedClos(
            {fab_ports, ws_ssc,
             static_cast<int>(args.integer("leaf-split", 1))});
        const sim::NetworkSpec net_spec = fabricSpecFromArgs(args);
        Table fab_table(
            "wss coll — cycle-accurate on '" + fab.name() + "'",
            {"collective", "fabric us", "fabric busbw", "model us",
             "fabric/model"});
        for (const auto &spec : cfg.collectives) {
            const coll::Schedule schedule =
                coll::buildSchedule(spec, ranks);
            coll::CollExecConfig exec_cfg;
            exec_cfg.trace = session.sink();
            exec_cfg.trace_label = "fabric";
            const coll::CollExecResult fr = coll::executeOnFabric(
                schedule, fab_payload, fab, net_spec,
                ws_profile.cycle_seconds, 64.0, exec_cfg);
            const coll::CollExecResult mr = coll::executeAlphaBeta(
                schedule, fab_payload,
                coll::alphaBetaOf(ws_profile,
                                  ws_profile.line_rate_gbps, 1));
            fab_table.addRow(
                {schedule.name(), Table::num(fr.seconds * 1e6, 2),
                 Table::num(fr.busbw_gbps, 1),
                 Table::num(mr.seconds * 1e6, 2),
                 Table::num(mr.seconds > 0.0 ? fr.seconds / mr.seconds
                                             : 0.0,
                            3)});
        }
        fab_table.print(std::cout);
    }

    // Optional LLM parallelism plan: what one training iteration's
    // collective mix costs on each design.
    if (args.has("plan")) {
        const coll::PlanShape shape =
            parsePlanShape(args.str("plan", ""));
        coll::ModelSpec model;
        model.parameters = args.num("params", 7e9);
        model.layers = static_cast<int>(args.integer("layers", 32));
        model.hidden = static_cast<int>(args.integer("hidden", 4096));
        model.tokens_per_microbatch =
            static_cast<int>(args.integer("tokens", 4096));
        model.microbatches =
            static_cast<int>(args.integer("microbatches", 8));
        model.moe_layers =
            static_cast<int>(args.integer("moe-layers", 0));
        model.moe_capacity = args.num("moe-capacity", 1.0);
        const std::vector<coll::PlannedCollective> plan =
            coll::composeTrainingStep(shape, model);

        Table plan_table(
            "wss coll plan — dp=" + Table::num(shape.dp) + " tp=" +
                Table::num(shape.tp) + " pp=" + Table::num(shape.pp) +
                " ep=" + Table::num(shape.ep) + " (" +
                Table::num(shape.totalRanks()) + " ranks)",
            {"design", "collective", "group", "payload", "calls",
             "us/call", "total ms", "share"});
        std::vector<std::string> summaries;
        for (const auto &profile : cfg.designs) {
            double iter_s = 0.0;
            std::vector<double> entry_s;
            for (const auto &e : plan) {
                const coll::Schedule schedule = coll::buildSchedule(
                    {e.collective, e.algorithm}, e.group_ranks);
                flow::DcnTopology topo = flow::DcnTopology::build(
                    cfg.kind, e.group_ranks,
                    static_cast<int>(profile.radix),
                    profile.line_rate_gbps);
                const coll::CollExecResult r = coll::executeOnDcn(
                    schedule, e.payload_bytes, topo, profile);
                entry_s.push_back(r.seconds);
                iter_s += r.seconds * static_cast<double>(e.invocations);
            }
            for (std::size_t i = 0; i < plan.size(); ++i) {
                const auto &e = plan[i];
                const double total =
                    entry_s[i] * static_cast<double>(e.invocations);
                plan_table.addRow(
                    {profile.name, e.label,
                     Table::num(e.group_ranks) + "x" +
                         Table::num(e.concurrent_groups),
                     Table::num(e.payload_bytes, 0),
                     Table::num(e.invocations),
                     Table::num(entry_s[i] * 1e6, 1),
                     Table::num(total * 1e3, 2),
                     Table::num(iter_s > 0.0 ? total / iter_s * 100.0
                                             : 0.0,
                                1) +
                         "%"});
            }
            // Network energy ceiling for the iteration: every switch
            // of a fabric covering all ranks burning its plate power
            // for the whole (overlap-free) collective time.
            flow::DcnTopology full = flow::DcnTopology::build(
                cfg.kind, shape.totalRanks(),
                static_cast<int>(profile.radix), profile.line_rate_gbps);
            summaries.push_back(
                profile.name + ": comm " +
                Table::num(iter_s * 1e3, 2) + " ms/iter, " +
                Table::num(full.switchCount()) +
                " switches, network " +
                Table::num(full.switchCount() * profile.power_watts *
                               iter_s / 1e3,
                           2) +
                " kJ/iter");
        }
        plan_table.print(std::cout);
        for (const auto &line : summaries)
            std::cout << line << "\n";
    }

    session.writeResults(result, "coll");

    // Observed run: re-execute the campaign's first cell (same
    // fault) with per-rank per-step telemetry on and dump the Gantt
    // data.
    if (args.has("stats-out")) {
        const std::string path = args.str("stats-out", "");
        coll::CollExecConfig exec_cfg;
        exec_cfg.telemetry = true;
        exec_cfg.trace = session.sink();
        exec_cfg.trace_label = "coll-observed";
        exec_cfg.profiler = &session.profiler();
        const coll::CollCellResult observed =
            campaign.runCell(0, exec_cfg);
        observed.flow.telemetry->dumpCsvFile(path);
        session.note(path, "coll-telemetry");
        std::cout << "telemetry written to " << path << " ("
                  << observed.collective << ", "
                  << observed.flow.telemetry->steps.size() << " steps, "
                  << observed.flow.messages << " messages)\n";
    }

    session.finish();
    return 0;
}

int
cmdReport(const Args &args)
{
    obs::ReportOptions opts;
    opts.manifest_path = args.str("manifest", "");
    opts.crash_path = args.str("crash", "");
    if (opts.manifest_path.empty() && opts.crash_path.empty())
        fatal("report: --manifest (or --crash) needs a JSON path");
    opts.top_phases =
        static_cast<std::size_t>(args.integer("top-phases", 12));
    opts.top_links =
        static_cast<std::size_t>(args.integer("top-links", 10));
    opts.crash_events =
        static_cast<std::size_t>(args.integer("crash-events", 12));
    opts.saturation_threshold = args.num("saturation", 0.95);

    const obs::RunReport report = obs::buildRunReport(opts);

    const std::string md_path = args.str("out", "report.md");
    report.writeMarkdownFile(md_path);
    std::cout << "report written to " << md_path << "\n";
    if (args.has("json")) {
        const std::string json_path = args.str("json", "");
        if (json_path.empty())
            fatal("report: --json needs a file path");
        report.writeJsonFile(json_path);
        std::cout << "JSON written to " << json_path << "\n";
    }

    std::size_t passed = 0;
    for (const auto &check : report.checks) {
        if (check.ok)
            ++passed;
        else
            std::cout << "FAILED " << check.name << ": "
                      << check.detail << "\n";
    }
    std::cout << "health: " << passed << "/" << report.checks.size()
              << " checks passed\n";
    return report.ok() ? 0 : 1;
}

int
cmdPlan(const Args &args)
{
    const core::DesignSpec spec = specFromArgs(args, 4);
    const auto result = core::RadixSolver(spec).solveMaxPorts();
    const auto &best = result.best;
    if (best.ports == 0)
        fatal("no feasible design for this spec");

    const auto delivery = sysarch::sizePowerDelivery(
        best.power.total(), spec.substrate_side);
    const int grid = static_cast<int>(std::ceil(
                         std::sqrt(best.ssc_chiplets))) + 2;
    const auto cooling =
        sysarch::sizeCoolingLoop(best.power.total(), grid);
    const auto enclosure =
        sysarch::planEnclosure(best.ports, spec.ssc.line_rate);

    Table table("wss plan — full system", {"component", "value"});
    table.addRow({"switch radix", Table::num(best.ports)});
    table.addRow({"power (kW)",
                  Table::num(best.power.total() / 1000.0, 1)});
    table.addRow({"PSUs (N+N)", Table::num(delivery.psus)});
    table.addRow({"DC-DC bricks", Table::num(delivery.dcdc_converters)});
    table.addRow({"VRMs", Table::num(delivery.vrms)});
    table.addRow({"fits under wafer",
                  delivery.fits_under_wafer ? "yes" : "no"});
    table.addRow({"PCLs / channels",
                  Table::num(cooling.pcls) + " / " +
                      Table::num(cooling.supply_channels)});
    table.addRow({"junction (C)",
                  Table::num(cooling.junction_temperature, 0)});
    table.addRow({"front-panel adapters",
                  Table::num(enclosure.adapters)});
    table.addRow({"chassis (RU)", Table::num(enclosure.rack_units)});
    table.print(std::cout);
    return 0;
}

// ---- Flag tables: each flag declared once, shared groups once ----

const Flag kSeed{"seed", kValue, "base seed, a positive integer (default 1)"};

const FlagGroup kDesignFlags{
    {"substrate", kValue, "substrate side in mm (default 300)"},
    {"wsi", kValue, "siif | siif2x | infosow (default siif2x)"},
    {"ext", kValue, "external I/O: serdes | optical | area (default optical)"},
    {"ssc-config", kValue, "Tomahawk-5 SSC configuration (default 1)"},
    {"deradix", kValue, "de-radix the SSC by this factor (default 1)"},
    {"cooling", kValue, "air | water | multiphase | none (default none)"},
};
const FlagGroup kSolveFlags{
    {"topology", kValue, "clos | mesh | butterfly | fb | dragonfly"},
    {"hetero", kValue, "split each Clos leaf into N dies (default 1)"},
    {"ideal", kSwitch, "area limit only (the ideal case of Fig. 6)"},
    {"restarts", kValue, "mapping-search restarts (default 4)"},
    kSeed,
};
const FlagGroup kFabricFlags{
    {"vcs", kValue, "virtual channels per port (default 16)"},
    {"buffer", kValue, "flit buffer per port (default 64)"},
    {"rc-ingress", kValue, "ingress route-compute cycles (default 2)"},
    {"rc-transit", kValue, "transit route-compute cycles (default 2)"},
    {"pipeline", kValue, "router pipeline cycles (default 9)"},
    {"io-delay", kValue, "terminal link latency in cycles (default 8)"},
    {"hop-delay", kValue, "internal link latency in cycles (default 1)"},
    {"adaptive", kSwitch, "adaptive instead of random ECMP routing"},
};
const FlagGroup kPhaseFlags{
    {"warmup", kValue, "warm-up cycles (default 1000)"},
    {"measure", kValue, "measured cycles (default 4000)"},
    {"drain", kValue, "drain limit in cycles (default 20000)"},
    kSeed,
};
const FlagGroup kRateFlags{
    {"points", kValue, "offered-load points (default 9)"},
    {"max-rate", kValue, "highest offered load (default 0.9)"},
    {"geometric", kSwitch, "geometric spacing from --min-rate"},
    {"min-rate", kValue, "lowest load with --geometric (default 0.05)"},
};
const FlagGroup kCampaignFlags{
    {"jobs", kValue, "worker threads, 1..4096 (default: WSS_JOBS or all)"},
    {"csv", kValue, "results as CSV (same bytes at any --jobs)"},
    {"json", kValue, "results and timing as JSON"},
};
const FlagGroup kObsFlags{
    {"profile", kSwitch, "print the phase self-time table"},
    {"trace-out", kValue, "Chrome-trace timeline (Perfetto-loadable)"},
    {"manifest-out", kValue, "provenance manifest (for `wss report`)"},
    {"flight-recorder", kValue, "per-thread event rings (default 4096)"},
    {"crash-dump", kValue, "post-mortem JSON on a crash"},
    {"watchdog", kValue, "abort when a busy worker is silent this many s"},
    {"progress", kSwitch, "live status line on stderr"},
};

const FlagGroup kSimFlags{
    {"ports", kValue, "switch radix (default 512)"},
    {"pattern", kValue, "traffic pattern (default uniform)"},
    {"packet-flits", kValue, "flits per packet (default 1)"},
    {"stats-out", kValue, "router/link counters of one observed run"},
    {"rate", kValue, "offered load of that run (default --max-rate)"},
    {"obs-sample", kValue, "its sampling period in cycles (default 0)"},
};
const FlagGroup kSweepFlags{
    {"ports", kValue, "switch radix (default 512)"},
    {"patterns", kValue, "traffic patterns, one job each (default uniform)"},
    {"packet-flits", kValue, "flits per packet (default 1)"},
    {"reps", kValue, "repetitions per pattern (default 1)"},
};
const FlagGroup kTraceFlags{
    {"app", kValue, "mini-app (default lulesh)"},
    {"ranks", kValue, "ranks (default 512)"},
    {"iterations", kValue, "iterations (default 8)"},
    {"period", kValue, "cycles per iteration (default 600)"},
    {"message-flits", kValue, "base message size in flits (default 8)"},
    {"duplicate", kValue, "replicate the trace N times (default 1)"},
    {"out", kValue, "write the trace to this file"},
    kSeed,
};
const FlagGroup kYieldFlags{
    {"chiplets", kValue, "chiplet sockets (default 96)"},
    {"die-area", kValue, "die area in mm^2 (default 800)"},
    {"defects", kValue, "defect density per cm^2 (default 0.1)"},
    {"bond-yield", kValue, "per-bond success probability (default 0.999)"},
    {"substrate", kValue, "monolithic wafer side in mm (default 300)"},
};
const FlagGroup kResilienceFlags{
    {"ports", kValue, "switch radices (default 256)"},
    {"densities", kValue, "defect densities per cm^2 (default 0.1,0.3)"},
    {"spares", kValue, "spare-SSC counts (default 0,1,2)"},
    {"ssc-radix", kValue, "sub-switch chiplet radix (default 64)"},
    {"line-rate", kValue, "SSC line rate in Gbps (default 200)"},
    {"samples", kValue, "defect maps per cell (default 500)"},
    {"sim-samples", kValue, "maps also simulated (default 0)"},
    {"sim-rate", kValue, "offered load of those runs (default 0.9)"},
    {"packet-flits", kValue, "flits per packet (default 4)"},
    {"bond-yield", kValue, "per-bond success probability (default 0.999)"},
    {"test-escape", kValue, "bad dies missed by KGD test (default 0.05)"},
    {"node-fail", kValue, "SSC field-failure probability (default 0.002)"},
    {"link-fail", kValue, "link field-failure probability (default 5e-4)"},
};
/// The waferscale/conventional pair of `wss dcn` and `wss coll`.
const FlagGroup kPairFlags{
    {"ws-ports", kValue, "waferscale radix (default 0: radix solver)"},
    {"restarts", kValue, "mapping-search restarts (default 2)"},
    {"conv-ports", kValue, "conventional switch radix (default 64)"},
    {"conv-ssc-radix", kValue, "its chiplet radix (default 32)"},
    {"dcn-topology", kValue, "fat-tree | dragonfly (default fat-tree)"},
    {"profiles", kValue, "profile cache directory"},
    {"calibrate", kSwitch, "re-calibrate even when --profiles has them"},
    {"cal-ports", kValue, "cap on the calibration fabric (default 512)"},
    {"points", kValue, "calibration load points (default 5)"},
    {"min-rate", kValue, "lowest calibration load (default 0.05)"},
    {"max-rate", kValue, "highest calibration load (default 0.95)"},
    {"packet-flits", kValue, "calibration flits per packet (default 4)"},
};
const FlagGroup kDcnFlags{
    {"hosts", kValue, "endpoints to cover (default 1024)"},
    {"flows", kValue, "flows per cell (default 100000)"},
    {"workloads", kValue, "websearch | hadoop | fixed | incast list"},
    {"loads", kValue, "loads, fraction of host bandwidth (default 0.3,0.7)"},
    {"node-fail", kValue, "per-switch failure probability (default 0)"},
    {"stats-out", kValue, "first cell's per-link telemetry (CSV)"},
    {"telemetry-window", kValue, "its window in s (default: run/24)"},
};
const FlagGroup kCollFlags{
    {"ranks", kValue, "ranks, one per host (default 64)"},
    {"collectives", kValue, "ring | rd | hd | tree | alltoall | rs | ag"},
    {"payloads", kValue, "per-rank payload bytes (default 1048576)"},
    {"kill-step", kValue,
     "kill a switch before step N, below every collective's step count"},
    {"kill-trunk", kSwitch, "kill a trunk instead of a switch"},
    {"kill-id", kValue, "which switch/trunk dies (default 0)"},
    {"fabric", kSwitch, "also replay on the waferscale fabric"},
    {"fabric-payload", kValue, "per-rank bytes of that replay (default 64k)"},
    {"leaf-split", kValue, "leaf split of the replay fabric (default 1)"},
    {"stats-out", kValue, "first cell's per-rank per-step telemetry (CSV)"},
};
const FlagGroup kPlanFlags{
    {"plan", kValue, "price an LLM training step: dp=8,tp=4,pp=2,ep=2"},
    {"params", kValue, "model parameters (default 7e9)"},
    {"layers", kValue, "layers (default 32)"},
    {"hidden", kValue, "hidden size (default 4096)"},
    {"tokens", kValue, "tokens per microbatch (default 4096)"},
    {"microbatches", kValue, "microbatches (default 8)"},
    {"moe-layers", kValue, "MoE layers (default 0)"},
    {"moe-capacity", kValue, "MoE capacity factor (default 1)"},
};
const FlagGroup kReportFlags{
    {"manifest", kValue, "manifest to report on (unless --crash)"},
    {"crash", kValue, "crash.json post-mortem to render"},
    {"out", kValue, "Markdown output path (default report.md)"},
    {"json", kValue, "also write the JSON twin"},
    {"top-phases", kValue, "rows in the self-time table (default 12)"},
    {"top-links", kValue, "rows in the hottest-links table (default 10)"},
    {"crash-events", kValue, "events shown per thread (default 12)"},
    {"saturation", kValue, "utilization flagged saturated (default 0.95)"},
};

const std::vector<Command> kCommands{
    {"solve", "size the maximum-radix switch for a design point",
     {&kDesignFlags, &kSolveFlags}, cmdSolve},
    {"sim", "latency-vs-load sweep on a waferscale Clos fabric",
     {&kSimFlags, &kRateFlags, &kFabricFlags, &kPhaseFlags, &kObsFlags},
     cmdSim},
    {"sweep", "parallel multi-pattern sweep campaign",
     {&kSweepFlags, &kRateFlags, &kFabricFlags, &kPhaseFlags,
      &kCampaignFlags, &kObsFlags},
     cmdSweep},
    {"trace", "generate (and save) a synthetic mini-app message trace",
     {&kTraceFlags}, cmdTrace},
    {"yield", "manufacturing-yield analysis for a chiplet assembly",
     {&kYieldFlags}, cmdYield},
    {"resilience", "Monte-Carlo defect/spare/degraded-mode campaign",
     {&kResilienceFlags, &kFabricFlags, &kPhaseFlags, &kCampaignFlags,
      &kObsFlags},
     cmdResilience},
    {"dcn", "flow-level DCN comparison, waferscale vs conventional",
     {&kDcnFlags, &kDesignFlags, &kPairFlags, &kFabricFlags, &kPhaseFlags,
      &kCampaignFlags, &kObsFlags},
     cmdDcn},
    {"coll", "collectives on waferscale vs conventional vs alpha-beta",
     {&kCollFlags, &kPlanFlags, &kDesignFlags, &kPairFlags, &kFabricFlags,
      &kPhaseFlags, &kCampaignFlags, &kObsFlags},
     cmdColl},
    {"report", "Markdown report of a run; exit 1 when a health check fails",
     {&kReportFlags}, cmdReport},
    {"plan", "full system plan (power delivery / cooling / enclosure)",
     {&kDesignFlags, &kSolveFlags}, cmdPlan},
};

void
usage()
{
    std::cout << "usage: wss <subcommand> [--flags]\n\n";
    for (const Command &cmd : kCommands)
        std::cout << "  " << std::left << std::setw(11) << cmd.name << " "
                  << cmd.summary << "\n";
    std::cout << "\nRun `wss <subcommand> --help` for its flags.\n";
}

void
help(const Command &cmd)
{
    std::cout << "usage: wss " << cmd.name << " [--flags]\n\n"
              << cmd.summary << "\n";
    for (const FlagGroup *group : cmd.groups) {
        std::cout << "\n";
        for (const Flag &flag : *group)
            std::cout << "  --" << std::left << std::setw(18)
                      << std::string(flag.name) +
                             (flag.takes_value ? " V" : "")
                      << " " << flag.help << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc < 2 ? "" : argv[1];
    for (const Command &cmd : kCommands) {
        if (name != cmd.name)
            continue;
        const Args args(argc, argv, cmd);
        if (args.has("help")) {
            help(cmd);
            return 0;
        }
        return cmd.run(args);
    }
    usage();
    return name == "help" || name == "--help" ? 0 : 1;
}

/**
 * @file
 * Host-time measurement driver of the layered benchmark (METHOD.md).
 *
 * Runs one named workload against the simulator's libraries, timing
 * the calls into each layer's public functions from outside, and
 * prints one compact JSON object of raw samples as the last line of
 * stdout. run.py turns the samples into the benchmark's metrics and
 * checks the simulated signatures; this file does no statistics.
 *
 *   swsm_hostbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *
 * Workloads (all 16-node clusters):
 *   fig3-grid     the Small Figure 3 grid on ParallelSweepRunner,
 *                 jobs = hardware threads, one sim thread per job
 *   barnes-sc     barnes, SC, AO, Small, serial kernel, repeated
 *   radix-hlrc    radix, HLRC, AO, Medium, serial kernel, repeated
 *
 * Each workload repeats its unit (a grid pass or one simulation) while
 * the next repetition is expected to end within --seconds. With
 * --trace=1 the driver records spans around every layer call, reads
 * the per-node cache counters, alternates untraced and traced single
 * runs (the tracing overhead), runs barnes-sc again on the parallel
 * event kernel with one sim thread per hardware thread, and times
 * isolated unit-cost probes of the event queue, fibers, the cache
 * model, the SIMD page kernels and Network::send.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_registry.hh"
#include "fiber/fiber.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "machine/cluster.hh"
#include "mem/aligned.hh"
#include "mem/cache_model.hh"
#include "mem/simd.hh"
#include "net/network.hh"
#include "obs/json_writer.hh"
#include "sim/env.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace swsm;
using Clock = std::chrono::steady_clock;

/** Taken during static initialization, before main() runs. */
const Clock::time_point processStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Seconds since process start (span timestamps). */
double
nowS()
{
    return secondsSince(processStart);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    double start = 0;
    double dur = 0;
    int tid = 0;
    std::vector<std::pair<std::string, std::string>> args;
};

/** Thread-safe in-memory span log; written out once, at exit. */
class SpanLog
{
  public:
    bool enabled = false;

    void
    add(Span s)
    {
        if (!enabled)
            return;
        std::lock_guard<std::mutex> lock(mu);
        const auto id = std::this_thread::get_id();
        auto it = tids.find(id);
        if (it == tids.end())
            it = tids.emplace(id, static_cast<int>(tids.size())).first;
        s.tid = it->second;
        spans.push_back(std::move(s));
    }

    void
    write(JsonWriter &w) const
    {
        w.key("spans");
        w.beginArray();
        for (const Span &s : spans) {
            w.beginObject();
            w.member("name", s.name);
            w.member("start_s", s.start);
            w.member("dur_s", s.dur);
            w.member("tid", s.tid);
            w.key("args");
            w.beginObject();
            for (const auto &[k, v] : s.args)
                w.member(k, v);
            w.endObject();
            w.endObject();
        }
        w.endArray();
    }

  private:
    std::mutex mu;
    std::map<std::thread::id, int> tids;
    std::vector<Span> spans;
};

SpanLog spanLog;

void
addSpan(const std::string &name, double start, double end,
        std::vector<std::pair<std::string, std::string>> args = {})
{
    spanLog.add(Span{name, start, end - start, 0, std::move(args)});
}

// ---------------------------------------------------------------------
// Simulated signature and counters
// ---------------------------------------------------------------------

/** The counters a run must reproduce exactly. */
const char *const signatureCounters[] = {
    "sim.total_cycles",
    "sim.events_run",
    "proto.msgs",
    "net.bytes",
};

/** Registry counters the traced run reports per layer. */
const char *const layerCounters[] = {
    "sim.events_run",
    "sim.events_scheduled",
    "sim.max_pending_events",
    "sim.pdes_partitions",
    "sim.pdes_windows",
    "sim.pdes_mailbox_events",
    "machine.fastpath_hits",
    "machine.fastpath_misses",
    "proto.read_faults",
    "proto.write_faults",
    "proto.diffs_created",
    "proto.twins_created",
    "proto.diff_words_written",
    "proto.handlers_run",
    "proto.msgs",
    "mem.simd_diff_scan_bytes",
    "mem.simd_twin_copy_bytes",
    "net.messages",
    "net.bytes",
    "comm.requests",
    "comm.data",
};

void
writeSignature(JsonWriter &w, const MetricsSnapshot &m)
{
    w.key("sig");
    w.beginArray();
    for (const char *name : signatureCounters)
        w.value(m.counter(name));
    w.endArray();
}

void
writeCounters(JsonWriter &w, const std::map<std::string,
                                             std::uint64_t> &counters)
{
    w.key("counters");
    w.beginObject();
    for (const auto &[k, v] : counters)
        w.member(k, v);
    w.endObject();
}

/** Per-node CacheModel counters of a finished run, summed. */
std::map<std::string, std::uint64_t>
cacheCounters(Cluster &cluster)
{
    std::map<std::string, std::uint64_t> out;
    for (NodeId n = 0; n < cluster.numProcs(); ++n) {
        const CacheModel &c = cluster.node(n).cache();
        out["mem.l1_hits"] += c.l1Hits().value();
        out["mem.l1_misses"] += c.l1Misses().value();
        out["mem.l2_hits"] += c.l2Hits().value();
        out["mem.l2_misses"] += c.l2Misses().value();
    }
    return out;
}

// ---------------------------------------------------------------------
// Single-simulation workloads
// ---------------------------------------------------------------------

struct SingleSpec
{
    const char *app;
    ProtocolKind kind;
    SizeClass size;
    /** The traced run also times this simulation multi-threaded. */
    bool parallelKernel = false;
};

/** One timed simulation: construction, setup, run, verify, teardown. */
struct RunSample
{
    bool traced = false;
    double wall = 0;
    double cluster = 0;
    double setup = 0;
    double run = 0;
    double verify = 0;
    double teardown = 0;
    bool verified = false;
    MetricsSnapshot metrics;
    std::map<std::string, std::uint64_t> counters;
};

/** AO machine for @p spec; the sim-thread count comes from the env. */
MachineParams
aoParams(const SingleSpec &spec, const AppInfo &app)
{
    ExperimentConfig cfg;
    cfg.protocol = spec.kind;
    cfg.commSet = 'A';
    cfg.protoSet = 'O';
    cfg.numProcs = 16;
    cfg.blockBytes = app.scBlockBytes;
    return cfg.machineParams();
}

RunSample
runOnce(const SingleSpec &spec, const AppInfo &app, bool traced,
        int index)
{
    RunSample s;
    s.traced = traced;
    const MachineParams mp = aoParams(spec, app);

    const double t0 = nowS();
    std::unique_ptr<Workload> wl = app.factory(spec.size);
    auto cluster = std::make_unique<Cluster>(mp);
    const double t1 = nowS();
    wl->setup(*cluster);
    const double t2 = nowS();
    cluster->run([&](Thread &t) { wl->body(t); });
    const double t3 = nowS();
    s.verified = wl->verify(*cluster);
    const double t4 = nowS();

    // Untimed: read the results before teardown.
    s.metrics = cluster->stats().metrics;
    if (traced) {
        s.counters = cacheCounters(*cluster);
        for (const char *name : layerCounters)
            s.counters[name] = s.metrics.counter(name);
    }

    const double t5 = nowS();
    cluster.reset();
    wl.reset();
    const double t6 = nowS();

    s.cluster = t1 - t0;
    s.setup = t2 - t1;
    s.run = t3 - t2;
    s.verify = t4 - t3;
    s.teardown = t6 - t5;
    s.wall = (t4 - t0) + s.teardown;
    if (traced) {
        const char *threads = std::getenv("SWSM_SIM_THREADS");
        addSpan("run#" + std::to_string(index), t0, t6,
                {{"experiment", app.name + "/" +
                                    protocolKindName(spec.kind) + "/AO"},
                 {"SWSM_SIM_THREADS", threads ? threads : "unset"}});
        addSpan("Cluster()", t0, t1);
        addSpan("Workload::setup", t1, t2);
        addSpan("Cluster::run", t2, t3);
        addSpan("Workload::verify", t3, t4);
        addSpan("teardown", t5, t6);
    }
    return s;
}

void
writeRun(JsonWriter &w, const RunSample &s)
{
    w.beginObject();
    w.member("traced", s.traced);
    w.member("wall_s", s.wall);
    w.member("cluster_s", s.cluster);
    w.member("setup_s", s.setup);
    w.member("run_s", s.run);
    w.member("verify_s", s.verify);
    w.member("teardown_s", s.teardown);
    w.member("verified", s.verified);
    writeSignature(w, s.metrics);
    if (s.traced)
        writeCounters(w, s.counters);
    w.endObject();
}

/**
 * One set-up of a workload: build each app's input and AO machine
 * (factory, Cluster construction, Workload::setup) and tear it down.
 * A single-simulation workload also runs its sequential baseline, the
 * speedup's denominator; the grid runs its baselines itself. setup_s
 * is the median over several set-ups.
 */
double
setupOnce(const std::vector<std::pair<AppInfo, SingleSpec>> &units,
          bool baseline, std::vector<Cycles> &baselines)
{
    const auto start = Clock::now();
    for (const auto &[app, spec] : units) {
        std::unique_ptr<Workload> wl = app.factory(spec.size);
        Cluster cluster(aoParams(spec, app));
        wl->setup(cluster);
    }
    if (baseline) {
        for (const auto &[app, spec] : units)
            baselines.push_back(
                runSequentialBaseline(app.factory, spec.size));
    }
    return secondsSince(start);
}

// ---------------------------------------------------------------------
// Unit-cost probes (traced run only)
// ---------------------------------------------------------------------

/** Median over @p reps of fn() (seconds) divided by @p ops, in ns. */
template <typename Fn>
double
probeNs(const char *name, int reps, std::uint64_t ops, Fn fn)
{
    std::vector<double> v;
    const double t0 = nowS();
    for (int r = 0; r < reps; ++r)
        v.push_back(fn());
    addSpan(std::string("probe:") + name, t0, nowS(),
            {{"ops_per_rep", std::to_string(ops)},
             {"reps", std::to_string(reps)}});
    std::sort(v.begin(), v.end());
    return v[v.size() / 2] / static_cast<double>(ops) * 1e9;
}

volatile std::uint64_t probeSink = 0;

std::map<std::string, double>
runProbes()
{
    constexpr int reps = 5;
    std::map<std::string, double> out;

    // Event kernel: a self-rescheduling chain of four events keeps
    // the heap small, so the cost is schedule + pop + dispatch.
    constexpr std::uint64_t events = 400000;
    out["sim.queue_ns"] = probeNs("EventQueue", reps, events, [] {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::function<void()> tick = [&] {
            if (++fired < events)
                eq.scheduleAfter(1, [&] { tick(); });
        };
        const auto start = Clock::now();
        for (int i = 0; i < 4; ++i)
            eq.scheduleAfter(1, [&] { tick(); });
        eq.run();
        return secondsSince(start);
    });

    // Fiber: one resume plus the matching yield.
    constexpr std::uint64_t switches = 400000;
    out["fiber.switch_ns"] = probeNs("Fiber", reps, switches, [] {
        Fiber f([] {
            for (;;)
                Fiber::yield();
        });
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < switches; ++i)
            f.resume();
        return secondsSince(start);
    });

    // Cache model, L1 hit: 64 lines that fit L1, revisited.
    constexpr std::uint64_t accesses = 1000000;
    out["mem.cache_hit_ns"] = probeNs("CacheModel.hit", reps, accesses,
                                      [] {
        CacheModel cache{MemoryParams{}};
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < accesses; ++i)
            sink += cache.access((i & 63) * 32, false);
        probeSink = probeSink + sink;
        return secondsSince(start);
    });

    // Cache model, miss in both levels: never-reused lines.
    out["mem.cache_miss_ns"] = probeNs("CacheModel.miss", reps, accesses,
                                       [] {
        CacheModel cache{MemoryParams{}};
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < accesses; ++i)
            sink += cache.access(i * 32, (i & 1) != 0);
        probeSink = probeSink + sink;
        return secondsSince(start);
    });

    // SIMD page kernels at the level the runs use: diff scan of a
    // 4 KiB page with 16 changed words, and twin creation (copy).
    constexpr std::uint32_t pageBytes = 4096;
    constexpr std::uint64_t pages = 20000;
    AlignedBytes twin(pageBytes, 0), cur(pageBytes, 0);
    for (std::uint32_t i = 0; i < 16; ++i)
        cur[i * 256] = static_cast<std::uint8_t>(i + 1);
    out["mem.diff_scan_ns_per_page"] =
        probeNs("simd.diffWords", reps, pages, [&] {
            simd::DiffWords words;
            std::uint64_t sink = 0;
            const auto start = Clock::now();
            for (std::uint64_t p = 0; p < pages; ++p) {
                words.clear();
                simd::diffWords(cur.data(), twin.data(), pageBytes, 0,
                                words);
                sink += words.size();
            }
            probeSink = probeSink + sink;
            return secondsSince(start);
        });
    AlignedBytes copy(pageBytes, 0);
    out["mem.twin_ns_per_page"] = probeNs("simd.copyBytes", reps, pages,
                                          [&] {
        const auto start = Clock::now();
        for (std::uint64_t p = 0; p < pages; ++p) {
            cur[0] = static_cast<std::uint8_t>(p);
            simd::copyBytes(copy.data(), cur.data(), pageBytes);
        }
        probeSink = probeSink + copy[0];
        return secondsSince(start);
    });

    // Network: one 1 KiB message from send to delivery on an idle
    // two-node network (includes the event-queue work it causes).
    constexpr std::uint64_t messages = 100000;
    out["net.send_ns"] = probeNs("Network::send", reps, messages, [] {
        EventQueue eq;
        Network net(eq, 2, CommParams::achievable());
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < messages; ++i) {
            bool done = false;
            net.send(0, 1, 1024, eq.now(),
                     [&done](Cycles) { done = true; });
            while (!done)
                eq.step();
        }
        return secondsSince(start);
    });
    return out;
}

// ---------------------------------------------------------------------
// fig3-grid
// ---------------------------------------------------------------------

/**
 * Forwards to an app's workload and records spans around setup and
 * verify plus one span for the whole experiment (construction to the
 * end of verify). That span carries the run's cache counters and its
 * simulated signature, by which run.py names the grid item. Only the
 * traced grid wraps its apps.
 */
class TracedWorkload : public Workload
{
  public:
    TracedWorkload(std::unique_ptr<Workload> inner, std::string app)
        : inner(std::move(inner)), app(std::move(app)), born(nowS())
    {
    }

    const char *name() const override { return inner->name(); }

    void
    setup(Cluster &cluster) override
    {
        numProcs = cluster.numProcs();
        protocol = protocolKindName(cluster.params().protocol);
        const double t0 = nowS();
        inner->setup(cluster);
        addSpan("Workload::setup", t0, nowS(), {{"app", app}});
    }

    void body(Thread &t) override { inner->body(t); }

    bool
    verify(Cluster &cluster) override
    {
        const double t0 = nowS();
        const bool ok = inner->verify(cluster);
        const double t1 = nowS();
        addSpan("Workload::verify", t0, t1, {{"app", app}});
        std::string sig;
        const MetricsSnapshot &m = cluster.stats().metrics;
        for (const char *c : signatureCounters)
            sig += (sig.empty() ? "" : ",") +
                   std::to_string(m.counter(c));
        std::vector<std::pair<std::string, std::string>> args = {
            {"app", app},
            {"protocol", protocol},
            {"procs", std::to_string(numProcs)},
            {"sig", sig}};
        for (const auto &[k, v] : cacheCounters(cluster))
            args.emplace_back(k, std::to_string(v));
        addSpan(numProcs == 1 ? "baseline" : "experiment", born, t1,
                std::move(args));
        return ok;
    }

  private:
    std::unique_ptr<Workload> inner;
    std::string app;
    double born;
    int numProcs = 0;
    std::string protocol;
};

/**
 * The Figure 3 grid in bench_fig3's app order, with each app's items
 * (Ideal, HLRC and SC configs) in a seed-chosen order. Apps keep their
 * place so the seed moves no long item from the grid's start to its
 * end; it only reorders work of one app.
 */
std::vector<GridItem>
shuffledGrid(const SweepOptions &opts, std::uint64_t seed)
{
    std::vector<GridItem> grid = figure3Grid(opts);
    // Fisher-Yates over a fixed engine, so a seed names one order on
    // every standard library.
    std::mt19937_64 rng(seed);
    for (std::size_t lo = 0; lo < grid.size();) {
        std::size_t hi = lo;
        while (hi < grid.size() && grid[hi].app.name == grid[lo].app.name)
            ++hi;
        for (std::size_t i = hi - lo; i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(rng() % i);
            std::swap(grid[lo + i - 1], grid[lo + j]);
        }
        lo = hi;
    }
    return grid;
}

void
runGridPass(JsonWriter &w, const SweepOptions &opts, std::uint64_t seed,
            bool traced)
{
    std::vector<GridItem> grid = shuffledGrid(opts, seed);
    if (traced) {
        for (GridItem &item : grid) {
            const WorkloadFactory inner = item.app.factory;
            const std::string name = item.app.name;
            item.app.factory = [inner, name](SizeClass size) {
                return std::unique_ptr<Workload>(
                    new TracedWorkload(inner(size), name));
            };
        }
    }
    ParallelSweepRunner runner(opts);
    const double t0 = nowS();
    for (const GridItem &item : grid) {
        if (item.ideal)
            runner.planIdeal(item.app);
        else
            runner.plan(item.app, item.kind, item.commSet, item.protoSet);
    }
    runner.runPlanned();
    const double t1 = nowS();
    addSpan("grid", t0, t1, {{"items", std::to_string(grid.size())}});

    w.beginObject();
    w.member("wall_s", t1 - t0);
    w.key("items");
    w.beginArray();
    runner.forEachResult([&](const std::string &key,
                             const ExperimentResult &r) {
        w.beginObject();
        w.member("key", key);
        w.member("app", r.workload);
        w.member("protocol", r.protocol);
        w.member("config", r.config);
        w.member("host_s", r.hostSeconds);
        w.member("verified", r.verified);
        writeSignature(w, r.stats.metrics);
        if (traced) {
            std::map<std::string, std::uint64_t> counters;
            for (const char *name : layerCounters)
                counters[name] = r.stats.metrics.counter(name);
            writeCounters(w, counters);
        }
        w.endObject();
    });
    w.endArray();
    w.key("baselines");
    w.beginObject();
    runner.forEachBaseline(
        [&](const std::string &app, Cycles seq) { w.member(app, seq); });
    w.endObject();
    w.endObject();
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        int n = 0;
        if (const char *v = value("--workload=")) {
            a.workload = v;
        } else if (const char *v = value("--seed=")) {
            char *end = nullptr;
            a.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                return false;
        } else if (const char *v = value("--seconds=")) {
            if (!parseBoundedInt(v, 1, 3600, n))
                return false;
            a.seconds = n;
        } else if (const char *v = value("--trace=")) {
            if (!parseBoundedInt(v, 0, 1, n))
                return false;
            a.trace = n == 1;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Call @p once(i) for i = 0, 1, ... until the next call, expected to
 * take as long as the last, would end past @p seconds; at least
 * @p min_reps calls.
 */
template <typename Fn>
void
repeatFor(double seconds, int min_reps, Fn once)
{
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        const auto t = Clock::now();
        once(i);
        const double last = secondsSince(t);
        if (i + 1 >= min_reps && secondsSince(start) + last > seconds)
            break;
    }
}

int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload=NAME --seed=N --seconds=S "
                     "--trace=0|1\n",
                     argv[0]);
        return 2;
    }
    spanLog.enabled = args.trace;

    static const std::map<std::string, SingleSpec> singles = {
        {"barnes-sc", {"barnes", ProtocolKind::Sc, SizeClass::Small, true}},
        {"radix-hlrc", {"radix", ProtocolKind::Hlrc, SizeClass::Medium}},
    };
    const bool grid = args.workload == "fig3-grid";
    if (!grid && !singles.count(args.workload)) {
        std::fprintf(stderr, "unknown workload \"%s\"\n",
                     args.workload.c_str());
        return 2;
    }

    JsonWriter w;
    w.beginObject();
    w.member("workload", args.workload);
    w.member("seed", static_cast<std::uint64_t>(args.seed));
    w.member("traced", args.trace);
    w.member("nproc", hardwareThreads());
    w.member("build_type", HOSTBENCH_BUILD_TYPE);
    w.member("compiler", HOSTBENCH_COMPILER);

    // Set-up: the workload's inputs and machines, several times.
    std::vector<std::pair<AppInfo, SingleSpec>> units;
    SweepOptions opts;
    if (grid) {
        opts.size = SizeClass::Small;
        opts.numProcs = 16;
        opts.jobs = hardwareThreads();
        for (const AppInfo &app : opts.selectedApps())
            units.push_back(
                {app, SingleSpec{"", ProtocolKind::Hlrc, opts.size}});
    } else {
        const SingleSpec &spec = singles.at(args.workload);
        units.push_back({findApp(spec.app), spec});
    }
    // Odd counts, so the median is one measured set-up; the grid's
    // set-up is short enough to afford more.
    const int setupReps = grid ? 5 : 3;
    std::vector<double> setup;
    std::vector<Cycles> baselines;
    const double setupStart = nowS();
    for (int r = 0; r < setupReps; ++r)
        setup.push_back(setupOnce(units, !grid, baselines));
    addSpan("setup", setupStart, nowS(),
            {{"reps", std::to_string(setupReps)}});
    w.key("setup_s");
    w.beginArray();
    for (double s : setup)
        w.value(s);
    w.endArray();
    w.key("baseline_cycles");
    w.beginArray();
    for (Cycles c : baselines)
        w.value(c);
    w.endArray();
    w.member("pre_timing_s", nowS());

    if (grid) {
        w.member("jobs", opts.jobs);
        w.key("passes");
        w.beginArray();
        // A traced run makes one pass: it labels items, not timing.
        repeatFor(args.trace ? 0 : args.seconds, 1, [&](int pass) {
            runGridPass(w, opts, args.seed + pass, args.trace);
        });
        w.endArray();
    } else {
        const SingleSpec &spec = singles.at(args.workload);
        const AppInfo &app = findApp(spec.app);

        w.member("app", app.name);
        w.member("experiment", app.name + "/" +
                                   protocolKindName(spec.kind) + "/AO");
        // A traced run alternates untraced and traced simulations so
        // the two medians give the tracing overhead.
        std::vector<RunSample> runs;
        const auto loopStart = Clock::now();
        repeatFor(args.seconds, args.trace ? 4 : 1, [&](int i) {
            const bool traced = args.trace && i % 2 == 1;
            spanLog.enabled = traced;
            runs.push_back(runOnce(spec, app, traced, i));
        });
        w.member("loop_s", secondsSince(loopStart));
        spanLog.enabled = args.trace;
        w.key("runs");
        w.beginArray();
        for (const RunSample &s : runs)
            writeRun(w, s);
        w.endArray();

        // The same simulation on the parallel event kernel, through
        // the SWSM_SIM_THREADS knob (serial again if the kernel goes).
        if (args.trace && spec.parallelKernel) {
            const char *prev = std::getenv("SWSM_SIM_THREADS");
            const std::string saved = prev ? prev : "";
            setenv("SWSM_SIM_THREADS",
                   std::to_string(hardwareThreads()).c_str(), 1);
            w.key("parallel_runs");
            w.beginArray();
            for (int r = 0; r < 3; ++r)
                writeRun(w, runOnce(spec, app, true,
                                    static_cast<int>(runs.size()) + r));
            w.endArray();
            if (prev)
                setenv("SWSM_SIM_THREADS", saved.c_str(), 1);
            else
                unsetenv("SWSM_SIM_THREADS");
        }
    }

    if (args.trace) {
        w.key("probes");
        w.beginObject();
        for (const auto &[k, v] : runProbes())
            w.member(k, v);
        w.endObject();
        spanLog.write(w);
    }
    w.member("peak_rss_mb", peakRssMb());
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

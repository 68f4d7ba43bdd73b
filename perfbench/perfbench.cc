/**
 * @file
 * Host-time benchmark: how fast does dtusim simulate?
 *
 * One run executes one workload repeatedly, each iteration from a
 * cold start (fresh chips, empty plan caches), and reports the
 * median host wall-clock figures over the iterations:
 *
 *   fleet_oneshot  open-loop bursty ResNet50 + BERT-Large (3:1) on a
 *                  4-device data-parallel fleet
 *   llm_tp2        open-loop Poisson gpt_small generation, tensor
 *                  parallel degree 2 over a 4-device ring fabric,
 *                  SLO + energy monitors attached
 *   zoo_chip       closed loop over the 10 zoo models at batch 1,
 *                  each on a fresh i20 chip with CPME/LPME on
 *
 *     perfbench --workload <name> --seed <n> --seconds <s>
 *               --trace <0|1> [--scale full|tiny]
 *               [--fingerprints <file>] [--scratch <dir>]
 *               [--perturb]
 *
 * Every iteration is checked: the simulated output must hash to the
 * fingerprint of its trace variant (pinned in --fingerprints for the
 * default seed, else the variant's first iteration), every request
 * must terminate exactly once, KV pages must balance, the TP workload
 * must run collectives, and energy components must sum to the meter
 * total.
 * --perturb alters the first iteration's output before hashing so a
 * test can see the fingerprint check fail.
 *
 * With --trace 0 the last stdout line is
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{
 *      "req_per_s":..,"setup_s":..,"peak_rss_mb":..}}
 * With --trace 1 the metrics are the per-layer figures (timed around
 * the calls this file makes into each layer, plus each layer's public
 * counters) and the traced run's overhead against untraced iterations
 * of the same run.
 */

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/server.hh"
#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "runtime/executor.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "soc/dtu.hh"

using namespace dtu;

namespace
{

using Clock = std::chrono::steady_clock;

/** The seed whose fingerprints are pinned. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * Trace variants per seed. Iteration i of a run serves variant
 * i mod kVariants, so one run samples several traces of its workload
 * and its medians depend less on any one arrival pattern.
 */
constexpr unsigned kVariants = 8;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return 1e3 * secondsSince(start);
}

/** Process CPU time and minor faults so far (getrusage). */
struct Usage
{
    double userS = 0.0;
    double sysS = 0.0;
    double minorFaults = 0.0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return {secs(ru.ru_utime), secs(ru.ru_stime),
            static_cast<double>(ru.ru_minflt)};
}

Usage
operator-(const Usage &a, const Usage &b)
{
    return {a.userS - b.userS, a.sysS - b.sysS,
            a.minorFaults - b.minorFaults};
}

/** High-water resident set of the process, MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Current resident set of the process, MB. Reads /proc without heap
 * allocation, so probing between chips leaves the heap as it was.
 */
double
currentRssMb()
{
    char buf[128] = {};
    int fd = open("/proc/self/statm", O_RDONLY);
    if (fd < 0)
        return 0.0;
    ssize_t n = read(fd, buf, sizeof(buf) - 1);
    close(fd);
    unsigned long long pages = 0, resident = 0;
    if (n <= 0 || std::sscanf(buf, "%llu %llu", &pages, &resident) != 2)
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** 64-bit FNV-1a of @p text as 16 hex digits. */
std::string
fingerprintOf(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/**
 * Per-layer figures of one traced iteration. A null Probe means an
 * untraced iteration: the workloads then time only their two phases.
 */
struct Probe
{
    Metrics metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
};

/** Workload sizes; "tiny" is for the benchmark's own tests. */
struct Scale
{
    unsigned fleetRequests = 512;
    unsigned llmRequests = 96;
    bool tiny = false;
};

struct Params
{
    std::uint64_t seed = kDefaultSeed;
    /** Which of the seed's kVariants traces this iteration serves. */
    unsigned variant = 0;
    Scale scale;
    std::string scratch = ".";
    bool perturb = false;
    /** Stop after the setup phase (an extra setup_s sample). */
    bool setupOnly = false;
};

/** The generator seed for stream @p salt of @p p's trace variant. */
std::uint64_t
traceSeed(const Params &p, std::uint64_t salt)
{
    return splitmix(splitmix(p.seed * kVariants + p.variant) ^ salt);
}

/** Outcome of one cold-start iteration of a workload. */
struct Iteration
{
    double setupS = 0.0;
    double runS = 0.0;
    Usage setupUsage;
    Usage runUsage;
    /** Requests (or inferences) the iteration submitted. */
    std::uint64_t attempted = 0;
    /** Of those, the ones that did not complete. */
    std::uint64_t incomplete = 0;
    /** High-water resident set of the iteration's process, MB. */
    double peakRssMb = 0.0;
    /** Resident growth over the timed phase, MB. */
    double runRssMb = 0.0;
    std::string fingerprint;
    std::vector<std::string> violations;
};

/** Phase bookkeeping shared by every workload. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(Iteration &it)
        : it_(it), start_(Clock::now()), usage_(usageNow())
    {
    }

    /** Setup is over: everything before the first simulated request. */
    void
    setupDone()
    {
        it_.setupS = secondsSince(start_);
        Usage now = usageNow();
        it_.setupUsage = now - usage_;
        usage_ = now;
        rss_ = currentRssMb();
        start_ = Clock::now();
    }

    void
    runDone()
    {
        it_.runS = secondsSince(start_);
        it_.runUsage = usageNow() - usage_;
        it_.runRssMb = peakRssMb() - rss_;
    }

  private:
    Iteration &it_;
    Clock::time_point start_;
    Usage usage_;
    double rss_ = 0.0;
};

//
// Invariants shared by the serving workloads.
//

void
checkTerminations(const std::vector<serve::Request> &trace,
                  const serve::ServingReport &report, Iteration &it)
{
    std::set<std::uint64_t> expected, seen;
    for (const serve::Request &r : trace)
        expected.insert(r.id);
    for (const serve::RequestOutcome &o : report.outcomes) {
        if (!seen.insert(o.request.id).second)
            it.violations.push_back("request " +
                                    std::to_string(o.request.id) +
                                    " terminated twice");
        if (!o.completedOk())
            ++it.incomplete;
    }
    if (seen != expected)
        it.violations.push_back(
            "terminated " + std::to_string(seen.size()) + " of " +
            std::to_string(expected.size()) + " submitted requests");
    it.attempted = trace.size();
}

void
checkKvBalance(const serve::GenerationReport &g, Iteration &it)
{
    if (g.kvPagesAllocated != g.kvPagesFreed || g.kvPagesInUseAtEnd != 0)
        it.violations.push_back(
            "KV pages allocated " + std::to_string(g.kvPagesAllocated) +
            ", freed " + std::to_string(g.kvPagesFreed) +
            ", in use at end " + std::to_string(g.kvPagesInUseAtEnd));
}

void
checkEnergySum(const std::string &what, const EnergyBreakdown &parts,
               double total, Iteration &it)
{
    if (!(std::abs(parts.total() - total) <=
          1e-9 * std::max(1.0, std::abs(total))))
        it.violations.push_back(what + ": energy components sum to " +
                                std::to_string(parts.total()) +
                                " J, meter says " +
                                std::to_string(total) + " J");
}

/**
 * The sim and mem layers' public counters, summed over chips: events
 * executed, and every BandwidthResource's transfers and wait ticks.
 * The stat names are collected once, from a chip of the same
 * configuration, so that add() itself allocates nothing.
 */
class LedgerTally
{
  public:
    explicit LedgerTally(Dtu &chip)
    {
        auto ends = [](const std::string &name, const std::string &suffix) {
            return name.size() > suffix.size() &&
                   name.compare(name.size() - suffix.size(), suffix.size(),
                                suffix) == 0;
        };
        for (const std::string &name : chip.stats().scalarNames()) {
            if (ends(name, ".transfers"))
                transferStats_.push_back(name);
            else if (ends(name, ".wait_ticks"))
                waitStats_.push_back(name);
        }
    }

    /**
     * Add @p chip's counters. Returns an upper bound, in MB, on what
     * its bandwidth ledgers hold after serving @p span simulated
     * ticks: every resource with traffic keeps one page of 4096
     * 50 ns buckets of 8 bytes (mem/bandwidth.hh) per 204.8 us of
     * simulated time it touches, and never frees one.
     */
    double
    add(Dtu &chip, Tick span)
    {
        constexpr double kPageTicks = 4096.0 * 50'000.0;
        constexpr double kPageMb = 4096.0 * 8.0 / (1024.0 * 1024.0);
        events_ += static_cast<double>(chip.eventQueue().executed());
        const StatRegistry &stats = chip.stats();
        double active = 0.0;
        for (const std::string &name : transferStats_) {
            double v = stats.tryLookup(name).value_or(0.0);
            transfers_ += v;
            active += v > 0.0 ? 1.0 : 0.0;
        }
        for (const std::string &name : waitStats_)
            waitTicks_ += stats.tryLookup(name).value_or(0.0);
        return active * std::ceil(static_cast<double>(span) / kPageTicks) *
               kPageMb;
    }

    void
    report(double run_s, double ledger_mb, Probe &probe) const
    {
        const double run_ns = 1e9 * run_s;
        probe.set("sim.events", events_, "count");
        probe.set("sim.ns_per_event", events_ ? run_ns / events_ : 0.0,
                  "ns");
        probe.set("mem.ledger_transfers", transfers_, "count");
        probe.set("mem.ns_per_transfer",
                  transfers_ ? run_ns / transfers_ : 0.0, "ns");
        probe.set("mem.wait_ms",
                  ticksToMilliSeconds(static_cast<Tick>(waitTicks_)), "ms");
        probe.set("mem.ledger_mb_est", ledger_mb, "MB");
    }

  private:
    std::vector<std::string> transferStats_;
    std::vector<std::string> waitStats_;
    double events_ = 0.0;
    double transfers_ = 0.0;
    double waitTicks_ = 0.0;
};

/** Per-layer counters common to the serving workloads. */
void
probeFleet(FleetServer &fleet, const serve::FleetReport &report,
           const Iteration &it, Probe &probe)
{
    const serve::ServingReport &r = report.fleet;
    const serve::GenerationReport &g = r.generation;
    LedgerTally tally(fleet.device(0).chip());
    double ledger_mb = 0.0;
    for (unsigned d = 0; d < fleet.size(); ++d)
        ledger_mb += tally.add(fleet.device(d).chip(), r.makespan);
    tally.report(it.runS, ledger_mb, probe);
    probe.set("serve.run_ms", 1e3 * it.runS, "ms");
    probe.set("serve.batches", static_cast<double>(r.batches), "count");
    probe.set("serve.mean_batch", r.meanBatchSize, "count");
    probe.set("serve.ms_per_batch",
              r.batches ? 1e3 * it.runS / static_cast<double>(r.batches)
                        : 0.0,
              "ms");
    probe.set("serve.queue_ms_mean", r.meanQueueMs, "ms");
    probe.set("serve.kv_pages_allocated",
              static_cast<double>(g.kvPagesAllocated), "count");
    probe.set("serve.kv_peak_pages", static_cast<double>(g.kvPeakPages),
              "count");
    probe.set("serve.decode_steps", static_cast<double>(g.decodeSteps),
              "count");
    const fabric::FabricTotals &f = report.fabric.totals;
    probe.set("fabric.collectives", static_cast<double>(f.collectives),
              "count");
    probe.set("fabric.collective_mb", f.collectiveBytes / 1e6, "MB");
    probe.set("fabric.weight_loads", static_cast<double>(f.weightLoads),
              "count");
    probe.set("compiler.plans",
              static_cast<double>(fleet.fleet().device(0).cachedPlans()),
              "count");
    probe.set("out.achieved_qps", r.achievedQps, "1/s");
    probe.set("out.p99_ms", r.p99Ms, "ms");
    probe.set("out.ttft_p99_ms", g.ttftP99Ms, "ms");
    probe.set("out.tokens_per_s", g.tokensPerSecond, "1/s");
    probe.set("out.j_per_req", r.joulesPerRequest, "J");
}

/**
 * Time buildModel + compile of @p models at batch 1 — the compiler
 * layer's cost for the models a serving workload uses (the serving
 * path compiles lazily inside serve(), out of the caller's reach).
 */
void
probeCompile(const std::vector<std::string> &models, Probe &probe)
{
    DtuConfig config = dtu2Config();
    auto start = Clock::now();
    for (const std::string &model : models) {
        Graph graph = models::buildModel(model, 1);
        ExecutionPlan plan = compile(graph, config, DType::FP16, 1, {}, 1);
        (void)plan;
    }
    probe.set("compiler.compile_ms", msSince(start), "ms");
}

/** Construction of @p config's fleet, with soc-layer probes. */
std::unique_ptr<FleetServer>
buildFleet(const serve::FleetConfig &config, Probe *probe)
{
    double rss = probe ? currentRssMb() : 0.0;
    auto start = Clock::now();
    auto fleet = std::make_unique<FleetServer>(config);
    if (probe) {
        probe->set("soc.chip_build_ms", msSince(start) / config.devices,
                   "ms");
        probe->set("soc.chip_rss_mb",
                   (currentRssMb() - rss) / config.devices, "MB");
    }
    return fleet;
}

void
submitTrace(FleetServer &fleet, const std::vector<serve::Request> &trace,
            Probe *probe)
{
    auto start = Clock::now();
    fleet.submit(trace);
    if (probe)
        probe->set("serve.submit_ms", msSince(start), "ms");
}

std::string
reportText(serve::FleetReport report, bool perturb)
{
    if (perturb && !report.fleet.outcomes.empty())
        report.fleet.outcomes.front().completed += 1;
    std::ostringstream os;
    serve::writeJson(report, os, /*per_request=*/true);
    return os.str();
}

//
// fleet_oneshot
//

/**
 * Stretch or squeeze @p traces (per-model, not yet finalized) so the
 * last arrival lands at @p span and every deadline stays @p slos[i]
 * after its arrival. The seed then shapes the arrival pattern while
 * the offered load stays exactly the nominal rate, so every seed asks
 * for the same amount of simulated work.
 */
std::vector<serve::Request>
pinnedSpanTrace(std::vector<std::vector<serve::Request>> traces,
                const std::vector<Tick> &slos, Tick span)
{
    Tick last = 1;
    for (const auto &trace : traces)
        for (const serve::Request &r : trace)
            last = std::max(last, r.arrival);
    const double scale = static_cast<double>(span) /
                         static_cast<double>(last);
    for (std::size_t i = 0; i < traces.size(); ++i) {
        for (serve::Request &r : traces[i]) {
            r.arrival = static_cast<Tick>(
                std::llround(static_cast<double>(r.arrival) * scale));
            r.deadline = slos[i] ? r.arrival + slos[i] : 0;
        }
    }
    return serve::finalizeTrace(std::move(traces));
}

std::vector<serve::Request>
fleetTrace(const Params &p)
{
    constexpr unsigned kDevices = 4;
    const double qps = 4000.0 * kDevices;
    const unsigned n = p.scale.fleetRequests;
    const std::vector<Tick> slos = {secondsToTicks(20e-3),
                                    secondsToTicks(80e-3)};
    return pinnedSpanTrace(
        {serve::burstyTrace("resnet50", qps * 0.75, n * 3 / 4,
                            traceSeed(p, 0x1), /*burst=*/8,
                            /*factor=*/4.0, slos[0]),
         serve::burstyTrace("bert_large", qps * 0.25, n - n * 3 / 4,
                            traceSeed(p, 0x2), /*burst=*/8,
                            /*factor=*/4.0, slos[1])},
        slos, secondsToTicks(n / qps));
}

Iteration
fleetOneshot(const Params &p, Probe *probe)
{
    Iteration it;
    PhaseTimer phases(it);
    serve::FleetConfig config;
    config.devices = 4;
    config.threads = 1;
    config.routing = serve::RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 8;
    config.serving.batching.maxQueueDelay = secondsToTicks(2e-3);
    config.serving.batching.perModelMaxBatch["bert_large"] = 1;
    config.serving.groupsPerBatch = 1;
    std::unique_ptr<FleetServer> fleet = buildFleet(config, probe);
    std::vector<serve::Request> trace = fleetTrace(p);
    submitTrace(*fleet, trace, probe);
    phases.setupDone();
    if (p.setupOnly)
        return it;

    const serve::FleetReport &report = fleet->serveFleet();
    phases.runDone();

    checkTerminations(trace, report.fleet, it);
    checkKvBalance(report.fleet.generation, it);
    for (unsigned d = 0; d < fleet->size(); ++d) {
        const EnergyMeter &meter = fleet->device(d).chip().energy();
        checkEnergySum("device " + std::to_string(d), meter.breakdown(),
                       meter.joules(), it);
    }
    it.fingerprint = fingerprintOf(reportText(report, p.perturb));
    if (probe) {
        probeFleet(*fleet, report, it, *probe);
        probeCompile({"bert_large", "resnet50"}, *probe);
    }
    return it;
}

//
// llm_tp2
//

std::vector<serve::Request>
llmTrace(const Params &p)
{
    const double qps = 400.0;
    const unsigned n = p.scale.llmRequests;
    std::vector<serve::Request> trace = pinnedSpanTrace(
        {serve::poissonTrace("gpt_small", qps, n, traceSeed(p, 0x3))},
        {0}, secondsToTicks(n / qps));
    for (serve::Request &r : trace) {
        r.gen.promptLen = 128;
        r.gen.maxNewTokens = p.scale.tiny ? 8 : 64;
        r.gen.stop = serve::StopPolicy::EosHash;
    }
    return trace;
}

serve::FleetConfig
llmConfig()
{
    serve::FleetConfig config;
    config.devices = 4;
    config.threads = 1;
    config.routing = serve::RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(500e-6);
    config.serving.groupsPerBatch = 1;
    config.serving.generation.continuousBatching = true;
    config.serving.generation.maxDecodeBatch = 8;
    config.fabric.enabled = true;
    config.fabric.topology = fabric::Topology::Ring;
    config.fabric.linkGbps = 32.0;
    config.fabric.hostGbps = 64.0;
    config.placement.mode = serve::PlacementMode::TensorParallel;
    config.placement.degree = 2;
    return config;
}

Iteration
llmTp2(const Params &p, Probe *probe, bool monitors = true)
{
    Iteration it;
    PhaseTimer phases(it);
    std::unique_ptr<FleetServer> fleet = buildFleet(llmConfig(), probe);
    if (monitors) {
        fleet->enableSloMonitor();
        fleet->enableEnergyMonitor();
    }
    std::vector<serve::Request> trace = llmTrace(p);
    submitTrace(*fleet, trace, probe);
    phases.setupDone();
    if (p.setupOnly)
        return it;

    const serve::FleetReport &report = fleet->serveFleet();
    phases.runDone();

    checkTerminations(trace, report.fleet, it);
    checkKvBalance(report.fleet.generation, it);
    if (report.fabric.totals.collectives == 0)
        it.violations.push_back("no fabric collectives under TP=2");
    if (monitors && !report.fleet.hasEnergy)
        it.violations.push_back("energy monitor produced no rollup");
    if (report.fleet.hasEnergy)
        checkEnergySum("fleet", report.fleet.energy,
                       report.fleet.joules, it);
    it.fingerprint = fingerprintOf(reportText(report, p.perturb));
    if (probe) {
        probeFleet(*fleet, report, it, *probe);
        probeCompile({"gpt_small"}, *probe);
        if (monitors) {
            auto start = Clock::now();
            std::ostringstream prom;
            fleet->writePrometheus(prom);
            fleet->writeEnergyReport(p.scratch +
                                     "/perfbench_energy_report.json");
            probe->set("obs.export_ms", msSince(start), "ms");
        }
    }
    return it;
}

//
// zoo_chip
//

Iteration
zooChip(const Params &p, Probe *probe)
{
    Iteration it;
    PhaseTimer phases(it);
    // The closed loop visits the zoo in a seeded order.
    std::vector<models::ModelInfo> zoo = models::modelZoo();
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < zoo.size(); ++i)
        keys.push_back(traceSeed(p, i));
    std::vector<std::size_t> order(zoo.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    if (p.scale.tiny)
        order.resize(2);

    // Setup: what a user pays once, before the first inference —
    // compile every plan and open the first chip.
    const DtuConfig config = dtu2Config();
    std::vector<ExecutionPlan> plans;
    auto compile_start = Clock::now();
    for (std::size_t i : order) {
        Graph graph = models::buildModel(zoo[i].name, 1);
        plans.push_back(compile(graph, config, DType::FP16,
                                config.totalGroups(), {}, 1));
    }
    if (probe) {
        probe->set("compiler.compile_ms", msSince(compile_start), "ms");
        probe->set("compiler.plans", static_cast<double>(plans.size()),
                   "count");
    }
    std::vector<unsigned> groups;
    for (unsigned g = 0; g < config.totalGroups(); ++g)
        groups.push_back(g);
    // The loop below must not allocate on the harness side: a block
    // left above a freed chip would pin the heap top and spare the
    // next chip the page faults it really pays (glibc trims the top).
    const std::size_t n = order.size();
    std::vector<double> build_ms, build_rss, exec_ms;
    build_ms.reserve(n);
    build_rss.reserve(n);
    exec_ms.reserve(n);
    std::vector<Tick> latency(n);
    std::vector<double> joules(n);
    auto build_chip = [&] {
        double rss = probe ? currentRssMb() : 0.0;
        auto start = Clock::now();
        auto chip = std::make_unique<Dtu>(config);
        if (probe) {
            build_ms.push_back(msSince(start));
            build_rss.push_back(currentRssMb() - rss);
        }
        return chip;
    };
    std::unique_ptr<Dtu> chip = build_chip();
    phases.setupDone();
    if (p.setupOnly)
        return it;

    std::optional<LedgerTally> tally;
    if (probe)
        tally.emplace(*chip);
    double ledger_mb = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        if (!chip)
            chip = build_chip();
        Executor executor(*chip, groups, {.powerManagement = true});
        auto start = Clock::now();
        ExecResult r = executor.run(plans[k]);
        if (probe) {
            exec_ms.push_back(msSince(start));
            // One chip is alive at a time: the bound is the largest.
            ledger_mb = std::max(ledger_mb, tally->add(*chip, r.latency));
        }
        checkEnergySum(zoo[order[k]].name, r.energy, r.joules, it);
        latency[k] = r.latency;
        joules[k] = r.joules;
        chip.reset();
    }
    phases.runDone();

    it.attempted = n;
    if (p.perturb)
        latency[0] += 1;
    std::map<std::string, std::string> lines;
    for (std::size_t k = 0; k < n; ++k) {
        char line[160];
        std::snprintf(line, sizeof(line), "%s %llu %.17g\n",
                      zoo[order[k]].name.c_str(),
                      static_cast<unsigned long long>(latency[k]),
                      joules[k]);
        lines[zoo[order[k]].name] = line;
    }
    std::string results;
    for (const auto &[name, line] : lines)
        results += line;
    it.fingerprint = fingerprintOf(results);
    if (probe) {
        // The setup chip is the process's first, built cold; the loop
        // rebuilds into memory the previous chip freed.
        probe->set("soc.chip_build_ms", build_ms.front(), "ms");
        probe->set("soc.chip_rss_mb", build_rss.front(), "MB");
        probe->set("soc.chip_rebuild_ms",
                   median({build_ms.begin() + 1, build_ms.end()}), "ms");
        probe->set("runtime.exec_ms_p50", median(exec_ms), "ms");
        probe->set("runtime.exec_ms_max",
                   *std::max_element(exec_ms.begin(), exec_ms.end()),
                   "ms");
        tally->report(it.runS, ledger_mb, *probe);
    }
    return it;
}

//
// The run. Every iteration executes in a fresh child process, so
// each one starts exactly as cold as a user's own invocation: the
// allocator has never seen the simulator's memory and every page the
// simulation touches is faulted in by the kernel. (Repeating inside
// one process would let later iterations reuse the first one's heap
// and hide those faults, which are about half of serving wall time.)
//

using WorkloadFn = std::function<Iteration(const Params &, Probe *)>;

Iteration
llmTp2Monitored(const Params &p, Probe *probe)
{
    return llmTp2(p, probe);
}

Iteration
llmTp2Bare(const Params &p, Probe *probe)
{
    return llmTp2(p, probe, /*monitors=*/false);
}

const std::map<std::string, WorkloadFn> &
workloads()
{
    static const std::map<std::string, WorkloadFn> table = {
        {"fleet_oneshot", fleetOneshot},
        {"llm_tp2", llmTp2Monitored},
        {"zoo_chip", zooChip},
    };
    return table;
}

/** Child -> parent record: one "key value..." line per field. */
std::string
encode(const Iteration &it, const Metrics &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "setup " << it.setupS << ' ' << it.setupUsage.userS << ' '
       << it.setupUsage.sysS << ' ' << it.setupUsage.minorFaults << '\n'
       << "run " << it.runS << ' ' << it.runUsage.userS << ' '
       << it.runUsage.sysS << ' ' << it.runUsage.minorFaults << '\n'
       << "requests " << it.attempted << ' ' << it.incomplete << '\n'
       << "rss " << it.peakRssMb << ' ' << it.runRssMb << '\n'
       << "fingerprint " << it.fingerprint << '\n';
    for (const std::string &v : it.violations)
        os << "violation " << v << '\n';
    for (const auto &[name, m] : metrics)
        os << "metric " << name << ' ' << m.unit << ' ' << m.value
           << '\n';
    return os.str();
}

Iteration
decode(const std::string &text, Metrics &metrics)
{
    Iteration it;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream f(line);
        std::string key;
        f >> key;
        if (key == "setup")
            f >> it.setupS >> it.setupUsage.userS >> it.setupUsage.sysS >>
                it.setupUsage.minorFaults;
        else if (key == "run")
            f >> it.runS >> it.runUsage.userS >> it.runUsage.sysS >>
                it.runUsage.minorFaults;
        else if (key == "requests")
            f >> it.attempted >> it.incomplete;
        else if (key == "rss")
            f >> it.peakRssMb >> it.runRssMb;
        else if (key == "fingerprint")
            f >> it.fingerprint;
        else if (key == "violation")
            it.violations.push_back(line.substr(key.size() + 1));
        else if (key == "metric") {
            std::string name;
            Metric m;
            f >> name >> m.unit >> m.value;
            metrics[name] = m;
        }
    }
    return it;
}

/**
 * Run one iteration of @p fn for @p params in a forked child and
 * wait for it. Returns nullopt when the child died without a report
 * (e.g. the simulator raised a fatal error).
 */
std::optional<Iteration>
runIsolated(const WorkloadFn &fn, const Params &params, bool traced,
            Metrics &metrics)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    std::cout.flush();
    const pid_t parent = getpid();
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        // Die with the parent, so no iteration outlives the run.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(1);
        close(fds[0]);
        int code = 1;
        try {
            Probe probe;
            Iteration it = fn(params, traced ? &probe : nullptr);
            it.peakRssMb = peakRssMb();
            std::string text = encode(it, probe.metrics);
            const char *p = text.data();
            std::size_t left = text.size();
            while (left > 0) {
                ssize_t n = write(fds[1], p, left);
                if (n <= 0)
                    break;
                p += n;
                left -= static_cast<std::size_t>(n);
            }
            code = left == 0 ? 0 : 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "iteration failed: %s\n", e.what());
        }
        _exit(code);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    return decode(text, metrics);
}

/**
 * Every per-layer metric a traced run prints, with its unit. Layers a
 * workload does not exercise (the fabric on fleet_oneshot, serving on
 * zoo_chip, ...) read 0.
 */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"soc.chip_build_ms", "ms"},
    {"soc.chip_rss_mb", "MB"},
    {"soc.chip_rebuild_ms", "ms"},
    {"compiler.compile_ms", "ms"},
    {"compiler.plans", "count"},
    {"runtime.exec_ms_p50", "ms"},
    {"runtime.exec_ms_max", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"mem.ledger_transfers", "count"},
    {"mem.ns_per_transfer", "ns"},
    {"mem.wait_ms", "ms"},
    {"mem.ledger_mb_est", "MB"},
    {"proc.setup_user_s", "s"},
    {"proc.setup_sys_s", "s"},
    {"proc.setup_minor_faults", "count"},
    {"proc.user_s", "s"},
    {"proc.sys_s", "s"},
    {"proc.minor_faults", "count"},
    {"proc.run_rss_mb", "MB"},
    {"serve.submit_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.batches", "count"},
    {"serve.mean_batch", "count"},
    {"serve.ms_per_batch", "ms"},
    {"serve.queue_ms_mean", "ms"},
    {"serve.kv_pages_allocated", "count"},
    {"serve.kv_peak_pages", "count"},
    {"serve.decode_steps", "count"},
    {"fabric.collectives", "count"},
    {"fabric.collective_mb", "MB"},
    {"fabric.weight_loads", "count"},
    {"obs.observer_overhead", "ratio"},
    {"obs.export_ms", "ms"},
    {"out.achieved_qps", "1/s"},
    {"out.p99_ms", "ms"},
    {"out.ttft_p99_ms", "ms"},
    {"out.tokens_per_s", "1/s"},
    {"out.j_per_req", "J"},
    {"trace.overhead_pct", "%"},
};

/**
 * The fingerprint each trace variant must reproduce. For the default
 * seed they are pinned in the --fingerprints file, one
 * "<workload> <scale> <seed> <variant> <hex>" line each; otherwise the
 * first iteration of a variant sets its reference.
 */
class FingerprintBook
{
  public:
    FingerprintBook() = default;

    FingerprintBook(const std::string &path, const std::string &workload,
                    const std::string &scale, std::uint64_t seed)
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::string w, sc, hex;
            std::uint64_t sd = 0;
            unsigned variant = 0;
            if (fields >> w >> sc >> sd >> variant >> hex &&
                w == workload && sc == scale && sd == seed)
                expected_[variant] = hex;
        }
        pinned_ = !expected_.empty();
    }

    bool pinned() const { return pinned_; }

    /** Check @p hex for @p variant; returns the violation, or "". */
    std::string
    check(unsigned variant, const std::string &hex)
    {
        auto it = expected_.find(variant);
        if (it == expected_.end()) {
            if (pinned_)
                return "no pinned fingerprint for variant " +
                       std::to_string(variant);
            expected_[variant] = hex;
            return "";
        }
        if (it->second == hex)
            return "";
        return "fingerprint " + hex + " != " +
               (pinned_ ? "pinned " : "the run's first, ") + it->second +
               " (variant " + std::to_string(variant) + ")";
    }

    /** The reference of every variant seen or pinned. */
    const std::map<unsigned, std::string> &
    references() const
    {
        return expected_;
    }

  private:
    std::map<unsigned, std::string> expected_;
    bool pinned_ = false;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

struct Args
{
    std::string workload;
    Params params;
    double seconds = 10.0;
    bool trace = false;
    std::string scaleName = "full";
    std::string fingerprints;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << argv[i] << " needs a value\n";
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--workload")
            args.workload = need(i);
        else if (a == "--seed")
            args.params.seed = std::stoull(need(i));
        else if (a == "--seconds")
            args.seconds = std::stod(need(i));
        else if (a == "--trace")
            args.trace = need(i) != "0";
        else if (a == "--scale")
            args.scaleName = need(i);
        else if (a == "--fingerprints")
            args.fingerprints = need(i);
        else if (a == "--scratch")
            args.params.scratch = need(i);
        else if (a == "--perturb")
            args.params.perturb = true;
        else {
            std::cerr << "unknown argument " << a << "\n";
            std::exit(2);
        }
    }
    if (!workloads().count(args.workload)) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        std::exit(2);
    }
    if (args.scaleName == "tiny")
        args.params.scale = {32, 8, true};
    else if (args.scaleName != "full") {
        std::cerr << "unknown scale '" << args.scaleName << "'\n";
        std::exit(2);
    }
    return args;
}

/** Share of an untraced run's budget spent on setup-only samples. */
constexpr double kSetupShare = 0.2;

/** The iterations of one run, their checks, and their medians. */
class RunLog
{
  public:
    /** Fingerprints are checked against @p book, which may be shared. */
    explicit RunLog(FingerprintBook &book) : book_(book) {}

    /**
     * Run iterations of @p fn, at least @p min_iterations, while the
     * predicted end of the next one stays within the first
     * (1 - @p setup_share) of @p budget seconds. The rest of the
     * budget goes to setup-only iterations: more samples of the
     * short, fault-bound setup phase, whose median is setup_s.
     */
    void
    fill(const WorkloadFn &fn, Params params, double budget,
         std::size_t min_iterations, double setup_share)
    {
        auto start = Clock::now();
        std::vector<double> walls, setup_walls;
        for (;;) {
            double elapsed = secondsSince(start);
            auto t = Clock::now();
            if (walls.size() < min_iterations ||
                elapsed + median(walls) <= (1.0 - setup_share) * budget) {
                params.variant =
                    static_cast<unsigned>(walls.size() % kVariants);
                step(fn, params, false);
                walls.push_back(secondsSince(t));
                params.perturb = false;
            } else if (setup_share > 0.0 &&
                       elapsed + median(setup_walls) <= budget) {
                Params setup = params;
                setup.setupOnly = true;
                Metrics unused;
                std::optional<Iteration> it =
                    runIsolated(fn, setup, false, unused);
                if (!it) {
                    correct_ = false;
                    std::cout << "  CHECK FAILED: setup iteration died\n";
                    break;
                }
                setupSamples_.push_back(it->setupS);
                setup_walls.push_back(secondsSince(t));
            } else {
                break;
            }
        }
    }

    /** setup_s samples: every iteration's plus the setup-only ones. */
    std::vector<double>
    setupSamples() const
    {
        std::vector<double> v = setupSamples_;
        for (const Iteration &it : iterations_)
            v.push_back(it.setupS);
        return v;
    }

    /** One isolated iteration of @p fn, checked and logged. */
    void
    step(const WorkloadFn &fn, const Params &params, bool traced)
    {
        Metrics metrics;
        std::optional<Iteration> result =
            runIsolated(fn, params, traced, metrics);
        if (!result) {
            correct_ = false;
            std::uint64_t lost = iterations_.empty()
                                     ? 1
                                     : iterations_.front().attempted;
            attempted_ += lost;
            failed_ += lost;
            std::cout << "  CHECK FAILED: iteration died\n";
            return;
        }
        Iteration &it = *result;
        std::string mismatch = book_.check(params.variant, it.fingerprint);
        if (!mismatch.empty())
            it.violations.push_back(mismatch);
        attempted_ += it.attempted;
        if (it.violations.empty()) {
            failed_ += it.incomplete;
        } else {
            correct_ = false;
            failed_ += it.attempted;
            for (const std::string &v : it.violations)
                std::cout << "  CHECK FAILED: " << v << "\n";
        }
        std::printf("  %s%zu: setup %.4f s, run %.4f s (user %.2f s, "
                    "sys %.2f s, %.0f faults), variant %u fingerprint %s\n",
                    traced ? "traced " : "iter ", iterations_.size() + 1,
                    it.setupS, it.runS, it.runUsage.userS,
                    it.runUsage.sysS, it.runUsage.minorFaults,
                    params.variant, it.fingerprint.c_str());
        for (const auto &[name, m] : metrics) {
            layerUnits_[name] = m.unit;
            layerValues_[name].push_back(m.value);
        }
        iterations_.push_back(std::move(it));
    }

    const std::vector<Iteration> &iterations() const { return iterations_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

    /** Median of @p field over the successful iterations. */
    double
    medianOf(const std::function<double(const Iteration &)> &field) const
    {
        std::vector<double> v;
        for (const Iteration &it : iterations_)
            v.push_back(field(it));
        return median(v);
    }

    /** Per-layer metrics: the median of each over traced iterations. */
    Metrics
    layerMedians() const
    {
        Metrics out;
        for (const auto &[name, values] : layerValues_)
            out[name] = {median(values), layerUnits_.at(name)};
        return out;
    }

  private:
    FingerprintBook &book_;
    std::vector<Iteration> iterations_;
    std::vector<double> setupSamples_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
    std::map<std::string, std::string> layerUnits_;
    std::map<std::string, std::vector<double>> layerValues_;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const WorkloadFn &fn = workloads().at(args.workload);
    FingerprintBook book;
    if (args.params.seed == kDefaultSeed) {
        book = FingerprintBook(args.fingerprints, args.workload,
                               args.scaleName, kDefaultSeed);
        if (!book.pinned())
            std::cout << "  note: no pinned fingerprints for "
                      << args.workload << " " << args.scaleName
                      << " seed " << kDefaultSeed << "\n";
    }

    auto run_s = [](const Iteration &it) { return it.runS; };
    Metrics metrics;
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    if (!args.trace) {
        RunLog log(book);
        log.fill(fn, args.params, args.seconds, 3, kSetupShare);
        metrics["req_per_s"] = {
            log.medianOf([](const Iteration &it) {
                return static_cast<double>(it.attempted - it.incomplete) /
                       it.runS;
            }),
            "1/s"};
        metrics["setup_s"] = {median(log.setupSamples()), "s"};
        std::printf("  %zu full iterations, %zu setup_s samples\n",
                    log.iterations().size(), log.setupSamples().size());
        metrics["peak_rss_mb"] = {
            log.medianOf([](const Iteration &it) { return it.peakRssMb; }),
            "MB"};
        correct = log.correct() && !log.iterations().empty();
        attempted = log.attempted();
        failed = log.failed();
    } else {
        // Half the run untraced, half traced; the per-layer figures
        // are medians over the traced iterations, and the tracing
        // overhead is the difference in timed-phase wall time.
        // Untraced and traced iterations of a variant must agree; the
        // monitor-less iterations write a different report.
        FingerprintBook bare_book;
        RunLog untraced(book), traced(book), bare(bare_book);
        untraced.fill(fn, args.params, args.seconds / 2, 1, 0.0);
        auto start = Clock::now();
        Params p = args.params;
        do {
            p.variant = static_cast<unsigned>(traced.iterations().size() %
                                              kVariants);
            traced.step(fn, p, true);
            if (args.workload == "llm_tp2")
                bare.step(llmTp2Bare, p, false);
        } while (secondsSince(start) < args.seconds / 2);
        metrics = traced.layerMedians();
        auto usage = [&](double Usage::*f, bool setup) {
            return traced.medianOf([&](const Iteration &it) {
                return (setup ? it.setupUsage : it.runUsage).*f;
            });
        };
        metrics["proc.setup_user_s"] = {usage(&Usage::userS, true), "s"};
        metrics["proc.setup_sys_s"] = {usage(&Usage::sysS, true), "s"};
        metrics["proc.setup_minor_faults"] = {
            usage(&Usage::minorFaults, true), "count"};
        metrics["proc.user_s"] = {usage(&Usage::userS, false), "s"};
        metrics["proc.sys_s"] = {usage(&Usage::sysS, false), "s"};
        metrics["proc.minor_faults"] = {usage(&Usage::minorFaults, false),
                                        "count"};
        metrics["proc.run_rss_mb"] = {
            traced.medianOf([](const Iteration &it) { return it.runRssMb; }),
            "MB"};
        double untraced_run = untraced.medianOf(run_s);
        double traced_run = traced.medianOf(run_s);
        metrics["trace.overhead_pct"] = {
            100.0 * (traced_run / untraced_run - 1.0), "%"};
        if (!bare.iterations().empty())
            metrics["obs.observer_overhead"] = {
                traced_run / bare.medianOf(run_s), "ratio"};
        for (const auto &[name, unit] : kLayerMetrics)
            metrics.try_emplace(name, Metric{0.0, unit});
        correct = untraced.correct() && traced.correct() &&
                  bare.correct() && !traced.iterations().empty();
        attempted =
            untraced.attempted() + traced.attempted() + bare.attempted();
        failed = untraced.failed() + traced.failed() + bare.failed();
    }
    for (const auto &[variant, hex] : book.references())
        std::printf("  fingerprint %s %s %s seed %llu variant %u%s\n",
                    hex.c_str(), args.workload.c_str(),
                    args.scaleName.c_str(),
                    static_cast<unsigned long long>(args.params.seed),
                    variant, book.pinned() ? " (pinned)" : "");
    printResult(correct, attempted, failed, metrics);
    return 0;
}

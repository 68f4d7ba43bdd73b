/**
 * @file
 * Tests for the fault-injection subsystem and the serving stack's
 * graceful degradation: deterministic replay (same seed => same
 * fault sites, retry counts, and shed set), the strictly-opt-in
 * guarantee, the per-engine hooks (HBM ECC, DMA retry, thermal
 * clamp), and the scheduler's shed / timeout / admission / batch
 * retry responses.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "api/server.hh"
#include "api/tops_runtime.hh"
#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "serve/arrival.hh"
#include "sim/fault.hh"
#include "serving_test_util.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;
using dtu::test::serveOnChip;

/** The dropped slice of the unified outcome log, terminal-ordered. */
std::vector<RequestOutcome>
droppedOf(const ServingReport &report)
{
    std::vector<RequestOutcome> dropped;
    for (const RequestOutcome &o : report.outcomes) {
        if (!o.completedOk())
            dropped.push_back(o);
    }
    return dropped;
}

//
// FaultInjector unit behaviour.
//

TEST(FaultInjectorTest, DefaultConfigInjectsNothing)
{
    FaultConfig config;
    EXPECT_FALSE(config.anyEnabled());
    FaultInjector injector(config);
    EXPECT_EQ(injector.eccAccess(100, "hbm", 1 << 20), 0u);
    EXPECT_FALSE(injector.dmaTransient(100, "dma"));
    EXPECT_DOUBLE_EQ(injector.thermalCapHz(100), 0.0);
    EXPECT_DOUBLE_EQ(injector.thermalClampHz(100, 1.4e9), 1.4e9);
    EXPECT_TRUE(injector.log().empty());
    EXPECT_EQ(injector.poisonCount(), 0u);
}

TEST(FaultInjectorTest, CorrectableEccAddsScrubStall)
{
    FaultConfig config;
    config.eccCorrectablePerGiB = 1e6; // p = 1 for MiB accesses
    config.eccScrubTicks = 12345;
    FaultInjector injector(config);
    EXPECT_EQ(injector.eccAccess(50, "hbm", 1 << 20), 12345u);
    ASSERT_EQ(injector.log().size(), 1u);
    EXPECT_EQ(injector.log()[0].kind, FaultKind::EccCorrectable);
    EXPECT_EQ(injector.log()[0].at, 50u);
    EXPECT_EQ(injector.log()[0].site, "hbm");
    EXPECT_EQ(injector.count(FaultKind::EccCorrectable), 1u);
    // Correctable errors do not poison the execution.
    EXPECT_EQ(injector.poisonCount(), 0u);
}

TEST(FaultInjectorTest, UncorrectableEccPoisons)
{
    FaultConfig config;
    config.eccUncorrectablePerGiB = 1e6;
    FaultInjector injector(config);
    EXPECT_EQ(injector.eccAccess(7, "hbm", 1 << 20), 0u); // no stall
    EXPECT_EQ(injector.count(FaultKind::EccUncorrectable), 1u);
    EXPECT_EQ(injector.poisonCount(), 1u);
}

TEST(FaultInjectorTest, ReplayIsDeterministicPerSeed)
{
    FaultConfig config;
    config.seed = 99;
    config.eccCorrectablePerGiB = 200.0;
    config.eccUncorrectablePerGiB = 50.0;
    config.dmaTransientRate = 0.3;
    struct Replay
    {
        std::vector<InjectedFault> log;
        std::uint64_t poison;
    };
    auto run = [&config]() {
        FaultInjector injector(config);
        for (int i = 0; i < 200; ++i) {
            injector.eccAccess(i * 10, "hbm", 4 << 20);
            injector.dmaTransient(i * 10 + 5, "dma");
        }
        return Replay{injector.log(), injector.poisonCount()};
    };
    Replay a = run();
    Replay b = run();
    EXPECT_FALSE(a.log.empty());
    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(a.poison, b.poison);

    config.seed = 100;
    Replay c = run();
    EXPECT_NE(a.log, c.log);
}

TEST(FaultInjectorTest, FaultClassesDrawIndependentStreams)
{
    // Adding DMA draws must not shift the ECC schedule: the classes
    // own independent RNG streams derived from the one seed.
    FaultConfig ecc_only;
    ecc_only.seed = 5;
    ecc_only.eccCorrectablePerGiB = 300.0;
    FaultConfig both = ecc_only;
    both.dmaTransientRate = 0.5;

    FaultInjector a(ecc_only);
    FaultInjector b(both);
    std::vector<Tick> stalls_a, stalls_b;
    for (int i = 0; i < 300; ++i) {
        stalls_a.push_back(a.eccAccess(i, "hbm", 8 << 20));
        stalls_b.push_back(b.eccAccess(i, "hbm", 8 << 20));
        b.dmaTransient(i, "dma"); // interleaved extra draws
    }
    EXPECT_EQ(stalls_a, stalls_b);
}

TEST(FaultInjectorTest, DmaBackoffGrowsExponentially)
{
    FaultConfig config;
    config.dmaTransientRate = 0.1;
    config.dmaRetryBackoffTicks = 1000;
    FaultInjector injector(config);
    EXPECT_EQ(injector.dmaBackoff(0), 1000u);
    EXPECT_EQ(injector.dmaBackoff(1), 2000u);
    EXPECT_EQ(injector.dmaBackoff(2), 4000u);
}

TEST(FaultInjectorTest, ThermalScheduleIsConsistentOutOfOrder)
{
    FaultConfig config;
    config.seed = 3;
    config.thermalMeanIntervalS = 1e-4;
    config.thermalMeanDurationS = 1e-4;
    config.thermalCapHz = 0.8e9;
    FaultInjector injector(config);

    // Probe far ahead first, then walk back: every answer must come
    // from the same precomputed schedule.
    Tick far = secondsToTicks(5e-3);
    double cap_far = injector.thermalCapHz(far);
    std::vector<double> forward;
    for (Tick t = 0; t <= far; t += secondsToTicks(1e-5))
        forward.push_back(injector.thermalCapHz(t));
    EXPECT_DOUBLE_EQ(injector.thermalCapHz(far), cap_far);

    // Same seed => same episodes, and the schedule is disjoint and
    // start-sorted.
    FaultInjector replay(config);
    replay.thermalCapHz(far);
    ASSERT_GE(injector.episodes().size(), replay.episodes().size());
    for (std::size_t i = 0; i < replay.episodes().size(); ++i) {
        EXPECT_EQ(injector.episodes()[i].start,
                  replay.episodes()[i].start);
        EXPECT_EQ(injector.episodes()[i].end,
                  replay.episodes()[i].end);
    }
    for (std::size_t i = 0; i < injector.episodes().size(); ++i) {
        EXPECT_LT(injector.episodes()[i].start,
                  injector.episodes()[i].end);
        if (i > 0) {
            EXPECT_GE(injector.episodes()[i].start,
                      injector.episodes()[i - 1].end);
        }
    }
}

TEST(FaultInjectorTest, WritesReplayLogJson)
{
    FaultConfig config;
    config.eccCorrectablePerGiB = 1e6;
    FaultInjector injector(config);
    injector.eccAccess(42, "dtu2.hbm", 1 << 20);
    std::ostringstream os;
    injector.writeLogJson(os);
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"kind\": \"ecc_correctable\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"at_ticks\": 42"), std::string::npos);
    EXPECT_NE(doc.find("\"site\": \"dtu2.hbm\""), std::string::npos);
}

//
// Engine hooks.
//

TEST(FaultHooksTest, HbmEccStallIsVisibleAtTheAccess)
{
    Dtu clean(dtu2Config());
    Dtu faulty(dtu2Config());
    FaultConfig config;
    config.eccCorrectablePerGiB = 1e6; // certain for MiB accesses
    config.eccScrubTicks = 777'000;
    faulty.installFaults(config);
    Tick base = clean.hbm().accessAt(0, 0, 1 << 20);
    Tick hit = faulty.hbm().accessAt(0, 0, 1 << 20);
    EXPECT_EQ(hit, base + 777'000);
    EXPECT_DOUBLE_EQ(faulty.stats().lookup("fault.ecc_correctable"),
                     1.0);
}

TEST(FaultHooksTest, DmaRetriesWithBackoffThenExhausts)
{
    Dtu clean(dtu2Config());
    Dtu faulty(dtu2Config());
    FaultConfig config;
    config.dmaTransientRate = 1.0; // every attempt fails
    config.dmaMaxRetries = 2;
    config.dmaRetryBackoffTicks = 1'000'000;
    faulty.installFaults(config);

    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 1 << 20;
    DmaResult base = clean.group(0).dma().submitAt(0, desc);
    DmaResult hit = faulty.group(0).dma().submitAt(0, desc);

    EXPECT_EQ(hit.retries, 2u);
    // Three attempts' worth of data crossed the wires.
    EXPECT_EQ(hit.srcBytes, 3 * base.srcBytes);
    EXPECT_GT(hit.done, base.done + 2 * 1'000'000u);
    FaultInjector *faults = faulty.faults();
    ASSERT_NE(faults, nullptr);
    EXPECT_EQ(faults->count(FaultKind::DmaTransient), 3u);
    EXPECT_EQ(faults->count(FaultKind::DmaRetryExhausted), 1u);
    EXPECT_EQ(faults->poisonCount(), 1u);
    EXPECT_DOUBLE_EQ(faulty.stats().lookup("fault.dma_retries"), 2.0);
}

TEST(FaultHooksTest, ThermalEpisodeCapsExecutorClock)
{
    auto run = [](bool throttled) {
        Dtu chip(dtu2Config());
        if (throttled) {
            FaultConfig config;
            // Near-permanent episode: tiny gaps, long durations.
            config.thermalMeanIntervalS = 1e-9;
            config.thermalMeanDurationS = 10.0;
            config.thermalCapHz = 0.5e9;
            chip.installFaults(config);
        }
        Graph graph = models::buildModel("conformer", 1);
        ExecutionPlan plan =
            compile(graph, chip.config(), DType::FP16, 1, {}, 1);
        Executor executor(chip, {0},
                          ExecOptions{.powerManagement = false});
        return executor.run(plan, 0);
    };
    ExecResult fast = run(false);
    ExecResult slow = run(true);
    // A 0.5 GHz cap against a 1.4 GHz ceiling must cost wall-clock.
    EXPECT_GT(slow.latency, fast.latency);
    EXPECT_LT(slow.meanFrequencyGHz, fast.meanFrequencyGHz);
}

TEST(FaultHooksTest, InstallingTwiceIsFatal)
{
    Dtu chip(dtu2Config());
    chip.installFaults({});
    EXPECT_THROW(chip.installFaults({}), FatalError);
}

TEST(FaultHooksTest, ZeroRateInjectorIsBitForBitTransparent)
{
    // The acceptance bar for opt-in: an installed injector whose
    // rates are all zero must reproduce the fault-free run exactly.
    auto trace = finalizeTrace(
        {poissonTrace("conformer", 3000.0, 10, /*seed=*/21,
                      secondsToTicks(5e-3))});
    auto run = [&trace](bool install) {
        Dtu chip(dtu2Config());
        if (install)
            chip.installFaults({});
        ResourceManager rm(chip);
        ServingConfig config;
        config.batching.maxBatch = 4;
        return serveOnChip(chip, rm, config, trace);
    };
    ServingReport off = run(false);
    ServingReport on = run(true);
    EXPECT_EQ(on.makespan, off.makespan);
    EXPECT_EQ(on.batches, off.batches);
    EXPECT_DOUBLE_EQ(on.joules, off.joules);
    EXPECT_DOUBLE_EQ(on.p99Ms, off.p99Ms);
    EXPECT_EQ(on.missedIds, off.missedIds);
    ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
    for (std::size_t i = 0; i < on.outcomes.size(); ++i) {
        EXPECT_EQ(on.outcomes[i].completed,
                  off.outcomes[i].completed);
    }
    EXPECT_EQ(on.faultsInjected, 0u);
}

//
// Serving degradation.
//

ServingConfig
degradedConfig(unsigned max_batch = 4)
{
    ServingConfig config;
    config.batching.maxBatch = max_batch;
    return config;
}

TEST(DegradationTest, AdmissionControlBouncesOverflowArrivals)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(2);
    config.degradation.admissionLimit = 3;
    // A simultaneous burst far over the queue limit.
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 1e9, 24)});
    ServingReport report = serveOnChip(chip, rm, config, trace);
    EXPECT_GT(report.rejectedRequests, 0u);
    EXPECT_EQ(report.submitted, 24u);
    EXPECT_EQ(report.requests + droppedOf(report).size(), 24u);
    for (const RequestOutcome &d : droppedOf(report))
        EXPECT_EQ(d.dropReason, DropReason::Rejected);
    EXPECT_LT(report.availability, 1.0);
    EXPECT_DOUBLE_EQ(
        chip.stats().lookup("serve.rejected_requests"),
        static_cast<double>(report.rejectedRequests));
}

TEST(DegradationTest, ServeStatsOutliveTheServerThatCounted)
{
    // The serve.* counters belong to the chip: a destroyed Server
    // leaves them readable (stats dump, lookup), and a later Server on
    // the same device keeps adding to them.
    Device device;
    ServingConfig config = degradedConfig(2);
    config.degradation.admissionLimit = 3;
    auto burst = [] {
        return finalizeTrace({fixedRateTrace("conformer", 1e9, 24)});
    };
    std::uint64_t first = 0;
    {
        Server server(device, config);
        server.submit(burst());
        first = server.serve().rejectedRequests;
    }
    ASSERT_GT(first, 0u);
    std::ostringstream dump;
    device.chip().stats().dump(dump);
    EXPECT_NE(dump.str().find("serve.rejected_requests"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(device.chip().stats().lookup("serve.rejected_requests"),
                     static_cast<double>(first));

    Server again(device, config);
    again.submit(burst());
    const std::uint64_t second = again.serve().rejectedRequests;
    EXPECT_EQ(second, first);
    EXPECT_DOUBLE_EQ(device.chip().stats().lookup("serve.rejected_requests"),
                     static_cast<double>(first + second));
    std::ostringstream prom;
    again.writePrometheus(prom);
    EXPECT_NE(prom.str().find("serve_rejected_requests"),
              std::string::npos);
}

TEST(DegradationTest, ShedsRequestsWhoseDeadlineExpired)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(1);
    config.degradation.shedExpired = true;
    // Deadlines far shorter than one execution: everything queued
    // behind the first dispatches expires while waiting.
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 1e9, 12,
                        /*deadline=*/secondsToTicks(20e-6))});
    ServingReport report = serveOnChip(chip, rm, config, trace);
    EXPECT_GT(report.shedRequests, 0u);
    EXPECT_EQ(report.requests + droppedOf(report).size(), 12u);
    // Shed requests never held a lease.
    EXPECT_EQ(rm.activeGroups(), 0u);
    // Nothing completed after its shed time recorded it as dropped.
    for (const RequestOutcome &d : droppedOf(report)) {
        EXPECT_EQ(d.dropReason, DropReason::Shed);
        EXPECT_GE(d.completed, d.request.deadline);
    }
}

TEST(DegradationTest, QueueTimeoutDropsStarvedRequests)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(1);
    config.degradation.requestTimeout = secondsToTicks(30e-6);
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 1e9, 12)}); // no deadlines
    ServingReport report = serveOnChip(chip, rm, config, trace);
    EXPECT_GT(report.timedOutRequests, 0u);
    EXPECT_EQ(report.requests + droppedOf(report).size(), 12u);
    for (const RequestOutcome &d : droppedOf(report)) {
        EXPECT_EQ(d.dropReason, DropReason::TimedOut);
        EXPECT_EQ(d.completed, d.request.arrival +
                                   config.degradation.requestTimeout);
    }
}

TEST(DegradationTest, QueueTimeoutWakesWithoutDeadlinesOrShedding)
{
    // Regression: the event loop must wake for a maturing queue
    // timeout even when it is the ONLY degradation response — no
    // deadlines on the requests (deadline == 0), shedExpired off —
    // and every lease is busy, so no completion or arrival event
    // lands before the timeout matures. The starved request must be
    // dropped at exactly arrival + requestTimeout, not whenever the
    // next batch happens to complete.
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(1);
    config.groupsPerBatch = 3; // 2 leases exhaust the 6 groups
    config.degradation.requestTimeout = secondsToTicks(5e-6);
    config.degradation.shedExpired = false;
    // Three simultaneous arrivals, batch-1: two launch immediately
    // on the two cluster leases, the third starves.
    auto trace = finalizeTrace({fixedRateTrace("conformer", 1e9, 3)});
    ServingReport report = serveOnChip(chip, rm, config, trace);
    EXPECT_EQ(report.requests, 2u);
    ASSERT_EQ(report.timedOutRequests, 1u);
    std::vector<RequestOutcome> dropped = droppedOf(report);
    ASSERT_EQ(dropped.size(), 1u);
    EXPECT_EQ(dropped[0].dropReason, DropReason::TimedOut);
    EXPECT_EQ(dropped[0].completed,
              dropped[0].request.arrival +
                  config.degradation.requestTimeout);
    // The drop fired strictly before the blocking executions ended.
    EXPECT_LT(dropped[0].completed, report.makespan);
}

TEST(DegradationTest, HugeTimeoutSaturatesInsteadOfWrapping)
{
    // Regression: "arrival + requestTimeout" used to wrap for
    // timeouts near maxTick, putting the deadline in the past and
    // dropping every request the instant it arrived. Saturating
    // arithmetic makes such a timeout mean "effectively never".
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(2);
    config.degradation.requestTimeout = maxTick - 1;
    auto trace = finalizeTrace({fixedRateTrace("conformer", 1e6, 4)});
    ASSERT_GT(trace[1].arrival, 0u); // nonzero arrivals do the wrap
    ServingReport report = serveOnChip(chip, rm, config, trace);
    EXPECT_EQ(report.requests, 4u);
    EXPECT_EQ(report.timedOutRequests, 0u);
    EXPECT_TRUE(droppedOf(report).empty());
}

TEST(DegradationTest, HugeDeadlineBudgetSaturatesInsteadOfWrapping)
{
    // Same wrap hazard one layer up: the arrival generators compute
    // "arrival + deadline" per request, and a budget near maxTick
    // used to wrap into the past, deadline-missing the entire trace
    // on completion. Saturation makes it "effectively no deadline".
    auto trace =
        finalizeTrace({fixedRateTrace("conformer", 1e6, 4,
                                      /*deadline=*/maxTick - 1)});
    ASSERT_GT(trace[1].arrival, 0u); // nonzero arrivals do the wrap
    for (const Request &r : trace) {
        // Unsaturated, "arrival + budget" would land at arrival - 2,
        // behind the arrival itself.
        EXPECT_GE(r.deadline, maxTick - 1) << "request " << r.id;
        EXPECT_GT(r.deadline, r.arrival) << "request " << r.id;
    }

    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(2);
    config.degradation.shedExpired = true;
    ServingReport report = serveOnChip(chip, rm, config, trace);
    EXPECT_EQ(report.requests, 4u);
    EXPECT_EQ(report.deadlineMisses, 0u);
    EXPECT_EQ(report.shedRequests, 0u);
}

TEST(DegradationTest, PoisonedBatchesRetryThenFail)
{
    Dtu chip(dtu2Config());
    FaultConfig faults;
    faults.eccUncorrectablePerGiB = 1e9; // every access poisons
    chip.installFaults(faults);
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(4);
    config.degradation.maxBatchRetries = 1;
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 1e9, 8)});
    ServingReport report = serveOnChip(chip, rm, config, trace);
    // Certain poison: every batch retried once, then failed whole.
    EXPECT_EQ(report.requests, 0u);
    EXPECT_EQ(report.failedRequests, 8u);
    EXPECT_EQ(report.batchRetries, report.batches);
    EXPECT_GT(report.faultsInjected, 0u);
    EXPECT_DOUBLE_EQ(report.availability, 0.0);
    // The zero-completion report stays finite (the old summarize
    // divided by the completed-request count).
    EXPECT_DOUBLE_EQ(report.achievedQps, 0.0);
    EXPECT_DOUBLE_EQ(report.missRate, 0.0);
    EXPECT_DOUBLE_EQ(report.joulesPerRequest, 0.0);
    // All leases still balanced despite the failures.
    EXPECT_EQ(rm.activeGroups(), 0u);
}

TEST(DegradationTest, FaultReplayProducesIdenticalServingRuns)
{
    // The PR's core determinism bar: same fault seed + trace =>
    // identical injected-fault log, retry counts, shed set, and
    // ServingReport across two runs on fresh chips.
    auto trace = finalizeTrace(
        {burstyTrace("conformer", 6000.0, 20, /*seed=*/13,
                     /*burst_size=*/5, /*burst_factor=*/4.0,
                     /*deadline=*/secondsToTicks(2e-3)),
         poissonTrace("resnet50", 400.0, 5, /*seed=*/17,
                      secondsToTicks(20e-3))});
    FaultConfig faults;
    faults.seed = 1234;
    faults.eccCorrectablePerGiB = 50.0;
    faults.eccUncorrectablePerGiB = 2.0;
    faults.dmaTransientRate = 0.01;
    faults.thermalMeanIntervalS = 2e-3;
    faults.thermalMeanDurationS = 1e-3;
    faults.thermalCapHz = 1.0e9;
    struct Outcome
    {
        ServingReport report;
        std::vector<InjectedFault> log;
    };
    auto run = [&]() {
        Dtu chip(dtu2Config());
        chip.installFaults(faults);
        ResourceManager rm(chip);
        ServingConfig config = degradedConfig(4);
        config.batching.maxQueueDelay = secondsToTicks(0.5e-3);
        config.degradation.shedExpired = true;
        config.degradation.maxBatchRetries = 2;
        Outcome out;
        out.report = serveOnChip(chip, rm, config, trace);
        out.log = chip.faults()->log();
        return out;
    };
    Outcome a = run();
    Outcome b = run();
    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(a.report.makespan, b.report.makespan);
    EXPECT_EQ(a.report.batches, b.report.batches);
    EXPECT_EQ(a.report.batchRetries, b.report.batchRetries);
    EXPECT_EQ(a.report.faultsInjected, b.report.faultsInjected);
    EXPECT_EQ(a.report.shedRequests, b.report.shedRequests);
    EXPECT_EQ(a.report.failedRequests, b.report.failedRequests);
    EXPECT_DOUBLE_EQ(a.report.joules, b.report.joules);
    EXPECT_EQ(a.report.missedIds, b.report.missedIds);
    ASSERT_EQ(a.report.outcomes.size(), b.report.outcomes.size());
    for (std::size_t i = 0; i < a.report.outcomes.size(); ++i) {
        EXPECT_EQ(a.report.outcomes[i].request.id,
                  b.report.outcomes[i].request.id);
        EXPECT_EQ(a.report.outcomes[i].completed,
                  b.report.outcomes[i].completed);
        EXPECT_EQ(a.report.outcomes[i].state,
                  b.report.outcomes[i].state);
        EXPECT_EQ(a.report.outcomes[i].dropReason,
                  b.report.outcomes[i].dropReason);
    }
}

TEST(DegradationTest, ReportJsonCarriesFaultFields)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = degradedConfig(2);
    config.degradation.admissionLimit = 2;
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 1e9, 10)});
    ServingReport report = serveOnChip(chip, rm, config, trace);
    std::ostringstream os;
    writeJson(report, os);
    std::string doc = os.str();
    for (const char *key :
         {"\"submitted\"", "\"availability\"", "\"shed_requests\"",
          "\"timed_out_requests\"", "\"rejected_requests\"",
          "\"failed_requests\"", "\"batch_retries\"",
          "\"faults_injected\"", "\"dropped_detail\"",
          "\"reason\""}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
}

TEST(ServingReportTest, ZeroCompletionSummarizeIsGuarded)
{
    // The direct unit test for the divide-by-zero fix: an all-shed
    // run reaches summarize() with no completions at all.
    std::vector<RequestOutcome> dropped(3);
    for (std::uint64_t i = 0; i < dropped.size(); ++i) {
        dropped[i].request.id = i + 1;
        dropped[i].request.model = "conformer";
        dropped[i].state = TerminalState::Shed;
        dropped[i].dropReason = DropReason::Shed;
        dropped[i].completed = (i + 1) * 1000;
    }
    ServingReport report =
        summarize(std::move(dropped), /*offered_qps=*/100.0,
                  /*batches=*/0, /*joules=*/2.5,
                  /*group_utilization=*/0.0);
    EXPECT_EQ(report.requests, 0u);
    EXPECT_EQ(report.submitted, 3u);
    EXPECT_EQ(report.shedRequests, 3u);
    EXPECT_DOUBLE_EQ(report.availability, 0.0);
    EXPECT_DOUBLE_EQ(report.achievedQps, 0.0);
    EXPECT_DOUBLE_EQ(report.goodputQps, 0.0);
    EXPECT_DOUBLE_EQ(report.missRate, 0.0);
    EXPECT_DOUBLE_EQ(report.joulesPerRequest, 0.0);
    EXPECT_DOUBLE_EQ(report.meanBatchSize, 0.0);
    // With zero completions there is no latency distribution: the
    // percentiles are NaN (the empty histogram's defined answer),
    // never a fabricated 0 ms tail.
    EXPECT_TRUE(std::isnan(report.p50Ms));
    EXPECT_TRUE(std::isnan(report.p95Ms));
    EXPECT_TRUE(std::isnan(report.p99Ms));
    // And the empty-trace corner: nothing submitted at all.
    ServingReport empty = summarize({}, 0.0, 0, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(empty.availability, 1.0);
    EXPECT_TRUE(std::isnan(empty.p99Ms));
    // Serialization of both stays well-formed; the NaN percentiles
    // serialize as JSON null (the writer's non-finite rule), so no
    // "nan" token ever reaches a strict parser.
    std::ostringstream os;
    writeJson(report, os);
    EXPECT_NE(os.str().find("\"availability\": 0"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"latency_p50_ms\": null"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"latency_p99_ms\": null"),
              std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
}

} // namespace

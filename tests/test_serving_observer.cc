/**
 * @file
 * The serving-observer seam (obs/serving_observer.hh) under a test
 * fake: an InvariantObserver attached through serve::Fleet checks the
 * serving conservation laws on every event of a run, instead of in
 * hand-picked assertions after it:
 *
 *  - every routed request terminates exactly once, on the device it
 *    was routed to, and its outcome says so;
 *  - event time never goes backwards, per device or fleet-wide;
 *  - at run end every generative run's KV pages allocated equal the
 *    pages freed, and none stay in use.
 *
 * It runs over a bursty data-parallel one-shot trace, a TP=2
 * generative trace, and a fault-injected mixed trace.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "api/tops_runtime.hh"
#include "obs/serving_observer.hh"
#include "runtime/executor.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "sim/fault.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;

/** Checks the serving invariants on every event it receives. */
class InvariantObserver : public obs::ServingObserver
{
  public:
    void
    onRunBegin(Tick at) override
    {
        routed_.clear();
        terminated_.clear();
        lastDevice_.clear();
        last_ = at;
        ++runs_;
    }

    void
    onRoute(unsigned device, const Request &r) override
    {
        advance(r.arrival, device);
        EXPECT_TRUE(routed_.emplace(r.id, device).second)
            << "request #" << r.id << " routed twice";
    }

    void
    onAdmit(unsigned device, const Request &r) override
    {
        advance(r.arrival, device);
        expectRoutedTo(r.id, device);
    }

    void
    onWeightLoad(unsigned device, const std::string &model, Tick start,
                 Tick end, std::uint64_t) override
    {
        // A load is scheduled now and may start later, behind the
        // device's earlier loads.
        EXPECT_GE(start, last_) << model << " on dev" << device;
        EXPECT_GE(end, start) << model << " on dev" << device;
    }

    void
    onBatchExecuted(const obs::BatchEvent &batch) override
    {
        advance(batch.dispatched, batch.device);
        EXPECT_GE(batch.launched, batch.dispatched);
        EXPECT_GE(batch.result.end, batch.launched);
        EXPECT_FALSE(batch.riders.empty());
        for (const Request &r : batch.riders)
            expectRoutedTo(r.id, batch.device);
        ++batches_;
    }

    void
    onComplete(unsigned device, const RequestOutcome &o) override
    {
        terminal(device, o);
        EXPECT_TRUE(o.completedOk());
    }

    void
    onDrop(unsigned device, const RequestOutcome &o) override
    {
        terminal(device, o);
        EXPECT_FALSE(o.completedOk());
        ++drops_;
    }

    void
    onSample(obs::FleetMetricSample &sample) override
    {
        advance(sample.at, -1);
    }

    void onClockAdvance(Tick now) override { advance(now, -1); }

    void
    onRunEnd(Tick at) override
    {
        advance(at, -1);
        EXPECT_EQ(terminated_.size(), routed_.size())
            << "a routed request never terminated";
    }

    void
    onReport(FleetReport &report) override
    {
        for (const DeviceReport &dev : report.perDevice) {
            for (const RequestOutcome &o : dev.report.outcomes)
                EXPECT_EQ(o.device, static_cast<int>(dev.device));
            expectKvBalanced(dev.report);
        }
        expectKvBalanced(report.fleet);
        ++reports_;
    }

    std::size_t terminated() const { return terminated_.size(); }
    std::uint64_t batches() const { return batches_; }
    std::uint64_t drops() const { return drops_; }
    unsigned runs() const { return runs_; }
    unsigned reports() const { return reports_; }

  private:
    /** Event time @p t on @p device (-1: fleet-wide only). */
    void
    advance(Tick t, int device)
    {
        EXPECT_GE(t, last_) << "fleet time went backwards";
        last_ = std::max(last_, t);
        if (device < 0)
            return;
        Tick &dev_last = lastDevice_[device];
        EXPECT_GE(t, dev_last) << "dev" << device << " went backwards";
        dev_last = std::max(dev_last, t);
    }

    void
    expectRoutedTo(std::uint64_t id, unsigned device) const
    {
        auto it = routed_.find(id);
        ASSERT_NE(it, routed_.end()) << "request #" << id << " unrouted";
        EXPECT_EQ(it->second, device) << "request #" << id;
    }

    void
    terminal(unsigned device, const RequestOutcome &o)
    {
        advance(o.completed, static_cast<int>(device));
        expectRoutedTo(o.request.id, device);
        EXPECT_EQ(o.device, static_cast<int>(device))
            << "request #" << o.request.id;
        EXPECT_TRUE(terminated_.insert(o.request.id).second)
            << "request #" << o.request.id << " terminated twice";
    }

    static void
    expectKvBalanced(const ServingReport &report)
    {
        if (!report.hasGeneration)
            return;
        const GenerationReport &g = report.generation;
        EXPECT_EQ(g.kvPagesAllocated, g.kvPagesFreed);
        EXPECT_EQ(g.kvPagesInUseAtEnd, 0u);
    }

    std::map<std::uint64_t, unsigned> routed_;
    std::set<std::uint64_t> terminated_;
    std::map<int, Tick> lastDevice_;
    Tick last_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t drops_ = 0;
    unsigned runs_ = 0;
    unsigned reports_ = 0;
};

/** Devices a bare Fleet borrows, and the fleet over them. */
struct TestFleet
{
    explicit TestFleet(FleetConfig config)
    {
        std::vector<Fleet::Member> members;
        for (unsigned i = 0; i < config.devices; ++i) {
            devices.push_back(std::make_unique<Device>());
            members.push_back(
                {&devices.back()->chip(), &devices.back()->resources()});
        }
        fleet = std::make_unique<Fleet>(std::move(members),
                                        std::move(config));
    }

    std::vector<std::unique_ptr<Device>> devices;
    std::unique_ptr<Fleet> fleet;
};

/** gpt_tiny generation requests, ragged prompts and lengths. */
std::vector<Request>
generativeTrace(unsigned count, std::uint64_t seed, Tick gap)
{
    std::vector<Request> trace;
    for (unsigned i = 0; i < count; ++i) {
        RequestSpec spec;
        spec.model = "gpt_tiny";
        spec.arrival = gap * i;
        spec.gen.promptLen = 16 + 8 * static_cast<unsigned>((seed + i) % 4);
        spec.gen.maxNewTokens = 3 + static_cast<unsigned>((seed + i) % 5);
        spec.gen.stop = StopPolicy::MaxTokens;
        trace.push_back(makeRequest(spec, 1000 + i));
    }
    return trace;
}

/** Serve @p trace with the invariant observer attached; checks it ran. */
FleetReport
serveObserved(Fleet &fleet, std::vector<Request> trace,
              InvariantObserver &inv)
{
    const std::size_t submitted = trace.size();
    fleet.setObservers({&inv});
    FleetReport report = fleet.serve(std::move(trace));
    EXPECT_EQ(inv.runs(), 1u);
    EXPECT_EQ(inv.reports(), 1u);
    EXPECT_EQ(inv.terminated(), submitted);
    EXPECT_GT(inv.batches(), 0u);
    EXPECT_EQ(report.fleet.submitted, submitted);
    return report;
}

TEST(ServingObserverTest, InvariantsHoldOnABurstyDataParallelTrace)
{
    FleetConfig config;
    config.devices = 4;
    config.routing = RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(500e-6);
    config.serving.degradation.admissionLimit = 6;
    config.weightLoadGbps = 8.0;
    TestFleet t(config);
    InvariantObserver inv;
    FleetReport report = serveObserved(
        *t.fleet,
        finalizeTrace({burstyTrace("resnet50", 8000.0, 32, 5, 8, 4.0),
                       burstyTrace("bert_large", 2000.0, 8, 6, 4, 4.0)}),
        inv);
    EXPECT_GT(report.fleet.requests, 0u);
    // Every device served a slice.
    for (const DeviceReport &dev : report.perDevice)
        EXPECT_GT(dev.routed, 0u) << "dev" << dev.device;
}

TEST(ServingObserverTest, InvariantsHoldOnATensorParallelGenerativeTrace)
{
    FleetConfig config;
    config.devices = 4;
    config.routing = RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 4;
    config.serving.generation.maxDecodeBatch = 4;
    config.fabric.enabled = true;
    config.fabric.topology = fabric::Topology::Ring;
    config.placement.mode = PlacementMode::TensorParallel;
    config.placement.degree = 2;
    TestFleet t(config);
    InvariantObserver inv;
    FleetReport report = serveObserved(
        *t.fleet, generativeTrace(12, 3, secondsToTicks(200e-6)), inv);
    ASSERT_EQ(report.perDevice.size(), 2u);
    EXPECT_EQ(report.fleet.requests, 12u);
    EXPECT_TRUE(report.fleet.hasGeneration);
    EXPECT_GT(report.fleet.generation.kvPagesAllocated, 0u);
    EXPECT_GT(report.fabric.totals.collectives, 0u);
}

TEST(ServingObserverTest, InvariantsHoldOnAFaultInjectedTrace)
{
    FleetConfig config;
    config.devices = 2;
    config.routing = RoutingPolicy::RoundRobin;
    config.serving.batching.maxBatch = 4;
    config.serving.degradation.maxBatchRetries = 1;
    config.serving.degradation.shedExpired = true;
    config.serving.degradation.requestTimeout = secondsToTicks(20e-3);
    TestFleet t(config);
    for (unsigned i = 0; i < config.devices; ++i) {
        FaultConfig f;
        f.seed = 11 + i;
        f.eccCorrectablePerGiB = 60.0;
        f.eccUncorrectablePerGiB = 40.0;
        f.dmaTransientRate = 5e-4;
        t.devices[i]->installFaults(f);
    }
    std::vector<Request> trace = finalizeTrace(
        {poissonTrace("resnet50", 4000.0, 24, 9, secondsToTicks(15e-3))});
    for (const Request &r :
         generativeTrace(8, 4, secondsToTicks(300e-6)))
        trace.push_back(r);
    InvariantObserver inv;
    FleetReport report = serveObserved(*t.fleet, trace, inv);
    // Faults fired, and some requests failed, shed, or timed out.
    EXPECT_GT(report.fleet.faultsInjected, 0u);
    EXPECT_GT(inv.drops(), 0u);
    EXPECT_EQ(report.fleet.requests + inv.drops(), trace.size());
}

TEST(ServingObserverTest, ObserversForceOneThreadAndChangeNoResult)
{
    // The fake sees one globally ordered stream, so a threads=2 fleet
    // serves serially with it attached; without it, in parallel. The
    // reports match either way.
    FleetConfig config;
    config.devices = 2;
    config.threads = 2;
    config.serving.batching.maxBatch = 4;
    auto trace = [] {
        return finalizeTrace({poissonTrace("resnet50", 4000.0, 16, 2)});
    };
    TestFleet plain(config);
    std::ostringstream expected;
    writeJson(plain.fleet->serve(trace()), expected, true);

    TestFleet observed(config);
    InvariantObserver inv;
    std::ostringstream got;
    writeJson(serveObserved(*observed.fleet, trace(), inv), got, true);
    EXPECT_EQ(got.str(), expected.str());
}

} // namespace

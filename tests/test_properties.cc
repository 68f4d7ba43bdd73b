/**
 * @file
 * Cross-cutting property tests: functional VMM against a host
 * reference over every (dtype, rows) pattern, sparse-codec and DMA
 * monotonicity, bandwidth-ledger conservation under out-of-order
 * arrival, executor scaling laws, and the calendar event queue
 * against a sorted-vector reference model.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "compiler/lowering.hh"
#include "core/matrix_engine.hh"
#include "dma/dma_engine.hh"
#include "dma/sparse_codec.hh"
#include "fabric/fabric.hh"
#include "models/model_zoo.hh"
#include "runtime/executor.hh"
#include "serve/arrival.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace
{

using namespace dtu;

//
// Functional VMM across every supported pattern.
//

class VmmPatternProperty
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{};

TEST_P(VmmPatternProperty, MatchesHostReference)
{
    auto dtype = static_cast<DType>(std::get<0>(GetParam()));
    unsigned rows = std::get<1>(GetParam());
    MatrixEngine engine(false);
    if (!engine.supports(rows, dtype))
        GTEST_SKIP() << "unsupported pattern";

    RegisterFile regs;
    Random rng(static_cast<std::uint64_t>(rows) * 31 +
               static_cast<std::uint64_t>(dtype));
    unsigned lanes = vectorLanes(dtype);
    double lo = dtypeIsFloat(dtype) ? -1.0 : -8.0;
    double hi = dtypeIsFloat(dtype) ? 1.0 : 8.0;
    std::vector<double> vec(rows), mat(rows * lanes);
    for (unsigned r = 0; r < rows; ++r) {
        vec[r] = dtypeQuantize(dtype, rng.uniform(lo, hi));
        regs.setVlane(0, r, vec[r]);
        for (unsigned c = 0; c < lanes; ++c) {
            mat[r * lanes + c] =
                dtypeQuantize(dtype, rng.uniform(lo, hi));
            regs.setMelem(0, r, c, mat[r * lanes + c]);
        }
    }
    regs.accZero(0);
    Instruction inst{.op = Opcode::Vmm, .dst = 0, .a = 0, .b = 0,
                     .vmmRows = static_cast<int>(rows),
                     .accumulate = true, .dtype = dtype};
    engine.executeVmm(regs, inst);
    // Tolerance scales with the dtype's precision and the reduction
    // length (accumulation happens in FP32-class registers).
    double eps = dtypeIsFloat(dtype)
                     ? rows * std::pow(2.0, -dtypeMantissaBits(dtype)) *
                           4.0
                     : 1e-9;
    for (unsigned c = 0; c < lanes; ++c) {
        double want = 0.0;
        for (unsigned r = 0; r < rows; ++r)
            want += vec[r] * mat[r * lanes + c];
        EXPECT_NEAR(regs.aclane(0, c), want,
                    std::max(eps, std::fabs(want) * eps))
            << dtypeName(dtype) << " rows=" << rows << " lane=" << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, VmmPatternProperty,
    ::testing::Combine(::testing::Range(0, numDTypes),
                       ::testing::Values(4u, 8u, 16u, 32u)),
    [](const ::testing::TestParamInfo<std::tuple<int, unsigned>> &info) {
        return dtypeName(static_cast<DType>(std::get<0>(info.param))) +
               "_rows" + std::to_string(std::get<1>(info.param));
    });

TEST(VmmPatternProperty, PatternCountMatchesSupports)
{
    // supportedPatterns() and supports() must agree exactly.
    MatrixEngine engine(false);
    auto patterns = MatrixEngine::supportedPatterns();
    for (const VmmPattern &p : patterns)
        EXPECT_TRUE(engine.supports(p.rows, p.dtype));
    std::size_t count = 0;
    for (int d = 0; d < numDTypes; ++d) {
        for (unsigned rows : {4u, 8u, 16u, 32u}) {
            if (engine.supports(rows, static_cast<DType>(d)))
                count += 2; // accumulate + overwrite
        }
    }
    EXPECT_EQ(patterns.size(), count);
}

//
// Sparse codec / DMA monotonicity.
//

class SparseMonotonicity : public ::testing::TestWithParam<int>
{};

TEST_P(SparseMonotonicity, EncodedBytesGrowWithDensity)
{
    auto numel = static_cast<std::uint64_t>(1000 + 517 * GetParam());
    std::uint64_t prev = 0;
    for (double density = 0.0; density <= 1.0; density += 0.1) {
        std::uint64_t bytes =
            sparseEncodedBytes(numel, density, DType::FP16);
        EXPECT_GE(bytes, prev);
        prev = bytes;
    }
    // Floor: the mask alone; ceiling: dense + mask.
    EXPECT_EQ(sparseEncodedBytes(numel, 0.0, DType::FP16),
              (numel + 63) / 64 * 8);
    EXPECT_EQ(sparseEncodedBytes(numel, 1.0, DType::FP16),
              (numel + 63) / 64 * 8 + numel * 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseMonotonicity,
                         ::testing::Range(0, 8));

TEST(DmaProperty, CompletionMonotoneInBytes)
{
    EventQueue queue;
    StatRegistry stats;
    ClockDomain clock(queue, 1.0e9);
    Hbm hbm("hbm", queue, &stats, 16_GiB, 819e9, 8, 0);
    Sram l2("l2", queue, &stats, MemLevel::L2, 8_MiB, 4, 83e9, 0, 0,
            333e9);
    Sram l1("l1", queue, &stats, MemLevel::L1, 1_MiB, 1, 166e9, 0);
    DmaFabric fabric;
    fabric.hbm = &hbm;
    fabric.localL2 = &l2;
    fabric.clusterL2 = {&l2};
    fabric.coreL1 = {&l1};
    DmaEngine dma("dma", queue, &stats, clock, fabric, DmaFeatures{});
    // Back-to-back transfers on one engine: completion never goes
    // backwards, and an order of magnitude more data takes strictly
    // longer (small sizes may tie within one ledger bucket).
    Tick prev = 0;
    Tick first = 0, last = 0;
    for (std::uint64_t kib = 1; kib <= 1024; kib *= 4) {
        DmaDescriptor desc;
        desc.src = MemLevel::L3;
        desc.dst = MemLevel::L2;
        desc.bytes = kib * 1024;
        DmaResult r = dma.submit(desc);
        EXPECT_GE(r.done, prev);
        prev = r.done;
        if (kib == 1)
            first = r.done;
        last = r.done;
    }
    EXPECT_GT(last, 4 * first);
}

TEST(BandwidthProperty, OutOfOrderArrivalsConserveCapacity)
{
    // Submit a late request for an early time: it must use the idle
    // capacity of the past, not queue behind already-finished work.
    EventQueue queue;
    StatRegistry stats;
    BandwidthResource pipe("pipe", queue, &stats, 1e9); // 1 GB/s
    Tick far = pipe.transferAt(10'000'000, 1000);       // at t=10us
    Tick early = pipe.transferAt(0, 1000);              // at t=0
    EXPECT_GT(far, 10'000'000u);
    EXPECT_LE(early, 2'100'000u); // finishes long before the late one
}

TEST(BandwidthProperty, SimultaneousRequestsSumToSerialTime)
{
    EventQueue queue;
    StatRegistry stats;
    BandwidthResource pipe("pipe", queue, &stats, 1e9);
    Tick a = pipe.transferAt(0, 500'000);
    Tick b = pipe.transferAt(0, 500'000);
    // Together they need 1 MB / 1 GB/s = 1 ms of capacity.
    EXPECT_NEAR(static_cast<double>(std::max(a, b)), 1e9, 1e9 * 0.01);
}

//
// Executor scaling laws.
//

TEST(ExecutorProperty, LatencyMonotoneInBatch)
{
    DtuConfig config = dtu2Config();
    Tick prev = 0;
    for (int batch : {1, 2, 4}) {
        Dtu chip(config);
        ExecutionPlan plan =
            compile(models::buildResnet50(batch), config, DType::FP16,
                    6, {}, batch);
        Executor executor(chip, {0, 1, 2, 3, 4, 5},
                          {.powerManagement = false});
        Tick latency = executor.run(plan).latency;
        EXPECT_GT(latency, prev);
        prev = latency;
    }
}

TEST(ExecutorProperty, FasterDtypeNeverSlower)
{
    DtuConfig config = dtu2Config();
    Graph g = models::buildVgg16();
    Tick prev = maxTick;
    for (DType t : {DType::FP32, DType::FP16, DType::INT8}) {
        Dtu chip(config);
        ExecutionPlan plan = compile(g, config, t, 6);
        Executor executor(chip, {0, 1, 2, 3, 4, 5},
                          {.powerManagement = false});
        Tick latency = executor.run(plan).latency;
        EXPECT_LE(latency, prev) << dtypeName(t);
        prev = latency;
    }
}

TEST(ExecutorProperty, EveryFeatureOffNeverFaster)
{
    DtuConfig config = dtu2Config();
    Graph g = models::buildResnet50();
    ExecutionPlan plan = compile(g, config, DType::FP16, 6);
    auto run_with = [&](ExecOptions options) {
        Dtu chip(config);
        Executor executor(chip, {0, 1, 2, 3, 4, 5}, options);
        return executor.run(plan).latency;
    };
    ExecOptions base{.powerManagement = false};
    Tick baseline = run_with(base);
    for (int feature = 0; feature < 5; ++feature) {
        ExecOptions options = base;
        switch (feature) {
          case 0: options.useSparse = false; break;
          case 1: options.useBroadcast = false; break;
          case 2: options.useRepeat = false; break;
          case 3: options.usePrefetch = false; break;
          case 4: options.useL2Residency = false; break;
        }
        EXPECT_GE(run_with(options) + 1000, baseline)
            << "feature " << feature;
    }
}

//
// Arrival-generator properties (serve/arrival.hh).
//

TEST(ArrivalProperty, PoissonEmpiricalMeanNearNominalRate)
{
    // The empirical rate of a long Poisson trace converges on the
    // nominal qps: with n = 4096 gaps the sample mean sits within a
    // few percent of 1/qps w.h.p.; 15% is a safely loose band that
    // still catches an inverted or mis-scaled inverse-CDF.
    for (std::uint64_t seed : {1ull, 77ull, 4096ull}) {
        double qps = 2500.0;
        auto trace =
            serve::poissonTrace("resnet50", qps, 4096, seed);
        double measured = serve::offeredQps(trace);
        EXPECT_GT(measured, qps * 0.85) << "seed " << seed;
        EXPECT_LT(measured, qps * 1.15) << "seed " << seed;
    }
}

TEST(ArrivalProperty, GeneratorsEmitStrictlyIncreasingTimestamps)
{
    // Strictly increasing, not merely monotone: exponential gaps
    // are clamped to >= 1 tick, so no two arrivals of one stream
    // ever collide on a timestamp.
    for (std::uint64_t seed : {2ull, 31ull, 999ull}) {
        for (const auto &trace :
             {serve::poissonTrace("a", 3000.0, 512, seed),
              serve::burstyTrace("a", 3000.0, 512, seed)}) {
            for (std::size_t i = 1; i < trace.size(); ++i) {
                ASSERT_GT(trace[i].arrival, trace[i - 1].arrival)
                    << "seed " << seed << " index " << i;
            }
        }
    }
}

TEST(ArrivalProperty, ExtremeRatesStillTickForward)
{
    // Regression: at rates where the mean gap is well under one
    // picosecond (here 10^13 qps, mean gap 0.1 ticks), expGap used
    // to round most gaps to 0 and stack whole traces on duplicate
    // timestamps. The clamp degrades such a trace to one arrival
    // per tick instead.
    for (std::uint64_t seed : {7ull, 1234ull}) {
        auto trace = serve::poissonTrace("a", 1e13, 256, seed);
        for (std::size_t i = 1; i < trace.size(); ++i) {
            ASSERT_GT(trace[i].arrival, trace[i - 1].arrival)
                << "seed " << seed << " index " << i;
        }
    }
}

TEST(ArrivalProperty, DeadlineIsArrivalPlusSlo)
{
    Tick slo = secondsToTicks(7e-3);
    for (const auto &trace :
         {serve::fixedRateTrace("a", 1000.0, 64, slo),
          serve::poissonTrace("a", 1000.0, 64, /*seed=*/5, slo),
          serve::burstyTrace("a", 1000.0, 64, /*seed=*/5, 8, 4.0,
                             slo)}) {
        for (const serve::Request &r : trace)
            ASSERT_EQ(r.deadline, r.arrival + slo);
    }
}

TEST(ArrivalProperty, ZeroSloLeavesDeadlineUnset)
{
    for (const serve::Request &r :
         serve::poissonTrace("a", 1000.0, 64, /*seed=*/9))
        ASSERT_EQ(r.deadline, 0u);
}

//
// Histogram percentile properties (sim/stats.hh).
//

TEST(HistogramProperty, PercentilesAreMonotoneOnRandomSamples)
{
    // p50 <= p95 <= p99 must hold for any sample set; sweep several
    // seeded random shapes (uniform, heavy-tailed, near-constant).
    Random rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        Histogram h;
        h.init(0.0, 100.0, 64);
        int samples = 50 + static_cast<int>(rng.below(500));
        for (int i = 0; i < samples; ++i) {
            double v = rng.uniform(0.0, 100.0);
            if (trial % 3 == 1)
                v = v * v / 100.0; // heavy tail toward 0
            if (trial % 3 == 2)
                v = 50.0 + v / 100.0; // near-constant
            h.sample(v);
        }
        double p50 = h.percentile(0.50);
        double p95 = h.percentile(0.95);
        double p99 = h.percentile(0.99);
        ASSERT_LE(p50, p95) << "trial " << trial;
        ASSERT_LE(p95, p99) << "trial " << trial;
        ASSERT_GE(p50, h.min()) << "trial " << trial;
        ASSERT_LE(p99, h.max()) << "trial " << trial;
    }
}

//
// The calendar event queue against a sorted-vector reference model.
//
// The EventQueue rewrite (indexed calendar buckets, eager removal)
// must preserve the kernel's ordering contract exactly: strictly
// time-ordered pops, same-tick FIFO by schedule order, reschedule
// moving an event to the back of its new tick's FIFO, and safe
// destruction of still-scheduled events.
//

/** A scheduled-event reference model: (when, serial) kept sorted. */
struct RefModel
{
    struct Item
    {
        Tick when;
        std::uint64_t serial;
        int id;
    };

    std::vector<Item> items;
    std::uint64_t nextSerial = 0;

    void
    schedule(int id, Tick when)
    {
        items.push_back({when, nextSerial++, id});
        std::sort(items.begin(), items.end(),
                  [](const Item &a, const Item &b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.serial < b.serial;
                  });
    }

    void
    deschedule(int id)
    {
        items.erase(std::find_if(items.begin(), items.end(),
                                 [&](const Item &i) {
                                     return i.id == id;
                                 }));
    }

    Item
    pop()
    {
        Item front = items.front();
        items.erase(items.begin());
        return front;
    }
};

TEST(EventQueueProperty, RandomOpsMatchReferenceModel)
{
    for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        Random rng(seed);
        EventQueue q;
        RefModel ref;
        std::vector<int> popped;

        // Events outlive the whole trial; index == id. The callback
        // records pops so the pop ORDER (not just the set) is
        // compared against the model.
        std::vector<std::unique_ptr<Event>> events;
        std::vector<bool> live;
        auto makeEvent = [&]() {
            int id = static_cast<int>(events.size());
            events.push_back(std::make_unique<Event>(
                [&popped, id] { popped.push_back(id); },
                "prop" + std::to_string(id)));
            live.push_back(false);
            return id;
        };

        for (unsigned op = 0; op < 2000; ++op) {
            double dice = rng.uniform();
            if (dice < 0.45 || ref.items.empty()) {
                // Schedule a fresh event; a coarse tick range forces
                // plenty of same-tick collisions.
                int id = makeEvent();
                Tick when =
                    q.now() + static_cast<Tick>(rng.next() % 400);
                q.schedule(*events[id], when);
                ref.schedule(id, when);
                live[id] = true;
            } else if (dice < 0.60) {
                // Deschedule a random live event.
                const RefModel::Item &victim = ref.items
                    [rng.next() % ref.items.size()];
                int id = victim.id;
                q.deschedule(*events[id]);
                ref.deschedule(id);
                live[id] = false;
            } else if (dice < 0.75) {
                // Reschedule: moves to the back of the new tick FIFO.
                const RefModel::Item &victim = ref.items
                    [rng.next() % ref.items.size()];
                int id = victim.id;
                Tick when =
                    q.now() + static_cast<Tick>(rng.next() % 400);
                q.reschedule(*events[id], when);
                ref.deschedule(id);
                ref.schedule(id, when);
            } else {
                // Pop one event and check order + time monotonicity.
                Tick before = q.now();
                std::size_t n_popped = popped.size();
                ASSERT_TRUE(q.step());
                RefModel::Item expect = ref.pop();
                ASSERT_EQ(popped.size(), n_popped + 1);
                ASSERT_EQ(popped.back(), expect.id)
                    << "seed " << seed << " op " << op;
                ASSERT_EQ(q.now(), expect.when);
                ASSERT_GE(q.now(), before);
                live[expect.id] = false;
            }
            ASSERT_EQ(q.size(), ref.items.size());
            ASSERT_EQ(q.empty(), ref.items.empty());
        }

        // Drain: the tail must come out in exact model order.
        while (!ref.items.empty()) {
            ASSERT_TRUE(q.step());
            RefModel::Item expect = ref.pop();
            ASSERT_EQ(popped.back(), expect.id);
            live[expect.id] = false;
        }
        ASSERT_FALSE(q.step());
        ASSERT_TRUE(q.empty());
        for (std::size_t id = 0; id < events.size(); ++id)
            ASSERT_EQ(events[id]->scheduled(), live[id]);
    }
}

TEST(EventQueueProperty, SameTickFifoIsStableAcrossResizes)
{
    EventQueue q;
    std::vector<int> popped;
    std::vector<std::unique_ptr<Event>> events;
    // Far more same-tick events than the initial bucket count, so
    // the ring grows (and later shrinks) mid-sequence while the
    // schedule-order FIFO within each tick must survive.
    constexpr int kPerTick = 40;
    for (int tick = 0; tick < 4; ++tick)
        for (int i = 0; i < kPerTick; ++i) {
            int id = tick * kPerTick + i;
            events.push_back(std::make_unique<Event>(
                [&popped, id] { popped.push_back(id); }));
            q.schedule(*events.back(),
                       static_cast<Tick>(100 * (tick + 1)));
        }
    q.run();
    ASSERT_EQ(popped.size(), events.size());
    for (std::size_t i = 0; i < popped.size(); ++i)
        EXPECT_EQ(popped[i], static_cast<int>(i));
    EXPECT_EQ(q.now(), 400u);
}

TEST(EventQueueProperty, SparseFarFutureEventsStayOrdered)
{
    // Events far beyond one trip around the bucket ring exercise the
    // direct-scan fallback path.
    EventQueue q;
    std::vector<Tick> fired;
    Event near([&] { fired.push_back(q.now()); });
    Event mid([&] { fired.push_back(q.now()); });
    Event far([&] { fired.push_back(q.now()); });
    q.schedule(far, 40'000'000'000ULL);
    q.schedule(mid, 7'000'000ULL);
    q.schedule(near, 3ULL);
    q.run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], 3u);
    EXPECT_EQ(fired[1], 7'000'000u);
    EXPECT_EQ(fired[2], 40'000'000'000u);
}

TEST(EventQueueProperty, DestroyingScheduledEventRemovesItSafely)
{
    // Regression: the old lazy-deletion heap kept a raw pointer to
    // descheduled events and dereferenced it at pop time — a
    // destroyed-while-scheduled event was a use-after-free. Eager
    // removal makes destruction safe.
    EventQueue q;
    int fired = 0;
    auto doomed = std::make_unique<Event>([&] { ++fired; });
    Event survivor([&] { ++fired; });
    q.schedule(*doomed, 10);
    q.schedule(survivor, 20);
    doomed.reset(); // destroys a still-scheduled event
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 20u);
}

//
// The capacity ledger against the bucket-by-bucket reference walk.
//
// CapacityLedger (mem/bandwidth) skips full buckets with a bitmap
// scan, fills empty runs in a register loop, and retires pages behind
// a horizon. None of that may change a single bit of the answer: the
// reference below is the plain walk it replaced, one hash lookup per
// bucket, with the fabric link's maxTick saturation.
//

/** The per-bucket ledger walk, kept as a reference model. */
struct RefLedger
{
    static constexpr Tick kBucketTicks = 50'000;

    explicit RefLedger(double bytes_per_second)
        : cap(bytes_per_second * ticksToSeconds(kBucketTicks))
    {
    }

    Tick
    reserve(Tick at, std::uint64_t bytes)
    {
        const std::uint64_t max_bucket = maxTick / kBucketTicks;
        double remaining = static_cast<double>(bytes);
        std::uint64_t idx = at / kBucketTicks;
        double first_frac =
            1.0 - static_cast<double>(at - idx * kBucketTicks) /
                      static_cast<double>(kBucketTicks);
        Tick done = at;
        while (remaining > 0.0) {
            if (idx >= max_bucket) {
                done = maxTick;
                break;
            }
            double bucket_cap =
                cap * (idx == at / kBucketTicks ? first_frac : 1.0);
            double &u = used[idx];
            double avail = bucket_cap - u;
            if (avail > 1e-12) {
                double take = std::min(avail, remaining);
                u += take;
                remaining -= take;
                double filled_frac = u / cap;
                done = saturatingAddTicks(
                    idx * kBucketTicks,
                    static_cast<Tick>(
                        filled_frac * static_cast<double>(kBucketTicks) +
                        0.5));
            }
            if (remaining > 0.0)
                ++idx;
        }
        return std::max(done, at);
    }

    double cap;
    std::unordered_map<std::uint64_t, double> used;
};

/** BandwidthResource's accounting over the reference walk. */
struct RefPipe
{
    RefPipe(double bytes_per_second, Tick latency)
        : ledger(bytes_per_second), bps(bytes_per_second),
          latency(latency)
    {
    }

    Tick
    transferAt(Tick at, std::uint64_t bytes)
    {
        if (bytes == 0)
            return saturatingAddTicks(at, latency);
        Tick done = ledger.reserve(at, bytes);
        freeAt = std::max(freeAt, done);
        Tick completion = saturatingAddTicks(done, latency);
        Tick pure =
            latency + static_cast<Tick>(static_cast<double>(bytes) *
                                            static_cast<double>(
                                                ticksPerSecond) /
                                            bps +
                                        0.5);
        Tick unqueued = saturatingAddTicks(at, pure);
        if (completion > unqueued)
            wait += static_cast<double>(completion - unqueued);
        return completion;
    }

    RefLedger ledger;
    double bps;
    Tick latency;
    Tick freeAt = 0;
    double wait = 0.0;
};

/** fabric::Link's accounting over the reference walk. */
struct RefLink
{
    explicit RefLink(double gbps) : ledger(gbps * 1e9), bps(gbps * 1e9) {}

    Tick
    transferAt(Tick at, std::uint64_t bytes)
    {
        if (bytes == 0)
            return at;
        Tick done = ledger.reserve(at, bytes);
        freeAt = std::max(freeAt, done);
        Tick unqueued = saturatingAddTicks(
            at, secondsToTicks(static_cast<double>(bytes) / bps));
        if (done > unqueued)
            wait = saturatingAddTicks(wait, done - unqueued);
        return done;
    }

    RefLedger ledger;
    double bps;
    Tick freeAt = 0;
    Tick wait = 0;
};

/** One step of a random ledger workload. */
struct LedgerOp
{
    /** Raise the retirement horizon to this tick first (0 = don't). */
    Tick retire = 0;
    Tick at = 0;
    std::uint64_t bytes = 0;
};

/**
 * A random out-of-order stream for a pipe of @p bytes_per_second:
 * dense overlapping traffic in a window just past the horizon (full
 * buckets everywhere, aligned and unaligned starts), zero-byte and
 * multi-page transfers, sparse far-future ticks, transfers that
 * saturate at maxTick, and — with @p retire — a rising horizon.
 */
std::vector<LedgerOp>
randomLedgerOps(std::uint64_t seed, double bytes_per_second, bool retire)
{
    constexpr Tick kBucket = RefLedger::kBucketTicks;
    constexpr double kPageBuckets = CapacityLedger::kPageBuckets;
    constexpr Tick kPage = CapacityLedger::kPageBuckets * kBucket;
    constexpr Tick kWindow = 16384 * kBucket;
    const double bucket_bytes = bytes_per_second * ticksToSeconds(kBucket);
    Random rng(seed);
    Tick horizon = 0;
    std::vector<LedgerOp> ops;
    for (unsigned i = 0; i < 200; ++i) {
        LedgerOp op;
        if (retire && rng.uniform() < 0.05) {
            horizon += rng.next() % (4 * kPage);
            op.retire = horizon;
        }
        double where = rng.uniform();
        if (where < 0.03)
            op.at = 1'000'000'000'000'000ULL + rng.next() % kWindow;
        else if (where < 0.05)
            op.at = maxTick - rng.next() % (64 * kBucket);
        else
            op.at = horizon + rng.next() % kWindow;
        if (rng.uniform() < 0.2)
            op.at -= op.at % kBucket;
        op.at = std::max(op.at, horizon);
        // 5% zero-byte, 1% spanning 4-12 pages, 34% within one
        // bucket, the rest up to 64 buckets.
        double size = rng.uniform();
        double buckets = size < 0.05 ? 0.0
                         : size < 0.06
                             ? 4 * kPageBuckets * (1 + 2 * rng.uniform())
                         : size < 0.40 ? rng.uniform()
                                       : 64.0 * rng.uniform();
        op.bytes = static_cast<std::uint64_t>(buckets * bucket_bytes);
        ops.push_back(op);
    }
    return ops;
}

/** Bandwidths with round, odd, slow, and fast bucket capacities. */
constexpr double kLedgerRates[] = {1e9, 3.7e9, 16e9, 256e9, 1234.5e6};

TEST(LedgerProperty, PipeMatchesPerBucketWalk)
{
    unsigned saturated = 0;
    for (double bps : kLedgerRates) {
        for (std::uint64_t seed : {1u, 7u, 42u}) {
            for (bool retire : {false, true}) {
                EventQueue queue;
                StatRegistry stats;
                BandwidthResource pipe("pipe", queue, &stats, bps, 500);
                RefPipe ref(bps, 500);
                unsigned step = 0;
                for (const LedgerOp &op :
                     randomLedgerOps(seed, bps, retire)) {
                    if (op.retire)
                        pipe.retireBefore(op.retire);
                    Tick done = pipe.transferAt(op.at, op.bytes);
                    ASSERT_EQ(done, ref.transferAt(op.at, op.bytes))
                        << bps << " B/s seed " << seed << " step " << step;
                    ASSERT_EQ(pipe.freeAt(), ref.freeAt);
                    ASSERT_EQ(pipe.totalWait(), ref.wait);
                    saturated += done == maxTick;
                    ++step;
                }
                EXPECT_EQ(stats.lookup("pipe.wait_ticks"), ref.wait);
            }
        }
    }
    EXPECT_GT(saturated, 0u);
}

TEST(LedgerProperty, FabricLinkMatchesPerBucketWalk)
{
    unsigned saturated = 0;
    for (double bps : kLedgerRates) {
        for (std::uint64_t seed : {3u, 11u, 99u}) {
            fabric::Link link("link", bps / 1e9);
            RefLink ref(bps / 1e9);
            unsigned step = 0;
            for (const LedgerOp &op : randomLedgerOps(seed, bps, false)) {
                Tick done = link.transferAt(op.at, op.bytes);
                ASSERT_EQ(done, ref.transferAt(op.at, op.bytes))
                    << bps << " B/s seed " << seed << " step " << step;
                ASSERT_EQ(link.freeAt(), ref.freeAt);
                ASSERT_EQ(link.totalWaitTicks(), ref.wait);
                saturated += done == maxTick;
                ++step;
            }
        }
    }
    EXPECT_GT(saturated, 0u);
}

TEST(LedgerProperty, RetiringFreesOnlyPagesBehindTheHorizon)
{
    EventQueue queue;
    BandwidthResource pipe("pipe", queue, nullptr, 1e9);
    constexpr Tick kPage =
        CapacityLedger::kPageBuckets * CapacityLedger::kBucketTicks;
    pipe.transferAt(0, 1000);
    pipe.transferAt(3 * kPage + 7, 1000);
    ASSERT_EQ(pipe.residentPages(), 2u);
    // A horizon inside page 3 keeps it: later transfers may land there.
    pipe.retireBefore(3 * kPage + 5);
    EXPECT_EQ(pipe.residentPages(), 1u);
    // A lower horizon is a no-op, not a rewind.
    pipe.retireBefore(kPage);
    EXPECT_NO_THROW(pipe.transferAt(3 * kPage + 5, 64));
}

TEST(LedgerProperty, TransferBeforeRetiredHorizonSeesIdleCapacity)
{
    // Retiring forgets the bookings in the freed pages: a later
    // transfer there recreates them empty, as on a fresh pipe, while
    // the kept pages still hold theirs.
    EventQueue queue;
    BandwidthResource pipe("pipe", queue, nullptr, 1e9);
    BandwidthResource kept("kept", queue, nullptr, 1e9);
    BandwidthResource fresh("fresh", queue, nullptr, 1e9);
    constexpr Tick kPage =
        CapacityLedger::kPageBuckets * CapacityLedger::kBucketTicks;
    // Four pages' worth at 1 GB/s: 4 x 51.2 us.
    constexpr std::uint64_t kBytes = 4 * 51'200;
    const Tick busy_end = pipe.transferAt(0, kBytes);
    ASSERT_EQ(kept.transferAt(0, kBytes), busy_end);
    EXPECT_EQ(pipe.retireBefore(2 * kPage + 5), 4u);
    EXPECT_EQ(pipe.residentPages(), 2u);
    EXPECT_EQ(pipe.transferAt(7, 64), fresh.transferAt(7, 64));
    EXPECT_EQ(pipe.residentPages(), 3u);
    const Tick late = pipe.transferAt(2 * kPage, 64);
    EXPECT_EQ(late, kept.transferAt(2 * kPage, 64));
    EXPECT_GT(late, busy_end);
}

} // namespace

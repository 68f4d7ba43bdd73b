/**
 * @file
 * Tests for the core's lazily allocated functional state and the SPU's
 * shared lookup tables: untouched L1 and accumulation registers read
 * zero and keep their bounds, a freshly built chip allocates neither,
 * and every Spu of one size evaluates through one table set, also when
 * the first ones are built from several threads at once.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "compiler/lowering.hh"
#include "core/compute_core.hh"
#include "core/spu.hh"
#include "isa/assembler.hh"
#include "models/model_zoo.hh"
#include "runtime/executor.hh"
#include "soc/dtu.hh"

namespace
{

using namespace dtu;

struct CoreHarness
{
    EventQueue queue;
    StatRegistry stats;
    ClockDomain clock{queue, 1.3e9};
    ComputeCore core{"test.core", queue, &stats, clock, CoreConfig{}};
};

/** Functional L1 words of a default (1 MiB) core. */
constexpr std::uint64_t l1Words = CoreConfig{}.l1Bytes / 4;

//
// Lazy functional state
//

TEST(LazyCoreState, FreshL1ReadsZeroWithoutAllocating)
{
    CoreHarness h;
    EXPECT_DOUBLE_EQ(h.core.l1Word(0), 0.0);
    EXPECT_DOUBLE_EQ(h.core.l1Word(l1Words - 1), 0.0);
    EXPECT_EQ(h.core.l1StorageBytes(), 0u);

    h.core.setL1Word(7, 2.5);
    EXPECT_EQ(h.core.l1StorageBytes(), l1Words * sizeof(double));
    EXPECT_DOUBLE_EQ(h.core.l1Word(7), 2.5);
    EXPECT_DOUBLE_EQ(h.core.l1Word(8), 0.0);
}

TEST(LazyCoreState, VLoadFromUnwrittenL1ReadsZeros)
{
    CoreHarness h;
    Assembler as("vload_fresh");
    as.vli(3, 9.0).sli(1, 128.0).vload(3, 1);
    h.core.run(as.finish());
    for (unsigned l = 0; l < vectorLanes(DType::FP32); ++l)
        EXPECT_DOUBLE_EQ(h.core.regs().vlane(3, l), 0.0) << "lane " << l;
}

TEST(LazyCoreState, UntouchedAccumulatorsReadZero)
{
    RegisterFile regs;
    EXPECT_DOUBLE_EQ(regs.aclane(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(regs.aclane(1023, 63), 0.0);
    regs.accZero(5);
    EXPECT_EQ(regs.accStorageBytes(), 0u);
    for (unsigned l = 0; l < 64; ++l)
        EXPECT_DOUBLE_EQ(regs.aclane(5, l), 0.0);

    regs.setAclane(5, 3, 4.0);
    EXPECT_EQ(regs.accStorageBytes(), 1024u * 64u * sizeof(double));
    EXPECT_DOUBLE_EQ(regs.aclane(5, 3), 4.0);
    EXPECT_DOUBLE_EQ(regs.aclane(4, 3), 0.0);
    regs.accZero(5);
    EXPECT_DOUBLE_EQ(regs.aclane(5, 3), 0.0);
}

TEST(LazyCoreState, BoundsHoldBeforeAllocation)
{
    CoreHarness h;
    EXPECT_THROW(h.core.l1Word(l1Words), PanicError);
    EXPECT_THROW(h.core.setL1Word(l1Words, 1.0), PanicError);
    EXPECT_NO_THROW(h.core.l1Word(l1Words - 1));
    EXPECT_EQ(h.core.l1StorageBytes(), 0u);

    Assembler as("vload_edge");
    as.sli(1, static_cast<double>(l1Words - 8));
    as.vload(2, 1); // 16 FP32 lanes cross the last word
    EXPECT_THROW(h.core.run(as.finish()), PanicError);
    EXPECT_EQ(h.core.l1StorageBytes(), 0u);

    RegisterFile regs;
    EXPECT_THROW(regs.aclane(1024, 0), PanicError);
    EXPECT_THROW(regs.aclane(-1, 0), PanicError);
    EXPECT_THROW(regs.aclane(0, 64), PanicError);
    EXPECT_THROW(regs.setAclane(1024, 0, 1.0), PanicError);
    EXPECT_THROW(regs.setAclane(0, 64, 1.0), PanicError);
    EXPECT_THROW(regs.accZero(1024), PanicError);
    EXPECT_EQ(regs.accStorageBytes(), 0u);
}

//
// Chip footprint
//

TEST(ChipFootprint, FreshChipAllocatesNoFunctionalState)
{
    Dtu chip(dtu2Config());
    ASSERT_EQ(chip.totalCores(), 24u);
    for (unsigned c = 0; c < chip.totalCores(); ++c) {
        EXPECT_EQ(chip.core(c).l1StorageBytes(), 0u) << "core " << c;
        EXPECT_EQ(chip.core(c).regs().accStorageBytes(), 0u)
            << "core " << c;
    }

    // The plan executor models compute analytically, so running a
    // model leaves the functional state untouched as well.
    ExecutionPlan plan = compile(models::buildModel("resnet50"),
                                 chip.config(), DType::FP16,
                                 chip.totalGroups());
    Executor executor(chip, {0, 1, 2, 3, 4, 5}, {});
    executor.run(plan);
    for (unsigned c = 0; c < chip.totalCores(); ++c) {
        EXPECT_EQ(chip.core(c).l1StorageBytes(), 0u) << "core " << c;
        EXPECT_EQ(chip.core(c).regs().accStorageBytes(), 0u)
            << "core " << c;
    }

    chip.core(3).setL1Word(0, 1.0);
    EXPECT_EQ(chip.core(3).l1StorageBytes(),
              chip.config().l1BytesPerCore / 4 * sizeof(double));
    EXPECT_EQ(chip.core(2).l1StorageBytes(), 0u);
}

//
// Shared SPU tables
//

/** FNV-1a over the bit patterns of evaluate() on a grid per function. */
std::uint64_t
spuFingerprint(const Spu &spu)
{
    std::uint64_t h = 1469598103934665603ull;
    for (int fi = 0; fi < numSpuFuncs; ++fi) {
        auto f = static_cast<SpuFunc>(fi);
        bool positive = f == SpuFunc::Log || f == SpuFunc::Rsqrt;
        for (int i = 0; i < 2001; ++i) {
            double x = positive ? 0.01 + 0.05 * i : -10.0 + 0.01 * i;
            for (double y : {spu.evaluate(f, x),
                             spu.evaluate(f, x, DType::FP16)}) {
                std::uint64_t bits = 0;
                std::memcpy(&bits, &y, sizeof bits);
                h = (h ^ bits) * 1099511628211ull;
            }
        }
    }
    return h;
}

// Pinned from the implementation that built private tables in every
// Spu instance; sharing the tables must not move a single bit.
constexpr std::uint64_t kSpuFingerprint512 = 0xc0aa2a9a39c278b6ull;
constexpr std::uint64_t kSpuFingerprint64 = 0xf110737644cc98abull;

TEST(SpuSharing, SharedTablesMatchPerInstanceTables)
{
    Spu a;
    Spu b(512);
    Spu small(64);
    EXPECT_EQ(spuFingerprint(a), kSpuFingerprint512);
    EXPECT_EQ(spuFingerprint(b), kSpuFingerprint512);
    EXPECT_EQ(spuFingerprint(small), kSpuFingerprint64);
    EXPECT_EQ(small.tableEntries(), 64u);

    // Copies and assignment share the tables and keep their size.
    Spu copy = small;
    EXPECT_EQ(copy.tableEntries(), 64u);
    EXPECT_EQ(spuFingerprint(copy), kSpuFingerprint64);
    copy = a;
    EXPECT_EQ(copy.tableEntries(), 512u);
    EXPECT_EQ(spuFingerprint(copy), kSpuFingerprint512);

    EXPECT_THROW(Spu(7), FatalError);
}

TEST(SpuSharing, ConcurrentFirstConstructionIsSafe)
{
    // 200 entries is used by no other test, so its table set is first
    // built here, by whichever of the threads gets there first.
    constexpr unsigned threads = 4;
    std::vector<std::uint64_t> fingerprints(threads, 0);
    std::vector<double> tanhs(threads, 0.0);
    std::latch start(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            start.arrive_and_wait();
            Spu spu(200);
            Dtu chip(dtu2Config());
            fingerprints[t] = spuFingerprint(spu);
            tanhs[t] = chip.core(t).spu().evaluate(SpuFunc::Tanh, 0.5);
        });
    }
    for (auto &thread : pool)
        thread.join();

    std::uint64_t serial = spuFingerprint(Spu(200));
    double tanh_half = Spu().evaluate(SpuFunc::Tanh, 0.5);
    for (unsigned t = 0; t < threads; ++t) {
        EXPECT_EQ(fingerprints[t], serial) << "thread " << t;
        EXPECT_EQ(tanhs[t], tanh_half) << "thread " << t;
    }
}

} // namespace

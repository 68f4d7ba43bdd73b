/**
 * @file
 * A serialized bandwidth resource and the capacity ledger behind it.
 *
 * Memory ports, HBM channels, the PCIe link, and DMA data paths are
 * all modelled as BandwidthResources: a pipe with a fixed byte rate
 * that serves requests in arrival order. A request arriving while the
 * pipe is busy queues behind the in-flight bytes, which is how
 * contention (e.g. two cores sharing an L2 port, or three DMA engines
 * hitting HBM) manifests as latency. Fabric links (fabric/fabric.hh)
 * keep their bytes in the same CapacityLedger.
 */

#ifndef DTU_MEM_BANDWIDTH_HH
#define DTU_MEM_BANDWIDTH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace dtu
{

/**
 * The capacity ledger of one fixed-rate pipe.
 *
 * Time is divided into fixed 50 ns buckets; each bucket holds rate x
 * bucket-width bytes of capacity. A reservation starting at tick t
 * consumes idle capacity from bucket(t) forward (only the part of the
 * first bucket after t is usable) and completes where its last byte
 * lands. Reservations may arrive out of simulation order (sequential
 * co-simulation of concurrent tenants): a later-submitted request for
 * an earlier tick uses whatever capacity was still idle then, instead
 * of queueing behind traffic that already finished.
 *
 * Occupancies live in 1024-bucket (8 KB) pages created on first
 * touch, each with a bitmap of its full buckets. Pages this small keep
 * the cost of zeroing new pages near the bytes actually booked:
 * serving touches only a few buckets of most pages. The walk jumps
 * over full buckets with a word scan of the bitmap and fills runs of
 * empty buckets in a register loop. A full bucket can never take
 * bytes, and every bucket that does take bytes sees the same
 * floating-point operations in the same order as a bucket-by-bucket
 * walk, so results are bit-identical to one. The rate is fixed at
 * construction, so a full bucket stays full and its bit never needs
 * clearing.
 *
 * Memory is bounded by retireBefore(), which frees the pages wholly
 * before a horizon and so forgets the bookings in them. Results stay
 * exact for a caller that reserves nothing before the horizon again;
 * a later reservation there recreates the pages empty and sees that
 * stretch as idle. Completion ticks saturate at maxTick instead of
 * wrapping.
 */
class CapacityLedger
{
  public:
    /** Width of one bucket: 50 ns. */
    static constexpr Tick kBucketTicks = 50'000;
    /** Buckets per page. */
    static constexpr std::uint64_t kPageBuckets = 1024;

    /**
     * @param owner name used in error messages.
     * @param bytes_per_second sustained rate; fatal unless positive,
     *        finite, and large enough to fill a bucket.
     */
    CapacityLedger(const std::string &owner, double bytes_per_second);

    /**
     * Schedule @p bytes (> 0) of capacity starting at @p at.
     * @return the tick the last byte lands, never before @p at, or
     *         maxTick when the walk would run past it.
     */
    Tick reserve(Tick at, std::uint64_t bytes);

    /**
     * Free every page that lies wholly before @p horizon.
     * @return the pages resident before the call.
     */
    std::size_t retireBefore(Tick horizon);

    /** Ledger pages currently allocated. */
    std::size_t residentPages() const { return pages_.size(); }

  private:
    static constexpr std::uint64_t kPageWords = kPageBuckets / 64;
    /** Buckets at or past this index would complete beyond maxTick. */
    static constexpr std::uint64_t kMaxBucket = maxTick / kBucketTicks;
    /** A bucket with at most this much idle capacity takes no bytes. */
    static constexpr double kFullEps = 1e-12;

    /** Bytes scheduled per bucket, plus one "full" bit per bucket. */
    struct Page
    {
        std::array<double, kPageBuckets> used{};
        std::array<std::uint64_t, kPageWords> full{};
    };

    /** The page numbered @p page_no, created zeroed on first touch. */
    Page &page(std::uint64_t page_no);

    /** Record that bucket @p slot of @p page takes no more bytes. */
    static void markFull(Page &page, std::uint64_t slot);

    /** First slot at or after @p slot whose bucket is not full. */
    static std::uint64_t nextOpen(const Page &page, std::uint64_t slot);

    /** Completion tick of a reservation ending in bucket @p idx. */
    Tick finish(std::uint64_t idx, double used, Tick at) const;

    /** Capacity of one bucket in bytes. */
    double bucketBytes_;
    /** Ordered by page number, so retirement erases a prefix. */
    std::map<std::uint64_t, std::unique_ptr<Page>> pages_;
    /** Last page touched (page number + slots), the fast path. */
    std::uint64_t cachedPageNo_ = ~std::uint64_t{0};
    Page *cachedPage_ = nullptr;
};

/**
 * A capacity-ledger pipe with fixed bandwidth and per-access latency.
 *
 * The bandwidth is fixed for the resource's lifetime (DVFS scales
 * core clocks, not these pipes), which is what lets the ledger treat
 * a full bucket as full forever.
 */
class BandwidthResource : public SimObject
{
  public:
    /**
     * @param name hierarchical name.
     * @param queue event queue (provides current time).
     * @param stats stat registry (may be null).
     * @param bytes_per_second sustained bandwidth.
     * @param access_latency fixed pipeline latency added to every
     *        request (ticks).
     */
    BandwidthResource(std::string name, EventQueue &queue,
                      StatRegistry *stats, double bytes_per_second,
                      Tick access_latency = 0);

    /**
     * Occupy the pipe for @p bytes starting no earlier than now.
     * @return the tick at which the last byte has been delivered.
     */
    Tick transfer(std::uint64_t bytes);

    /**
     * Like transfer() but the request enters the queue at @p at
     * (>= now) rather than at the current tick — used when an engine
     * computes a future phase without advancing global time.
     */
    Tick transferAt(Tick at, std::uint64_t bytes);

    /** Tick at which the pipe next becomes idle. */
    Tick freeAt() const { return freeAt_; }

    /** Configured bandwidth in bytes/second. */
    double bytesPerSecond() const { return bytesPerSecond_; }

    /** Pure service time for @p bytes with no queueing (ticks). */
    Tick serviceTime(std::uint64_t bytes) const;

    /** Total bytes moved through this resource. */
    double totalBytes() const { return bytesMoved_.value(); }

    /** Total ticks requests spent waiting behind earlier traffic. */
    double totalWait() const { return waitTicks_.value(); }

    /** Busy time as a fraction of [0, now]. */
    double utilization() const;

    /**
     * Free the ledger pages wholly before @p horizon (see
     * CapacityLedger::retireBefore).
     * @return the pages resident before the call.
     */
    std::size_t
    retireBefore(Tick horizon)
    {
        return ledger_.retireBefore(horizon);
    }

    /** Ledger pages currently allocated. */
    std::size_t residentPages() const { return ledger_.residentPages(); }

  private:
    double bytesPerSecond_;
    Tick accessLatency_;
    CapacityLedger ledger_;
    Tick freeAt_ = 0;
    double busyBytes_ = 0.0;

    Stat bytesMoved_;
    Stat transfers_;
    Stat waitTicks_;
};

} // namespace dtu

#endif // DTU_MEM_BANDWIDTH_HH

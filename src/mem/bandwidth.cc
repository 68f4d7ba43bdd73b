#include "mem/bandwidth.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace dtu
{

CapacityLedger::CapacityLedger(const std::string &owner,
                               double bytes_per_second)
    : bucketBytes_(bytes_per_second * ticksToSeconds(kBucketTicks))
{
    fatalIf(!(bucketBytes_ > kFullEps) || !std::isfinite(bucketBytes_),
            "bandwidth of '", owner, "' must be positive and finite (got ",
            bytes_per_second, " B/s)");
}

CapacityLedger::Page &
CapacityLedger::page(std::uint64_t page_no)
{
    if (page_no != cachedPageNo_) {
        auto [it, inserted] = pages_.try_emplace(page_no);
        if (inserted)
            it->second = std::make_unique<Page>();
        cachedPageNo_ = page_no;
        cachedPage_ = it->second.get();
    }
    return *cachedPage_;
}

std::uint64_t
CapacityLedger::nextOpen(const Page &page, std::uint64_t slot)
{
    std::uint64_t word = slot / 64;
    if (word >= kPageWords)
        return kPageBuckets;
    std::uint64_t open = ~page.full[word] & (~std::uint64_t{0} << slot % 64);
    while (open == 0) {
        if (++word == kPageWords)
            return kPageBuckets;
        open = ~page.full[word];
    }
    return word * 64 + static_cast<std::uint64_t>(std::countr_zero(open));
}

void
CapacityLedger::markFull(Page &page, std::uint64_t slot)
{
    page.full[slot / 64] |= std::uint64_t{1} << slot % 64;
}

Tick
CapacityLedger::finish(std::uint64_t idx, double used, Tick at) const
{
    // Buckets drain front-to-back: the last byte lands at the filled
    // fraction of its bucket.
    double filled_frac = used / bucketBytes_;
    Tick done = saturatingAddTicks(
        idx * kBucketTicks,
        static_cast<Tick>(filled_frac * static_cast<double>(kBucketTicks) +
                          0.5));
    return std::max(done, at);
}

Tick
CapacityLedger::reserve(Tick at, std::uint64_t bytes)
{
    const double cap = bucketBytes_;
    double remaining = static_cast<double>(bytes);
    // Place what bucket `slot` of `pg` can still take, out of the
    // `bucket_cap` bytes it offers; true once every byte is placed.
    auto fill = [&](Page &pg, std::uint64_t slot, double bucket_cap) {
        double &used = pg.used[slot];
        double avail = bucket_cap - used;
        if (avail > kFullEps) {
            double take = std::min(avail, remaining);
            used += take;
            remaining -= take;
            if (cap - used <= kFullEps)
                markFull(pg, slot);
        }
        return !(remaining > 0.0);
    };

    std::uint64_t idx = at / kBucketTicks;
    if (idx >= kMaxBucket)
        return maxTick;
    // Within the first bucket only the fraction after `at` is usable.
    // That share never exceeds the bucket, so a full first bucket
    // takes nothing here either.
    double first_frac = 1.0 - static_cast<double>(at - idx * kBucketTicks) /
                                  static_cast<double>(kBucketTicks);
    Page &first = page(idx / kPageBuckets);
    if (fill(first, idx % kPageBuckets, cap * first_frac))
        return finish(idx, first.used[idx % kPageBuckets], at);
    ++idx;

    for (;;) {
        if (idx >= kMaxBucket)
            return maxTick;
        Page &pg = page(idx / kPageBuckets);
        double *used = pg.used.data();
        const std::uint64_t base = idx - idx % kPageBuckets;
        const std::uint64_t end = std::min(kPageBuckets, kMaxBucket - base);
        std::uint64_t slot = nextOpen(pg, idx - base);
        while (slot < end) {
            // A run of empty buckets facing more than a bucket of
            // bytes: each takes exactly one bucket.
            while (used[slot] == 0.0 && remaining > cap) {
                used[slot] = cap;
                remaining -= cap;
                markFull(pg, slot);
                if (++slot == end)
                    break;
            }
            if (slot == end)
                break;
            // A partially filled bucket, or the one the bytes end in.
            if (fill(pg, slot, cap))
                return finish(base + slot, used[slot], at);
            slot = nextOpen(pg, slot + 1);
        }
        idx = base + end;
    }
}

std::size_t
CapacityLedger::retireBefore(Tick horizon)
{
    const std::size_t resident = pages_.size();
    // The page holding the horizon stays: reservations at or after
    // the horizon may still land in it.
    const std::uint64_t keep = horizon / kBucketTicks / kPageBuckets;
    pages_.erase(pages_.begin(), pages_.lower_bound(keep));
    if (cachedPageNo_ < keep) {
        cachedPageNo_ = ~std::uint64_t{0};
        cachedPage_ = nullptr;
    }
    return resident;
}

BandwidthResource::BandwidthResource(std::string name, EventQueue &queue,
                                     StatRegistry *stats,
                                     double bytes_per_second,
                                     Tick access_latency)
    : SimObject(std::move(name), queue, stats),
      bytesPerSecond_(bytes_per_second), accessLatency_(access_latency),
      ledger_(this->name(), bytes_per_second)
{
    if (stats) {
        bytesMoved_.init(*stats, this->name() + ".bytes",
                         "bytes transferred");
        transfers_.init(*stats, this->name() + ".transfers",
                        "transfer requests served");
        waitTicks_.init(*stats, this->name() + ".wait_ticks",
                        "ticks spent queued behind earlier traffic");
    }
}

Tick
BandwidthResource::serviceTime(std::uint64_t bytes) const
{
    double ticks = static_cast<double>(bytes) *
                   static_cast<double>(ticksPerSecond) / bytesPerSecond_;
    return accessLatency_ + static_cast<Tick>(ticks + 0.5);
}

Tick
BandwidthResource::transfer(std::uint64_t bytes)
{
    return transferAt(curTick(), bytes);
}

Tick
BandwidthResource::transferAt(Tick at, std::uint64_t bytes)
{
    panicIf(at < curTick(), "transferAt in the past on '", name(), "'");
    bytesMoved_ += static_cast<double>(bytes);
    ++transfers_;
    if (bytes == 0)
        return saturatingAddTicks(at, accessLatency_);

    Tick done = ledger_.reserve(at, bytes);
    busyBytes_ += static_cast<double>(bytes);
    freeAt_ = std::max(freeAt_, done);
    Tick completion = saturatingAddTicks(done, accessLatency_);
    Tick unqueued = saturatingAddTicks(at, serviceTime(bytes));
    if (completion > unqueued)
        waitTicks_ += static_cast<double>(completion - unqueued);
    return completion;
}

double
BandwidthResource::utilization() const
{
    Tick now = std::max(curTick(), freeAt_);
    if (now == 0)
        return 0.0;
    double capacity_bytes = bytesPerSecond_ * ticksToSeconds(now);
    return capacity_bytes > 0.0 ? std::min(1.0, busyBytes_ /
                                                    capacity_bytes)
                                : 0.0;
}

} // namespace dtu

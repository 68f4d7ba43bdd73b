/**
 * @file
 * Resource abstraction for multi-task/tenancy (Section IV-E, Fig. 7).
 *
 * The processing group is the minimal unit of workload deployment:
 * large workloads take a whole cluster (3 groups), medium ones 2
 * groups, small ones a single group. The resource manager hands out
 * isolated group sets per tenant, keeps groups of one tenant within a
 * cluster when possible (broadcast and L2 sharing only work
 * intra-cluster), and reports how many groups are active so idle
 * groups can be power-gated.
 */

#ifndef DTU_SOC_RESOURCE_MANAGER_HH
#define DTU_SOC_RESOURCE_MANAGER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "soc/dtu.hh"

namespace dtu
{

/** A tenant's lease on a set of processing groups. */
struct ResourceLease
{
    int tenantId = -1;
    /** Global group ids, all within one cluster. */
    std::vector<unsigned> groups;
    unsigned cluster = 0;
    /** Simulated time the lease was granted (allocate's @p now). */
    Tick since = 0;
};

/** Allocates isolated processing groups to tenants. */
class ResourceManager
{
  public:
    explicit ResourceManager(Dtu &dtu);

    /**
     * Lease @p num_groups groups (1..groupsPerCluster) for a tenant.
     * Groups are always co-located in one cluster.
     * @param now simulated time of the grant, fed into the lease
     *        accounting below (offline callers can leave it at 0).
     * @return the lease, or nullopt when no cluster has capacity.
     */
    std::optional<ResourceLease> allocate(int tenant_id,
                                          unsigned num_groups,
                                          Tick now = 0);

    /** Release a tenant's lease at simulated time @p now. */
    void release(int tenant_id, Tick now = 0);

    /** Groups currently leased. */
    unsigned activeGroups() const;
    /** Groups currently free. */
    unsigned freeGroups() const;
    /** True when @p gid is leased to someone. */
    bool isLeased(unsigned gid) const;
    /** The tenant holding @p gid, or -1. */
    int tenantOf(unsigned gid) const;
    /** True when a tenant id below @p tenant holds a lease. */
    bool leasedBelow(int tenant) const
    {
        return !tenants_.empty() && tenants_.begin()->first < tenant;
    }

    //
    // Lease accounting. The serving runtime uses these to report
    // chip occupancy; they also make lease churn observable in tests
    // without instrumenting every call site.
    //

    /** Leases granted so far. */
    std::uint64_t grants() const { return grants_; }
    /** Allocation attempts that found no capacity. */
    std::uint64_t denials() const { return denials_; }
    /** Leases released so far. */
    std::uint64_t releases() const { return releases_; }
    /** Highest number of simultaneously leased groups seen. */
    unsigned peakActiveGroups() const { return peakActive_; }

    /**
     * Integral of (leased groups x time) up to @p now: completed
     * leases contribute their full hold, live leases contribute up
     * to @p now. Time comes from the allocate()/release() @p now
     * arguments, so offline users that never pass ticks read 0.
     */
    Tick groupBusyTicks(Tick now) const;

    /** groupBusyTicks normalized by (now x totalGroups), in [0, 1]. */
    double utilization(Tick now) const;

    Dtu &dtu() { return dtu_; }

  private:
    Dtu &dtu_;
    /** gid -> tenant id (absent = free). */
    std::map<unsigned, int> leases_;
    std::map<int, ResourceLease> tenants_;
    std::uint64_t grants_ = 0;
    std::uint64_t denials_ = 0;
    std::uint64_t releases_ = 0;
    unsigned peakActive_ = 0;
    /** Busy integral of completed (released) leases. */
    Tick completedBusyTicks_ = 0;
};

} // namespace dtu

#endif // DTU_SOC_RESOURCE_MANAGER_HH

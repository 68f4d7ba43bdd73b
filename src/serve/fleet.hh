/**
 * @file
 * Multi-device fleet serving: data-parallel scale-out of the
 * request-level serving runtime.
 *
 * A Fleet fronts N independently clocked Dtu instances (each with
 * its own ResourceManager) with one discrete-event serving loop — the
 * only one: single-device serving (api::Server) is a one-member
 * fleet. A pluggable Router assigns every arrival to a device; each
 * device runs its own steppable Scheduler core (per-device queues,
 * dynamic batching, degradation), while the fleet loop owns the
 * global timeline and min-reduces the devices' next-event times, so
 * cross-device ordering is deterministic.
 *
 * With FleetConfig::threads > 1 the driver becomes a conservative
 * time-window scheduler: devices touch each other only through the
 * router at arrival times, so the span between consecutive arrivals
 * is a synchronization window. Inside a window each device advances
 * through its own internal events on its own worker thread (devices
 * share nothing but the mutex-guarded plan cache); at the window
 * barrier the fleet thread routes and admits the due arrivals, then
 * the workers settle. Because the serial loop's per-device steps at
 * ticks belonging to *other* devices are no-ops by construction
 * (settle/advance are idempotent between a device's own events and
 * admissions), the parallel schedule retires exactly the same events
 * at exactly the same simulated ticks — reports are bit-identical to
 * threads=1 at any thread count.
 *
 * Model placement is explicit: the first time the router assigns a
 * model to a device, the device "places" it, optionally paying a
 * modeled PCIe weight-load (weight bytes at weightLoadGbps GB/s,
 * serialized per device, see Scheduler::placeModel). Batches of a
 * model cannot launch on a device before its weights are resident,
 * which is what makes model-affinity routing worth having.
 *
 * This is the paper's cloud-deployment story scaled out: the i20
 * card is a PCIe device, and inference clusters scale by packing
 * cards behind one request router (data parallelism), not by model
 * sharding — so the fleet abstraction is N chips + a router, with
 * per-device SLO accounting rolled up fleet-wide.
 *
 * Beyond data parallelism, a FleetConfig can enable the interconnect
 * fabric (fabric/fabric.hh) and a model-parallel placement
 * (serve/placement.hh): the fleet then partitions its devices into
 * groups of `placement.degree`, runs one scheduler core per group
 * (on the group-leader chip, which models one representative device
 * of the lockstep group), and the schedulers submit the placement's
 * collectives and activation streams as timed fabric transfers.
 * Weight loads always cross the fabric's shared host root complex,
 * so concurrent placements contend.
 */

#ifndef DTU_SERVE_FLEET_HH
#define DTU_SERVE_FLEET_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "fabric/fabric.hh"
#include "serve/placement.hh"
#include "serve/scheduler.hh"

namespace dtu
{
namespace serve
{

/** How the fleet router picks a device for each arrival. */
enum class RoutingPolicy
{
    /** Cycle through devices in index order, stateless. */
    RoundRobin,
    /**
     * Pick the device with the fewest outstanding (queued +
     * in-flight) requests; ties break on the lowest index. The
     * classic load-aware policy: under bursty arrivals it spreads a
     * burst across idle devices instead of stacking it behind a
     * busy one, cutting tail latency.
     */
    LeastOutstanding,
    /**
     * Prefer devices that already hold the model's weights (least
     * outstanding among them); fall back to the globally least
     * loaded device, triggering a placement there. Minimizes PCIe
     * weight traffic at some load-balance cost.
     */
    ModelAffinity,
};

/** Stable lowercase name ("round_robin", ...). */
const char *routingPolicyName(RoutingPolicy policy);

/** Parse a policy name; nullopt when unknown. */
std::optional<RoutingPolicy> parseRoutingPolicy(const std::string &name);

/** Configuration of a serving fleet. */
struct FleetConfig
{
    /** Devices in the fleet. */
    unsigned devices = 1;
    /** Arrival-to-device routing policy. */
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    /** Per-device scheduler configuration (identical across devices). */
    ServingConfig serving;
    /**
     * PCIe bandwidth for first-placement weight loads, in GB/s: finite
     * and non-negative (the Fleet constructor fatals otherwise). 0,
     * the default, disables the cost model: placements are tracked
     * (affinity routing still works) but weights are resident
     * immediately.
     */
    double weightLoadGbps = 0.0;
    /**
     * Worker threads driving the devices, clamped to the fleet size.
     * 1 (the default) is the classic serial event loop. With more,
     * each device runs on its own worker under conservative
     * time-window synchronization: windows span the gaps between
     * arrival times (the only cross-device coupling — routing reads
     * device load, placement — happens at arrivals), devices share
     * nothing inside a window, and every report is bit-identical to
     * threads=1. Runs with an SLO monitor or request tracer attached
     * fall back to threads=1 (with a warning): those observers
     * promise one globally ordered record stream. So do shared-root
     * fabric topologies under a model-parallel placement, whose peer
     * traffic would cross the shared root link from worker threads.
     */
    unsigned threads = 1;
    /**
     * The interconnect fabric (off by default). When enabled, weight
     * loads route through the fabric's shared host root complex —
     * concurrent placements contend on its bandwidth ledger instead
     * of each enjoying the full weightLoadGbps — and model-parallel
     * placements run their collectives over the peer links.
     */
    fabric::FabricConfig fabric;
    /**
     * How devices are grouped into serving units (data parallel by
     * default). Tensor/pipeline placements require the fabric.
     */
    PlacementConfig placement;
};

/** One device's slice of a fleet serving run. */
struct DeviceReport
{
    /** Device index within the fleet. */
    unsigned device = 0;
    /** Arrivals the router assigned to this device. */
    std::uint64_t routed = 0;
    /** Highest arrival-queue depth the device saw. */
    std::uint64_t peakQueueDepth = 0;
    /** Models placed on this device, alphabetical. */
    std::vector<std::string> placedModels;
    /** First-placement weight loads this device paid. */
    std::uint64_t weightLoads = 0;
    /** Total modeled PCIe weight-load time. */
    Tick weightLoadTicks = 0;
    /** Total weight bytes loaded. */
    std::uint64_t weightLoadBytes = 0;
    /** The device's own serving report (its routed slice). */
    ServingReport report;
};

/** Fabric traffic rollup for the fleet report (all zero when off). */
struct FleetFabricReport
{
    bool enabled = false;
    fabric::Topology topology = fabric::Topology::SharedRoot;
    unsigned groups = 0;
    unsigned groupSize = 1;
    double linkGbps = 0.0;
    double hostGbps = 0.0;
    fabric::FabricTotals totals;
    std::vector<fabric::LinkStats> links;
};

/** Fleet-wide outcome: the aggregate plus every device's slice. */
struct FleetReport
{
    /** Devices served. */
    unsigned devices = 0;
    /** Policy that routed the trace. */
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    /** How devices were grouped into serving units. */
    PlacementConfig placement;
    /** Interconnect traffic (enabled=false keeps the JSON unchanged). */
    FleetFabricReport fabric;
    /**
     * Fleet-aggregate report over the merged completion/drop logs:
     * fleet-wide percentiles, summed batches/energy, mean device
     * utilization. For a size-1 fleet this equals perDevice[0].report.
     */
    ServingReport fleet;
    /** Per-device slices (one per placement group), index order. */
    std::vector<DeviceReport> perDevice;
};

/**
 * Routing policy implementation. route() sees the live device cores
 * (queue depths, outstanding work, placements) so policies can be
 * load- and placement-aware. Implementations must be deterministic:
 * same arrival sequence and device states => same assignment.
 */
class Router
{
  public:
    virtual ~Router() = default;

    /** Pick the device for @p request. */
    virtual unsigned route(const Request &request,
                           const std::vector<Scheduler *> &devices) = 0;

    /** Build the standard implementation of @p policy. */
    static std::unique_ptr<Router> make(RoutingPolicy policy);
};

/**
 * N steppable Scheduler cores behind one Router on one timeline.
 * The Fleet borrows the chips and managers (the api facades or their
 * callers own them); members must outlive the Fleet. Its devices
 * share one compiled-plan cache (plans are pure functions of the chip
 * config; host-side memoization only).
 */
class Fleet
{
  public:
    /** One borrowed device: a chip and its resource manager. */
    struct Member
    {
        Dtu *dtu = nullptr;
        ResourceManager *manager = nullptr;
    };

    Fleet(std::vector<Member> members, FleetConfig config);

    /** Drain a finalized arrival trace across the fleet. */
    FleetReport serve(std::vector<Request> trace);

    /** Scheduler cores in the fleet (placement groups). */
    std::size_t size() const { return devices_.size(); }

    /** Group @p i's scheduler core (e.g. for placement queries). */
    Scheduler &device(std::size_t i) { return *devices_[i]; }

    const FleetConfig &config() const { return config_; }

    /** The interconnect fabric, or nullptr when disabled. */
    const fabric::Fabric *fabricPtr() const { return fabric_.get(); }

    /**
     * Attach (or detach) a live SLO monitor fleet-wide: every
     * device's completions and drops feed one monitor whose windows
     * the fleet loop advances on the global timeline.
     */
    void setSloMonitor(obs::SloMonitor *monitor);

    /**
     * Attach (or detach) a request-lifecycle tracer. Every device
     * scheduler reports its hooks under its fleet index, the router's
     * choices become trace instants, and the fleet loop samples the
     * periodic metric time-series (obs/fleet_metrics.hh) at the
     * tracer's configured period. Without a tracer the serving loop
     * is bit-for-bit unchanged.
     */
    void setRequestTracer(obs::RequestTracer *tracer);

    /**
     * Attach (or detach) an energy monitor. Every device scheduler
     * attributes its run energy by component under its fleet index,
     * the fleet loop's metric samples carry power telemetry, and the
     * fleet report gains the per-device and aggregate energy
     * rollups. Without a monitor the serving loop is bit-for-bit
     * unchanged. The caller attaches the chips to the monitor
     * (EnergyMonitor::attach) — the fleet only drives sampling.
     */
    void setEnergyMonitor(obs::EnergyMonitor *monitor);

  private:
    /** Worker threads serve() will actually use (clamp + fallback). */
    unsigned effectiveThreads() const;

    /**
     * The parallel window loop: per-device worker threads between
     * arrival-time barriers. @p admit_up_to runs on the fleet thread
     * at each barrier (routing + admission). Returns the final
     * barrier time.
     */
    Tick serveParallel(const std::vector<Request> &trace,
                       unsigned threads, Tick start,
                       std::size_t &next_arrival,
                       const std::function<void(Tick)> &admit_up_to);

    /** Assemble the per-device and fleet-aggregate reports. */
    FleetReport
    buildReport(double offered,
                const std::vector<std::vector<Request>> &routed);

    /** (Re)build the fabric and hand it to the group schedulers. */
    void rebuildFabric();

    FleetConfig config_;
    /** Physical devices per scheduler core (1 = data parallel). */
    unsigned groupSize_ = 1;
    std::vector<std::unique_ptr<Scheduler>> devices_;
    std::vector<Scheduler *> view_;
    std::unique_ptr<fabric::Fabric> fabric_;
    std::unique_ptr<Router> router_;
    PlanCache sharedPlans_;
    /** Guards sharedPlans_ while workers compile concurrently. */
    std::mutex planMutex_;
    obs::SloMonitor *sloMon_ = nullptr;
    obs::RequestTracer *reqTracer_ = nullptr;
    obs::EnergyMonitor *energyMon_ = nullptr;
};

/**
 * Serialize a fleet report: fleet config, the aggregate report, and
 * one per-device section (routing counts, placements, weight-load
 * totals, the device's own report).
 * @param per_request include per-request logs in every section.
 */
void writeJson(const FleetReport &report, std::ostream &os,
               bool per_request = false);

} // namespace serve
} // namespace dtu

#endif // DTU_SERVE_FLEET_HH

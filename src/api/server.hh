/**
 * @file
 * The inference-server facades — the top of the redesigned host API.
 *
 * Both facades derive from the one generation-aware ServingFrontend:
 * clients describe a request with a serve::RequestSpec (model,
 * tenant, arrival, deadline, and optional GenerationParams —
 * maxNewTokens == 0 is the classic one-shot case) and submit it the
 * same way whether the backend is a single Device or a routed fleet.
 * Either way one serve::Fleet drives the devices.
 *
 *   Device device;
 *   Server server(device, {.batching = {.maxBatch = 8,
 *                                       .maxQueueDelay =
 *                                           secondsToTicks(2e-3)}});
 *   server.submit({.model = "resnet50", .arrival = a, .deadline = d});
 *   server.submit({.model = "gpt_tiny", .arrival = a,
 *                  .gen = {.promptLen = 128, .maxNewTokens = 64}});
 *   server.submit(serve::poissonTrace("bert_large", 200, 64, seed));
 *   serve::ServingReport report = server.serve();
 *
 * The Server shares the device's ResourceManager with any live
 * Streams: streams keep their leases, the batcher works in whatever
 * capacity remains.
 */

#ifndef DTU_API_SERVER_HH
#define DTU_API_SERVER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "api/tops_runtime.hh"
#include "obs/energy_monitor.hh"
#include "obs/flight_recorder.hh"
#include "obs/request_tracer.hh"
#include "obs/slo_monitor.hh"
#include "serve/fleet.hh"

namespace dtu
{

/**
 * The unified serving frontend: everything a client does to an
 * inference service, independent of whether one Device or a routed
 * fleet backs it. Both facades (Server, FleetServer) derive from it
 * and share one implementation of submission, the observers, and the
 * energy report over one serve::Fleet and its chips: a Server is a
 * one-device fleet. Load generators, benches, and tests drive either
 * through the same handle.
 */
class ServingFrontend
{
  public:
    virtual ~ServingFrontend() = default;
    ServingFrontend(const ServingFrontend &) = delete;
    ServingFrontend &operator=(const ServingFrontend &) = delete;

    /** Submit one request described by @p spec; returns its id. */
    std::uint64_t submit(const serve::RequestSpec &spec);

    /**
     * Submit a whole arrival trace (ids are reassigned so the
     * combined submission stream stays uniquely identified).
     */
    void submit(const std::vector<serve::Request> &trace);

    /** Requests submitted and not yet served. */
    std::size_t pending() const { return pending_.size(); }

    /**
     * Drain everything submitted so far and return the serving
     * report (the fleet facade aggregates across devices).
     * Subsequent submits start a fresh trace.
     *
     * To keep memory bounded, serving frees each chip's bandwidth
     * bookings behind its clock (Dtu::retireLedgersBefore), except
     * while a Stream holds a lease on that chip. Work issued later
     * at an earlier tick, such as the next serve() from tick 0 or a
     * Stream created afterwards, sees the freed stretch as idle.
     */
    virtual const serve::ServingReport &serve() = 0;

    /**
     * Attach a live SLO monitor: completions and drops from every
     * device feed it in global event order, in tumbling windows of
     * p50/p95/p99, goodput, and SLO burn rate, with threshold alert
     * callbacks firing mid-serve at the simulated time of the
     * crossing (see obs/slo_monitor.hh). Enabling twice is a
     * configuration error; without it serving is bit-for-bit
     * unchanged.
     */
    obs::SloMonitor &enableSloMonitor(obs::SloConfig config = {});

    /** The attached monitor, or nullptr. */
    obs::SloMonitor *sloMonitor() { return sloMon_.get(); }

    /**
     * Attach a request-lifecycle tracer (obs/request_tracer.hh):
     * router choices, sampled requests as causally-linked
     * queue/execute/lifecycle spans flow-linked to each chip's
     * operator timeline, and the periodic metric time-series.
     * Enabling twice is a configuration error; without it serving is
     * bit-for-bit unchanged.
     */
    obs::RequestTracer &
    enableRequestTracing(obs::RequestTraceConfig config = {});

    /** The attached tracer, or nullptr. */
    obs::RequestTracer *requestTracer() { return reqTracer_.get(); }

    /**
     * Attach an energy monitor (obs/energy_monitor.hh): each
     * placement group's leader chip is watched under the group index,
     * the numbering perDevice and the metric samples use (each gets
     * its PowerAuditTrail installed), serving reports gain
     * per-component energy attribution and J/token, metric samples
     * carry power telemetry, the flight recorder (either enable
     * order) receives the CPME/LPME decision stream, and
     * writePrometheus() exports the
     * dtusim_power_* / dtusim_energy_* families. Enabling twice is a
     * configuration error; without it serving is bit-for-bit
     * unchanged.
     */
    obs::EnergyMonitor &
    enableEnergyMonitor(obs::EnergyMonitorConfig config = {});

    /** The attached energy monitor, or nullptr. */
    obs::EnergyMonitor *energyMonitor() { return energyMon_.get(); }

    /**
     * Write the EnergyReport JSON artifact of the most recent
     * serve() to @p path (requires enableEnergyMonitor()).
     */
    void writeEnergyReport(const std::string &path);

    /**
     * Attach the SLO flight recorder: a bounded ring of recent
     * sampled request lifecycles and metric snapshots (fed by the
     * request tracer) that dumps a retrospective JSON incident report
     * the first time an SloMonitor burn-rate alert fires or an
     * installed fault injector reports a fault. Works with either
     * enable order relative to enableSloMonitor()/
     * enableRequestTracing(); fault injectors are (re)hooked at
     * serve() time so installFaults() can come later. Enabling twice
     * is a configuration error.
     */
    obs::FlightRecorder &
    enableFlightRecorder(obs::FlightRecorderConfig config = {});

    /** The attached recorder, or nullptr. */
    obs::FlightRecorder *flightRecorder() { return flightRec_.get(); }

    /**
     * Export chip stats plus serving gauges from the most recent
     * serve() in Prometheus text exposition format.
     */
    virtual void writePrometheus(std::ostream &os) = 0;

    /** The routing/serving coordinator. */
    serve::Fleet &fleet() { return *fleet_; }
    const serve::Fleet &fleet() const { return *fleet_; }

  protected:
    ServingFrontend() = default;

    /**
     * Front @p members (borrowed chips, one per device) with the
     * serving fleet. The derived facade owns the devices, so it calls
     * this once they exist.
     */
    void openFleet(std::vector<serve::Fleet::Member> members,
                   serve::FleetConfig config);

    /** Drain the pending submissions through the fleet. */
    serve::FleetReport drain();

    /** True once serve() ran. */
    bool served() const { return served_; }

    /** Every device's chip timeline, device order (trace export). */
    std::vector<const Tracer *> chipTracers() const;

    /**
     * The serving gauges of @p report under @p prefix: submitted,
     * completed, throughput, goodput, p50/p99 latency, availability,
     * and — when the run generated — tokens/s, TTFT/ITL tails, and
     * KV-cache occupancy.
     */
    static void writeServingGauges(std::ostream &os,
                                   const std::string &prefix,
                                   const serve::ServingReport &report);

  private:
    /** Hand the fleet the enabled observers in their fixed order. */
    void attachObservers();

    /** Hook the SLO monitor's alert stream into the recorder once. */
    void wireFlightAlerts();

    std::vector<Dtu *> chips_;
    std::unique_ptr<serve::Fleet> fleet_;
    std::vector<serve::Request> pending_;
    std::uint64_t nextId_ = 1;
    bool served_ = false;
    std::unique_ptr<obs::SloMonitor> sloMon_;
    std::unique_ptr<obs::RequestTracer> reqTracer_;
    std::unique_ptr<obs::EnergyMonitor> energyMon_;
    std::unique_ptr<obs::FlightRecorder> flightRec_;
    bool flightAlertsWired_ = false;
};

/**
 * Request-level serving on top of a caller-owned Device: a one-device
 * fleet over the device's chip and resource manager.
 */
class Server : public ServingFrontend
{
  public:
    explicit Server(Device &device, serve::ServingConfig config = {});

    /**
     * Drain everything submitted so far and return the device's
     * report (also retained; see lastReport()).
     */
    const serve::ServingReport &serve() override;

    /** Report of the most recent serve(). */
    const serve::ServingReport &lastReport() const { return last_; }

    const serve::ServingConfig &config() const
    {
        return fleet().config().serving;
    }

    /**
     * Write the merged request + chip Chrome trace (requires
     * enableRequestTracing()).
     */
    void writeRequestTrace(const std::string &path);

    /**
     * Export the device's chip registry under "dtusim", then the
     * dtusim_serve_* serving gauges of the most recent serve().
     */
    void writePrometheus(std::ostream &os) override;

  private:
    Device &device_;
    serve::ServingReport last_;
};

/**
 * Data-parallel serving across a fleet of devices — the multi-card
 * deployment facade. Owns N identically configured Devices and a
 * serve::Fleet that routes one submission stream across them:
 *
 *   FleetServer fleet({.devices = 4,
 *                      .routing =
 *                          serve::RoutingPolicy::LeastOutstanding,
 *                      .serving = {.batching = {.maxBatch = 8}}});
 *   fleet.submit(serve::poissonTrace("resnet50", 2000, 512, seed));
 *   serve::FleetReport report = fleet.serveFleet();
 *
 * A size-1 FleetServer is a Server over a device it owns.
 */
class FleetServer : public ServingFrontend
{
  public:
    /** Open @p config.devices devices of @p chip and front them. */
    explicit FleetServer(serve::FleetConfig config = {},
                         const DtuConfig &chip = dtu2Config());

    /**
     * Drain everything submitted so far across the fleet and return
     * the full per-device report (also retained; see lastReport()).
     */
    const serve::FleetReport &serveFleet();

    /** ServingFrontend view of serveFleet(): the fleet aggregate. */
    const serve::ServingReport &serve() override
    {
        return serveFleet().fleet;
    }

    /** Report of the most recent serve(). */
    const serve::FleetReport &lastReport() const { return last_; }

    /** Devices in the fleet. */
    unsigned size() const
    {
        return static_cast<unsigned>(devices_.size());
    }

    /** Device @p i (tracing, faults, perf sampling, stats). */
    Device &device(unsigned i) { return *devices_[i]; }

    const serve::FleetConfig &config() const { return fleet().config(); }

    /**
     * Export the merged fleet Chrome trace — request lanes plus every
     * device's chip timeline on disjoint pids, flow arrows crossing
     * between them (requires enableRequestTracing()).
     */
    void exportFleetTrace(std::ostream &os);

    /** exportFleetTrace() into a file; fatal() on I/O failure. */
    void writeFleetTrace(const std::string &path);

    /**
     * Export the whole fleet in Prometheus text exposition format:
     * every device's chip registry under a "dtusim_dev<i>" prefix,
     * then fleet-aggregate (dtusim_fleet_*) and per-device serving
     * gauges (labeled by device), fabric traffic, and the metric
     * time-series from the most recent serve().
     */
    void writePrometheus(std::ostream &os) override;

  private:
    std::vector<std::unique_ptr<Device>> devices_;
    serve::FleetReport last_;
};

} // namespace dtu

#endif // DTU_API_SERVER_HH

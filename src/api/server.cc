#include "api/server.hh"

#include <fstream>

#include "obs/prometheus.hh"
#include "sim/logging.hh"

namespace dtu
{

namespace
{

void
servingGauge(std::ostream &os, const std::string &metric,
             const std::string &help, double v)
{
    os << "# HELP " << metric << " " << help << "\n";
    os << "# TYPE " << metric << " gauge\n";
    os << metric << " " << obs::promSampleValue(v) << "\n";
}

} // namespace

void
ServingFrontend::openFleet(std::vector<serve::Fleet::Member> members,
                           serve::FleetConfig config)
{
    for (const serve::Fleet::Member &m : members)
        chips_.push_back(m.dtu);
    fleet_ = std::make_unique<serve::Fleet>(std::move(members),
                                            std::move(config));
}

std::uint64_t
ServingFrontend::submit(const serve::RequestSpec &spec)
{
    pending_.push_back(serve::makeRequest(spec, nextId_++));
    return pending_.back().id;
}

void
ServingFrontend::submit(const std::vector<serve::Request> &trace)
{
    pending_.reserve(pending_.size() + trace.size());
    for (serve::Request r : trace) {
        r.id = nextId_++;
        pending_.push_back(std::move(r));
    }
}

serve::FleetReport
ServingFrontend::drain()
{
    // (Re)hook every installed fault injector into the recorder here
    // rather than at enableFlightRecorder() time, so installFaults()
    // may come in either order.
    if (flightRec_) {
        for (unsigned i = 0; i < chips_.size(); ++i) {
            FaultInjector *inj = chips_[i]->faults();
            if (!inj)
                continue;
            obs::FlightRecorder *rec = flightRec_.get();
            inj->onFault([rec, i](const InjectedFault &f) {
                rec->trigger("fault:" +
                                 std::string(faultKindName(f.kind)) +
                                 " dev" + std::to_string(i),
                             f.at);
            });
        }
    }
    serve::FleetReport report = fleet_->serve(std::move(pending_));
    pending_.clear();
    served_ = true;
    return report;
}

obs::SloMonitor &
ServingFrontend::enableSloMonitor(obs::SloConfig config)
{
    fatalIf(sloMon_ != nullptr, "frontend already has an SLO monitor");
    sloMon_ = std::make_unique<obs::SloMonitor>(config);
    attachObservers();
    wireFlightAlerts();
    return *sloMon_;
}

obs::RequestTracer &
ServingFrontend::enableRequestTracing(obs::RequestTraceConfig config)
{
    fatalIf(reqTracer_ != nullptr,
            "frontend already has a request tracer");
    reqTracer_ = std::make_unique<obs::RequestTracer>(config);
    attachObservers();
    if (flightRec_)
        reqTracer_->setFlightRecorder(flightRec_.get());
    return *reqTracer_;
}

obs::EnergyMonitor &
ServingFrontend::enableEnergyMonitor(obs::EnergyMonitorConfig config)
{
    fatalIf(energyMon_ != nullptr,
            "frontend already has an energy monitor");
    energyMon_ = std::make_unique<obs::EnergyMonitor>(config);
    for (unsigned g = 0; g < fleet_->size(); ++g)
        energyMon_->attach(g, fleet_->device(g).chip());
    attachObservers();
    if (flightRec_)
        energyMon_->setFlightRecorder(flightRec_.get());
    return *energyMon_;
}

void
ServingFrontend::writeEnergyReport(const std::string &path)
{
    fatalIf(energyMon_ == nullptr,
            "writeEnergyReport() needs enableEnergyMonitor()");
    std::ofstream file(path);
    fatalIf(!file, "cannot open energy report '", path, "'");
    energyMon_->writeJson(file);
    fatalIf(!file.good(), "error writing energy report '", path, "'");
}

obs::FlightRecorder &
ServingFrontend::enableFlightRecorder(obs::FlightRecorderConfig config)
{
    fatalIf(flightRec_ != nullptr,
            "frontend already has a flight recorder");
    flightRec_ = std::make_unique<obs::FlightRecorder>(config);
    if (reqTracer_)
        reqTracer_->setFlightRecorder(flightRec_.get());
    if (energyMon_)
        energyMon_->setFlightRecorder(flightRec_.get());
    wireFlightAlerts();
    return *flightRec_;
}

void
ServingFrontend::attachObservers()
{
    // One fixed order, whatever order the enables came in: the energy
    // monitor annotates a metric sample before the tracer records it,
    // and the tracer's period, stated last, wins.
    std::vector<obs::ServingObserver *> observers;
    if (sloMon_)
        observers.push_back(sloMon_.get());
    if (energyMon_)
        observers.push_back(energyMon_.get());
    if (reqTracer_)
        observers.push_back(reqTracer_.get());
    fleet_->setObservers(std::move(observers));
}

void
ServingFrontend::wireFlightAlerts()
{
    // The incident sources are SLO *burn-rate* alerts and injected
    // faults; p99 alerts still land in SloMonitor::alerts().
    if (!sloMon_ || !flightRec_ || flightAlertsWired_)
        return;
    flightAlertsWired_ = true;
    obs::FlightRecorder *rec = flightRec_.get();
    sloMon_->addAlertListener([rec](const obs::SloAlert &alert) {
        if (alert.kind == "slo_burn_rate")
            rec->trigger("slo:" + alert.kind, alert.at);
    });
}

std::vector<const Tracer *>
ServingFrontend::chipTracers() const
{
    std::vector<const Tracer *> tracers;
    for (Dtu *chip : chips_)
        tracers.push_back(&chip->tracer());
    return tracers;
}

void
ServingFrontend::writeServingGauges(std::ostream &os,
                                    const std::string &prefix,
                                    const serve::ServingReport &r)
{
    servingGauge(os, prefix + "_submitted",
                 "requests the last serve submitted",
                 static_cast<double>(r.submitted));
    servingGauge(os, prefix + "_requests",
                 "requests the last serve completed",
                 static_cast<double>(r.requests));
    servingGauge(os, prefix + "_achieved_qps", "sustained throughput",
                 r.achievedQps);
    servingGauge(os, prefix + "_goodput_qps", "in-deadline throughput",
                 r.goodputQps);
    servingGauge(os, prefix + "_latency_p50_ms", "median latency",
                 r.p50Ms);
    servingGauge(os, prefix + "_latency_p99_ms", "tail latency",
                 r.p99Ms);
    servingGauge(os, prefix + "_availability", "completed / submitted",
                 r.availability);
    if (!r.hasGeneration)
        return;
    const serve::GenerationReport &g = r.generation;
    servingGauge(os, prefix + "_tokens_per_second",
                 "emitted tokens per second of serving makespan",
                 g.tokensPerSecond);
    servingGauge(os, prefix + "_ttft_p99_ms",
                 "p99 time-to-first-token", g.ttftP99Ms);
    servingGauge(os, prefix + "_itl_p99_ms",
                 "p99 inter-token latency", g.itlP99Ms);
    servingGauge(os, prefix + "_kv_peak_occupancy",
                 "peak KV-cache page occupancy (0..1)",
                 g.kvPeakOccupancy);
    servingGauge(os, prefix + "_kv_pages_in_use",
                 "KV pages still held at end of run (0 == no leak)",
                 static_cast<double>(g.kvPagesInUseAtEnd));
}

Server::Server(Device &device, serve::ServingConfig config)
    : device_(device)
{
    serve::FleetConfig one_device;
    one_device.serving = std::move(config);
    openFleet({{&device.chip(), &device.resources()}},
              std::move(one_device));
}

const serve::ServingReport &
Server::serve()
{
    last_ = std::move(drain().perDevice.front().report);
    return last_;
}

void
Server::writeRequestTrace(const std::string &path)
{
    fatalIf(requestTracer() == nullptr,
            "writeRequestTrace() needs enableRequestTracing()");
    requestTracer()->writeTrace(chipTracers(), path);
}

void
Server::writePrometheus(std::ostream &os)
{
    obs::writePrometheusText(device_.chip().stats(), os, "dtusim");
    if (!served())
        return;
    writeServingGauges(os, "dtusim_serve", last_);
    if (energyMonitor())
        energyMonitor()->writePrometheus(os);
}

FleetServer::FleetServer(serve::FleetConfig config,
                         const DtuConfig &chip)
{
    std::vector<serve::Fleet::Member> members;
    for (unsigned i = 0; i < config.devices; ++i) {
        devices_.push_back(std::make_unique<Device>(chip));
        members.push_back({&devices_.back()->chip(),
                           &devices_.back()->resources()});
    }
    openFleet(std::move(members), std::move(config));
}

const serve::FleetReport &
FleetServer::serveFleet()
{
    last_ = drain();
    return last_;
}

void
FleetServer::exportFleetTrace(std::ostream &os)
{
    fatalIf(requestTracer() == nullptr,
            "exportFleetTrace() needs enableRequestTracing()");
    requestTracer()->exportTrace(chipTracers(), os);
}

void
FleetServer::writeFleetTrace(const std::string &path)
{
    fatalIf(requestTracer() == nullptr,
            "writeFleetTrace() needs enableRequestTracing()");
    requestTracer()->writeTrace(chipTracers(), path);
}

void
FleetServer::writePrometheus(std::ostream &os)
{
    for (unsigned i = 0; i < size(); ++i) {
        obs::writePrometheusText(devices_[i]->chip().stats(), os,
                                 "dtusim_dev" + std::to_string(i));
    }
    if (!served())
        return;

    const serve::FleetReport &r = last_;
    servingGauge(os, "dtusim_fleet_devices", "devices in the fleet",
                 static_cast<double>(r.devices));
    writeServingGauges(os, "dtusim_fleet", r.fleet);

    const struct
    {
        const char *metric;
        const char *help;
        double (*get)(const serve::DeviceReport &);
    } per_device[] = {
        {"dtusim_fleet_device_routed",
         "arrivals routed to the device",
         [](const serve::DeviceReport &d) {
             return static_cast<double>(d.routed);
         }},
        {"dtusim_fleet_device_requests",
         "requests the device completed",
         [](const serve::DeviceReport &d) {
             return static_cast<double>(d.report.requests);
         }},
        {"dtusim_fleet_device_peak_queue_depth",
         "highest arrival-queue depth the device saw",
         [](const serve::DeviceReport &d) {
             return static_cast<double>(d.peakQueueDepth);
         }},
        {"dtusim_fleet_device_weight_load_ms",
         "modeled PCIe weight-load time the device paid",
         [](const serve::DeviceReport &d) {
             return ticksToMilliSeconds(d.weightLoadTicks);
         }},
        {"dtusim_fleet_device_latency_p99_ms",
         "the device's tail latency",
         [](const serve::DeviceReport &d) { return d.report.p99Ms; }},
        {"dtusim_fleet_device_group_utilization",
         "time-weighted fraction of the device's groups leased",
         [](const serve::DeviceReport &d) {
             return d.report.groupUtilization;
         }},
    };
    for (const auto &g : per_device) {
        os << "# HELP " << g.metric << " " << g.help << "\n";
        os << "# TYPE " << g.metric << " gauge\n";
        for (const serve::DeviceReport &d : r.perDevice) {
            os << g.metric << "{device=\"" << d.device << "\"} "
               << obs::promSampleValue(g.get(d)) << "\n";
        }
    }

    // Interconnect traffic (dtusim_fabric_*) when the fleet fabric
    // is enabled: totals plus one labeled sample per link.
    if (const fabric::Fabric *fab = fleet().fabricPtr()) {
        const fabric::FabricTotals t = fab->totals();
        servingGauge(os, "dtusim_fabric_collectives_total",
                     "all-reduce collectives the fabric carried",
                     static_cast<double>(t.collectives));
        servingGauge(os, "dtusim_fabric_collective_bytes_total",
                     "tensor bytes all-reduced across groups",
                     t.collectiveBytes);
        servingGauge(os, "dtusim_fabric_activation_sends_total",
                     "pipeline activation sends the fabric carried",
                     static_cast<double>(t.activationSends));
        servingGauge(os, "dtusim_fabric_activation_bytes_total",
                     "activation bytes streamed between stages",
                     t.activationBytes);
        servingGauge(os, "dtusim_fabric_weight_loads_total",
                     "weight loads routed over the host root complex",
                     static_cast<double>(t.weightLoads));
        servingGauge(os, "dtusim_fabric_weight_load_bytes_total",
                     "weight bytes the host root complex moved",
                     t.weightLoadBytes);

        const struct
        {
            const char *metric;
            const char *help;
            double (*get)(const fabric::LinkStats &);
        } per_link[] = {
            {"dtusim_fabric_link_bytes_total",
             "bytes the link carried",
             [](const fabric::LinkStats &l) { return l.bytes; }},
            {"dtusim_fabric_link_transfers_total",
             "transfers the link carried",
             [](const fabric::LinkStats &l) {
                 return static_cast<double>(l.transfers);
             }},
            {"dtusim_fabric_link_wait_ms",
             "time transfers queued behind earlier link traffic",
             [](const fabric::LinkStats &l) { return l.waitMs; }},
            {"dtusim_fabric_link_utilization",
             "busy fraction of the link's active horizon",
             [](const fabric::LinkStats &l) { return l.utilization; }},
        };
        const std::vector<fabric::LinkStats> links = fab->linkStats(0);
        for (const auto &g : per_link) {
            os << "# HELP " << g.metric << " " << g.help << "\n";
            os << "# TYPE " << g.metric << " gauge\n";
            for (const fabric::LinkStats &l : links) {
                os << g.metric << "{link=\""
                   << obs::promLabelEscape(l.name) << "\"} "
                   << obs::promSampleValue(g.get(l)) << "\n";
            }
        }
    }

    // The periodic fleet time-series (dtusim_fleet_queue_depth{...}
    // and friends) when request tracing sampled it.
    if (requestTracer() && requestTracer()->metrics().latest())
        requestTracer()->metrics().writePrometheus(os);

    // Power & energy telemetry (dtusim_power_*, dtusim_energy_*).
    if (energyMonitor())
        energyMonitor()->writePrometheus(os);
}

} // namespace dtu

/**
 * @file
 * Request-lifecycle distributed tracing for the serving runtime.
 *
 * Chip tracing (sim/tracer.hh) ends at the device edge: it shows
 * operators and DMA but not the journey a request takes through the
 * fleet. The RequestTracer closes that gap. Every request already
 * carries a unique id — that id doubles as its trace id — and the
 * serving layers report lifecycle hooks as they handle it: router
 * choice, enqueue/admission, weight placement, batch formation,
 * device execution, retry, and the terminal completion or drop.
 *
 * Sampled requests materialize as causally-linked spans in the
 * tracer's own timeline (per-device pid lanes: "dev<N>.requests"
 * processes with queue / execute / lifecycle threads), tied together
 * by Chrome flow arrows keyed on the request id. The arrows cross
 * into the *chip* tracer: while a sampled request's batch executes,
 * the scheduler force-enables the device timeline (ScopedTracerEnable)
 * and drops a flow step onto the "runtime.operators" track, so
 * opening the merged export in Perfetto walks queue wait -> batch
 * execution -> the exact operator spans that served the request.
 *
 * Sampling is head-based: whether a request is traced is a pure hash
 * of (seed, request id), decided identically at every hook site, so
 * a sampled request's chain is always complete and the decision draws
 * no simulator RNG state. The tracer is a ServingObserver
 * (obs/serving_observer.hh); with no observer attached serving output
 * is bit-for-bit unchanged (golden-asserted in the tests).
 *
 * The tracer also ingests the fleet's periodic metric snapshots
 * (obs/fleet_metrics.hh), turning them into per-device counter
 * tracks, and forwards finished lifecycles + snapshots to an
 * attached FlightRecorder.
 */

#ifndef DTU_OBS_REQUEST_TRACER_HH
#define DTU_OBS_REQUEST_TRACER_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/fleet_metrics.hh"
#include "obs/flight_recorder.hh"
#include "obs/serving_observer.hh"
#include "serve/request.hh"
#include "sim/tracer.hh"

namespace dtu
{
namespace obs
{

/** Sampling and metric policy for request tracing. */
struct RequestTraceConfig
{
    /**
     * Head-based sampling rate: the fraction of requests traced.
     * The decision is a pure function of (seed, request id), so one
     * request is either fully traced or fully invisible.
     */
    double sampleRate = 1.0;
    /** Seed for the sampling hash (independent of simulator RNGs). */
    std::uint64_t seed = 1;
    /**
     * Period of fleet metric snapshots in ticks (simulated time);
     * 0 disables the time-series. Default 100 us.
     */
    Tick metricPeriod = 100'000'000;
};

/** Samples request lifecycles into a Chrome/Perfetto timeline. */
class RequestTracer : public ServingObserver
{
  public:
    explicit RequestTracer(RequestTraceConfig config = {});
    RequestTracer(const RequestTracer &) = delete;
    RequestTracer &operator=(const RequestTracer &) = delete;

    const RequestTraceConfig &config() const { return config_; }

    /** Whole-trace sampling decision for @p id (pure, stateless). */
    bool sampled(std::uint64_t id) const;

    /** The request-lane timeline (always recording; spans are only
     *  emitted for sampled requests). */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /** Forward finished lifecycles + metric snapshots here. */
    void setFlightRecorder(FlightRecorder *recorder)
    {
        flight_ = recorder;
    }

    // The serving hooks (see ServingObserver).

    /** The router assigned @p r to @p device (fleet runs only). */
    void onRoute(unsigned device, const serve::Request &r) override;

    /** @p r passed admission control into @p device's queue. */
    void onAdmit(unsigned device, const serve::Request &r) override;

    /** @p device began a modeled weight load for @p model. */
    void onWeightLoad(unsigned device, const std::string &model,
                      Tick start, Tick end, std::uint64_t bytes) override;

    /** A batch carrying a sampled rider records its operator traces
     *  and the chip timeline (the flow-arrow targets). */
    BatchRecording
    batchRecording(const std::vector<serve::Request> &riders) const
        override;

    /**
     * A batch executed while its chip timeline was force-enabled: a
     * flow step lands inside its first operator span (the batch
     * midpoint without one) for every sampled rider.
     */
    void onBatchExecuted(const BatchEvent &batch) override;

    /** Terminal state: @p completed finished on @p device. */
    void onComplete(unsigned device,
                    const serve::RequestOutcome &completed) override;

    /** Terminal state: @p dropped left @p device's pipeline. */
    void onDrop(unsigned device,
                const serve::RequestOutcome &dropped) override;

    //
    // Metric time-series.
    //

    /** Always stated (0 included), so it wins over an energy monitor
     *  listed before the tracer. */
    std::optional<Tick> samplePeriod() const override
    {
        return config_.metricPeriod;
    }

    /** Ingest one fleet snapshot: counter tracks + series + ring. */
    void onSample(FleetMetricSample &sample) override;

    const FleetMetricSeries &metrics() const { return series_; }

    //
    // Results.
    //

    /** Finished sampled lifecycles, in terminal-event order. */
    const std::vector<RequestRecord> &finished() const
    {
        return finished_;
    }

    /** Sampled requests seen so far (terminal or not). */
    std::uint64_t sampledSeen() const { return sampledSeen_; }

    /**
     * Merged Chrome trace: the request lanes plus each device's chip
     * timeline ("dev<i>" process prefixes, disjoint pids, shared
     * flow ids). @p chips is indexed by fleet device.
     */
    void exportTrace(const std::vector<const Tracer *> &chips,
                     std::ostream &os) const;

    /** exportTrace into a file; fatal() on I/O failure. */
    void writeTrace(const std::vector<const Tracer *> &chips,
                    const std::string &path) const;

  private:
    /** The record for @p id, created (and counted) on first sight. */
    RequestRecord &recordFor(std::uint64_t id,
                             const serve::Request &r);

    /** A terminal event; @p executed marks a completion. */
    void terminal(unsigned device, const serve::RequestOutcome &outcome,
                  bool executed);

    /** Emit the finished record's spans + flows, then retire it. */
    void finishRecord(RequestRecord &rec);

    /** The merged-export parts: request lanes, then each chip. */
    std::vector<Tracer::ExportPart>
    exportParts(const std::vector<const Tracer *> &chips) const;

    static std::string deviceProcess(int device);

    RequestTraceConfig config_;
    std::uint64_t threshold_ = 0;
    Tracer tracer_;
    FleetMetricSeries series_;
    FlightRecorder *flight_ = nullptr;
    /** Sampled requests whose terminal event has not arrived. */
    std::map<std::uint64_t, RequestRecord> pending_;
    std::vector<RequestRecord> finished_;
    std::uint64_t sampledSeen_ = 0;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_REQUEST_TRACER_HH

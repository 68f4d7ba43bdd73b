/**
 * @file
 * The one event interface between the serving loop and its observers.
 *
 * serve::Fleet holds one ordered observer list; the fleet loop and its
 * Scheduler cores fan every serving event out through it. The SLO
 * monitor, the request tracer, and the energy monitor implement it,
 * and so can a test fake. Observers only observe: a batch may record
 * more for them, and the report hook may add attribution (the energy
 * rollup), but no simulated number moves. Events arrive in one global
 * order (non-decreasing time, device index order within a tick, list
 * order across observers), which is why a run with any observer
 * attached serves on one thread (FleetConfig::threads).
 */

#ifndef DTU_OBS_SERVING_OBSERVER_HH
#define DTU_OBS_SERVING_OBSERVER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/fleet_metrics.hh"
#include "serve/request.hh"
#include "sim/ticks.hh"

namespace dtu
{

class Tracer;
struct ExecResult;

namespace serve
{
struct FleetReport;
} // namespace serve

namespace obs
{

/** What a batch records for its observers; each level adds to the last. */
enum class BatchRecording
{
    None,
    /** Per-operator traces (ExecResult::trace). */
    OpTrace,
    /** The op traces plus the chip timeline, force-enabled around it. */
    Timeline,
};

/** One executed batch, after its poison retries. */
struct BatchEvent
{
    /** Fleet device (placement group) index. */
    unsigned device;
    const std::string &model;
    /** Which execution: "batch", "prefill", or "decode". */
    const char *phase;
    const std::vector<serve::Request> &riders;
    /** When the batch took its lease. */
    Tick dispatched;
    /** When its final execution launched (dispatched + retries). */
    Tick launched;
    unsigned retries;
    const ExecResult &result;
    /** The device's chip timeline (enabled if Timeline was asked). */
    Tracer &chip;
};

/**
 * Receives the serving loop's events. Every hook is a no-op by
 * default; devices are fleet (placement group) indices.
 */
class ServingObserver
{
  public:
    virtual ~ServingObserver() = default;

    /** A serving run starts / ended at simulated time @p at. */
    virtual void onRunBegin(Tick /*at*/) {}
    virtual void onRunEnd(Tick /*at*/) {}

    /** The router sent @p r to @p device; @p r passed its admission. */
    virtual void onRoute(unsigned /*device*/, const serve::Request &) {}
    virtual void onAdmit(unsigned /*device*/, const serve::Request &) {}

    /** @p device loads @p model's weights over [start, end). */
    virtual void onWeightLoad(unsigned /*device*/,
                              const std::string & /*model*/,
                              Tick /*start*/, Tick /*end*/,
                              std::uint64_t /*bytes*/)
    {
    }

    /** What the batch about to carry @p riders must record. */
    virtual BatchRecording
    batchRecording(const std::vector<serve::Request> & /*riders*/) const
    {
        return BatchRecording::None;
    }

    /** A batch executed; its chip timeline scope is still open. */
    virtual void onBatchExecuted(const BatchEvent &) {}

    /** Terminal states: a request completed / was dropped. */
    virtual void onComplete(unsigned, const serve::RequestOutcome &) {}
    virtual void onDrop(unsigned, const serve::RequestOutcome &) {}

    /**
     * The metric-sample period this observer asks for, or nullopt for
     * no opinion. The last observer in the list that states one wins
     * (0 = no periodic samples).
     */
    virtual std::optional<Tick> samplePeriod() const { return {}; }

    /** A metric sample; observers may annotate it for later ones. */
    virtual void onSample(FleetMetricSample &) {}

    /** The fleet loop finished every step at @p now. */
    virtual void onClockAdvance(Tick /*now*/) {}

    /** The run's report is assembled; attribution may be added. */
    virtual void onReport(serve::FleetReport &) {}

  protected:
    ServingObserver() = default;
    ServingObserver(const ServingObserver &) = default;
    ServingObserver &operator=(const ServingObserver &) = default;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_SERVING_OBSERVER_HH

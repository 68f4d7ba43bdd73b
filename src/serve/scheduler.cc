#include "serve/scheduler.hh"

#include <algorithm>
#include <limits>

#include "compiler/lowering.hh"
#include "fabric/fabric.hh"
#include "models/model_zoo.hh"
#include "obs/serving_observer.hh"
#include "serve/arrival.hh"
#include "sim/logging.hh"
#include "sim/tracer.hh"
#include "tensor/dtype.hh"

namespace dtu
{
namespace serve
{

namespace
{

constexpr Tick kNever = std::numeric_limits<Tick>::max();

} // namespace

Scheduler::Scheduler(Dtu &dtu, ResourceManager &manager,
                     ServingConfig config, PlanCache &plans,
                     std::mutex &plan_mutex, unsigned device,
                     const std::vector<obs::ServingObserver *> &observers)
    : dtu_(dtu), manager_(manager), config_(std::move(config)),
      plans_(plans), planMutex_(plan_mutex), device_(device),
      observers_(observers),
      shedStat_(dtu.stats().counter(
          "serve.shed_requests",
          "queued requests shed after deadline expiry")),
      timedOutStat_(dtu.stats().counter(
          "serve.timed_out_requests",
          "queued requests dropped by timeout")),
      rejectedStat_(dtu.stats().counter(
          "serve.rejected_requests",
          "arrivals bounced by admission control")),
      failedStat_(dtu.stats().counter(
          "serve.failed_requests",
          "requests whose batch stayed poisoned")),
      retryStat_(dtu.stats().counter("serve.batch_retries",
                                     "poisoned-batch re-executions"))
{
    fatalIf(config_.batching.maxBatch == 0,
            "dynamic batch size must be at least 1");
    for (const auto &[model, cap] : config_.batching.perModelMaxBatch)
        fatalIf(cap == 0, "per-model batch cap for '", model,
                "' must be at least 1");
    fatalIf(config_.groupsPerBatch == 0 ||
                config_.groupsPerBatch >
                    dtu_.config().groupsPerCluster,
            "groups per batch must be 1..",
            dtu_.config().groupsPerCluster);
    fatalIf(config_.generation.maxDecodeBatch == 0,
            "decode batch size must be at least 1");
    fatalIf(config_.generation.ctxBucket == 0,
            "generation context bucket must be at least 1");
}

template <typename BuildGraph>
const ExecutionPlan &
Scheduler::cachedPlan(const std::pair<std::string, unsigned> &key,
                      BuildGraph &&build)
{
    // Look up under the lock, compile outside it (plans are pure
    // functions of the graph and chip config, so a concurrent racer
    // just builds a duplicate and the try_emplace loser is
    // discarded). std::map entries are reference-stable and never
    // erased, so the returned reference is safe to use unlocked.
    {
        std::lock_guard<std::mutex> lock(planMutex_);
        auto it = plans_.find(key);
        if (it != plans_.end())
            return it->second;
    }
    ExecutionPlan compiled =
        compile(build(), dtu_.config(), config_.dtype,
                config_.groupsPerBatch, {},
                static_cast<int>(key.second));
    std::lock_guard<std::mutex> lock(planMutex_);
    return plans_.try_emplace(key, std::move(compiled)).first->second;
}

const ExecutionPlan &
Scheduler::plan(const std::string &model, unsigned batch)
{
    return cachedPlan(std::make_pair(model, batch), [&] {
        return models::buildModel(model, static_cast<int>(batch));
    });
}

const ExecutionPlan &
Scheduler::decoderPlan(const std::string &model, unsigned batch,
                       unsigned len, bool prefill)
{
    // The cache key encodes the phase, the context bucket, and the
    // shard, so a tensor-parallel plan never collides with the full
    // model's ("gpt_tiny@p128", "gpt_tiny@d256!tp2").
    const unsigned tp = tpDegreeFor(model);
    std::string key = model + (prefill ? "@p" : "@d") + std::to_string(len);
    if (tp > 1)
        key += "!tp" + std::to_string(tp);
    return cachedPlan(std::make_pair(key, batch), [&] {
        const int b = static_cast<int>(batch);
        const int l = static_cast<int>(len);
        if (prefill) {
            return tp > 1 ? models::buildDecoderPrefillTP(model, b, l, tp)
                          : models::buildDecoderPrefill(model, b, l);
        }
        return tp > 1 ? models::buildDecoderStepTP(model, b, l, tp)
                      : models::buildDecoderStep(model, b, l);
    });
}

bool
Scheduler::shardedDecoder(const std::string &model) const
{
    return fabric_ &&
           placement_.mode != PlacementMode::DataParallel &&
           placement_.degree > 1 &&
           models::decoderSpec(model) != nullptr;
}

unsigned
Scheduler::tpDegreeFor(const std::string &model) const
{
    return fabric_ &&
                   placement_.mode == PlacementMode::TensorParallel &&
                   placement_.degree > 1 &&
                   models::decoderSpec(model)
               ? placement_.degree
               : 1;
}

unsigned
Scheduler::bucketLen(unsigned len) const
{
    const unsigned bucket = config_.generation.ctxBucket;
    return ((std::max(len, 1u) + bucket - 1) / bucket) * bucket;
}

std::uint64_t
Scheduler::bytesPerTokenFor(const std::string &model)
{
    auto it = kvBytesPerToken_.find(model);
    if (it == kvBytesPerToken_.end()) {
        const models::DecoderSpec *spec = models::decoderSpec(model);
        fatalIf(!spec, "'", model, "' is not a decoder model");
        std::uint64_t bytes =
            models::kvBytesPerToken(*spec, dtypeBytes(config_.dtype));
        // A sharded model keeps only its share of the KV cache per
        // device (heads under TP, layers under PP).
        if (shardedDecoder(model))
            bytes = std::max<std::uint64_t>(bytes / placement_.degree,
                                            1);
        it = kvBytesPerToken_.emplace(model, bytes).first;
    }
    return it->second;
}

std::uint64_t
Scheduler::kvTokens(const Request &r) const
{
    return static_cast<std::uint64_t>(r.gen.promptLen) +
           r.targetNewTokens();
}

KvCache &
Scheduler::ensureKv()
{
    if (!kv_)
        kv_ = std::make_unique<KvCache>(config_.generation.kv);
    return *kv_;
}

void
Scheduler::begin(Tick start, const std::map<std::string, unsigned> *future)
{
    (void)start;
    future_ = future;
    queue_ = RequestQueue();
    genQueue_ = RequestQueue();
    active_.clear();
    decoding_.clear();
    decodeReady_.clear();
    outcomes_.clear();
    completedN_ = 0;
    droppedN_ = 0;
    kv_.reset();
    genLog_ = GenerationLog();
    batches_ = 0;
    batchRetries_ = 0;
    nextTenant_ = config_.tenantBase;
    lastCompletion_ = 0;
    peakQueue_ = 0;
    joulesBefore_ = dtu_.energy().joules();
    faults_ = dtu_.faults();
    faultsBefore_ = faults_ ? faults_->log().size() : 0;
    weightReady_.clear();
    loadCursor_ = 0;
    weightLoads_ = 0;
    weightLoadTicks_ = 0;
    weightLoadBytes_ = 0;

    Tracer &tracer = dtu_.tracer();
    if (config_.exec.timeline)
        tracer.setEnabled(true);
    timeline_ = tracer.enabled();
    placeTrackMade_ = false;
    decodeTrackMade_ = false;
    fabricTrackMade_ = false;
    if (timeline_) {
        reqTrack_ = tracer.track("serve", "requests");
        batchTrack_ = tracer.track("serve", "batches");
        dropTrack_ = tracer.track("serve", "degradation");
    }
}

unsigned
Scheduler::futureCount(const std::string &model) const
{
    if (!future_)
        return 0;
    auto it = future_->find(model);
    return it == future_->end() ? 0 : it->second;
}

Tick
Scheduler::weightReadyAt(const std::string &model) const
{
    auto it = weightReady_.find(model);
    return it == weightReady_.end() ? 0 : it->second;
}

std::uint64_t
Scheduler::placedWeightBytes(const std::string &model)
{
    const models::DecoderSpec *spec = models::decoderSpec(model);
    if (!spec)
        return plan(model, 1).totalWeightBytes();
    if (fabric_ &&
        placement_.mode == PlacementMode::PipelineParallel &&
        placement_.degree > 1) {
        // Per-device residency under pipeline parallelism is the
        // largest stage's share of the layer stack.
        const unsigned stages = placement_.degree;
        std::uint64_t worst = 0;
        for (unsigned s = 0; s < stages; ++s) {
            const ExecutionPlan &sp = cachedPlan(
                std::make_pair(model + "@p" +
                                   std::to_string(bucketLen(1)) + "!s" +
                                   std::to_string(s) + "of" +
                                   std::to_string(stages),
                               1u),
                [&] {
                    return models::buildDecoderPrefillStage(
                        model, 1, static_cast<int>(bucketLen(1)), s,
                        stages);
                });
            worst = std::max(worst, sp.totalWeightBytes());
        }
        return worst;
    }
    // Full model, or the per-device shard under tensor parallelism
    // (decoderPlan compiles the sharded graph under a !tp key).
    return decoderPlan(model, 1, bucketLen(1), /*prefill=*/true)
        .totalWeightBytes();
}

void
Scheduler::placeModel(const std::string &model, Tick now, double gbps)
{
    if (modelPlaced(model))
        return;
    if (!fabric_ && gbps <= 0.0) {
        // Placement tracked (model-affinity routing keys on it) but
        // the load itself is not modeled: weights are resident
        // immediately.
        weightReady_[model] = 0;
        return;
    }
    const std::uint64_t bytes = placedWeightBytes(model);
    fatalIf(bytes > dtu_.config().l3Bytes, "model '", model, "' needs ",
            bytes, " weight bytes but the device HBM holds only ",
            dtu_.config().l3Bytes,
            " — shard it across devices with a tensor-parallel or "
            "pipeline-parallel placement");
    const Tick start = std::max(loadCursor_, now);
    Tick ready;
    std::uint64_t moved = bytes;
    if (fabric_) {
        // Every group member DMAs its shard over the shared root
        // complex; the group is ready when the slowest load lands,
        // and loads co-scheduled with other placements contend on
        // the fabric ledger instead of each enjoying full bandwidth.
        const unsigned loads =
            shardedDecoder(model) ? placement_.degree : 1;
        ready = start;
        for (unsigned i = 0; i < loads; ++i)
            ready = std::max(ready, fabric_->hostLoadAt(start, bytes));
        moved = bytes * loads;
        dtu_.energy().addFabric(static_cast<double>(moved));
    } else {
        // Saturate like the bandwidth ledger: a tiny positive rate
        // must not overflow the tick conversion.
        const double seconds = static_cast<double>(bytes) / (gbps * 1e9);
        const Tick load =
            seconds * static_cast<double>(ticksPerSecond) >=
                    static_cast<double>(maxTick)
                ? maxTick
                : secondsToTicks(seconds);
        ready = saturatingAddTicks(start, load);
        // A load that saturates never finishes: fail here, not later
        // as a serving deadlock with the model's requests queued.
        fatalIf(ready == maxTick, "the weight load of model '", model,
                "' (", bytes, " bytes at ", gbps,
                " GB/s) cannot finish within the simulated time range; "
                "raise the fleet weight-load bandwidth");
    }
    loadCursor_ = ready;
    weightReady_[model] = ready;
    ++weightLoads_;
    weightLoadTicks_ =
        saturatingAddTicks(weightLoadTicks_, ready - start);
    weightLoadBytes_ += moved;
    if (timeline_) {
        Tracer &tracer = dtu_.tracer();
        if (!placeTrackMade_) {
            placeTrack_ = tracer.track("serve", "placement");
            placeTrackMade_ = true;
        }
        tracer.span(placeTrack_, "load " + model, "weight-load",
                    start, ready,
                    {{"bytes", static_cast<double>(moved)}});
    }
    for (obs::ServingObserver *o : observers_)
        o->onWeightLoad(device_, model, start, ready, moved);
}

Tick
Scheduler::shardOverlay(const std::string &model, Tick now,
                        Tick compute_end, unsigned batch,
                        unsigned tokens)
{
    const models::DecoderSpec *spec = models::decoderSpec(model);
    if (!spec)
        return compute_end;
    const unsigned d = placement_.degree;
    // The tensor crossing the fabric after each sharded block (TP)
    // or at each stage boundary (PP): the layer's activations.
    const std::uint64_t act = static_cast<std::uint64_t>(batch) *
                              tokens *
                              static_cast<std::uint64_t>(spec->hidden) *
                              dtypeBytes(config_.dtype);
    const Tick T = compute_end > now ? compute_end - now : 0;
    Tracer &tracer = dtu_.tracer();
    if (timeline_ && !fabricTrackMade_) {
        fabricTrack_ = tracer.track("serve", "fabric");
        fabricTrackMade_ = true;
    }
    Tick end = compute_end;
    if (placement_.mode == PlacementMode::TensorParallel) {
        // One ring all-reduce after the attention out-projection and
        // one after the FFN down-projection of every layer, each
        // submitted where its layer ends within the compute interval.
        const unsigned n = 2 * static_cast<unsigned>(spec->layers);
        for (unsigned k = 0; k < n; ++k) {
            const Tick at = saturatingAddTicks(
                now, static_cast<Tick>(static_cast<double>(T) *
                                       (k + 1) / n));
            const Tick done =
                fabric_->allReduceAt(fabricGroup_, at, act);
            end = std::max(end, done);
            if (timeline_) {
                tracer.span(fabricTrack_,
                            model + ".allreduce" + std::to_string(k),
                            "all-reduce", at, done,
                            {{"bytes", static_cast<double>(act)},
                             {"degree", static_cast<double>(d)}});
            }
        }
        // Ring wire traffic: every device moves 2(d-1)/d of the
        // payload per collective.
        dtu_.energy().addFabric(static_cast<double>(n) *
                                static_cast<double>(act) * 2.0 *
                                (d - 1) / d);
    } else if (placement_.mode == PlacementMode::PipelineParallel) {
        // The batch re-times as a (d stages x m microbatches)
        // pipeline: each microbatch spends T/(d*m) per stage, and a
        // point-to-point activation send crosses each stage boundary.
        // The bubble fraction (d-1)/(d+m-1) falls out of the shape.
        const unsigned m = placement_.microbatches;
        const Tick t_micro = std::max<Tick>(
            T / (static_cast<Tick>(d) * m), 1);
        const std::uint64_t mact =
            std::max<std::uint64_t>(act / m, 1);
        Tick pp_end = saturatingAddTicks(
            now, (static_cast<Tick>(d) + m - 1) * t_micro);
        for (unsigned s = 0; s + 1 < d; ++s) {
            for (unsigned j = 0; j < m; ++j) {
                const Tick at = saturatingAddTicks(
                    now,
                    (static_cast<Tick>(s) + j + 1) * t_micro);
                const Tick done =
                    fabric_->sendAt(fabricGroup_, s, at, mact);
                pp_end = std::max(
                    pp_end,
                    saturatingAddTicks(
                        done,
                        static_cast<Tick>(d - 1 - s) * t_micro));
                if (timeline_) {
                    tracer.span(fabricTrack_,
                                model + ".act s" + std::to_string(s) +
                                    ">s" + std::to_string(s + 1) +
                                    " mb" + std::to_string(j),
                                "activation", at, done,
                                {{"bytes",
                                  static_cast<double>(mact)}});
                }
            }
        }
        end = pp_end;
        dtu_.energy().addFabric(static_cast<double>(d - 1) * m *
                                static_cast<double>(mact));
    }
    return std::max(end, now);
}

std::vector<std::string>
Scheduler::placedModels() const
{
    std::vector<std::string> models;
    models.reserve(weightReady_.size());
    for (const auto &[model, ready] : weightReady_)
        models.push_back(model);
    return models;
}

std::size_t
Scheduler::outstanding() const
{
    std::size_t inflight = 0;
    for (const ActiveBatch &b : active_)
        inflight += b.requests.size();
    for (const DecodeBatch &b : decoding_)
        inflight += b.seqs.size();
    return queueDepth() + decodeReadyCount() + inflight;
}

std::size_t
Scheduler::inFlightBatches() const
{
    std::size_t stepping = 0;
    for (const DecodeBatch &b : decoding_) {
        if (b.inStep)
            ++stepping;
    }
    return active_.size() + stepping;
}

std::size_t
Scheduler::decodeReadyCount() const
{
    std::size_t waiting = 0;
    for (const auto &[model, seqs] : decodeReady_)
        waiting += seqs.size();
    return waiting;
}

RequestOutcome
Scheduler::outcomeOf(const Request &r, Tick dispatched, Tick completed,
                     unsigned batch, unsigned retries) const
{
    return {.request = r,
            .device = static_cast<int>(device_),
            .dispatched = dispatched,
            .completed = completed,
            .batchSize = batch,
            .retries = retries};
}

void
Scheduler::complete(RequestOutcome outcome)
{
    lastCompletion_ = std::max(lastCompletion_, outcome.completed);
    if (timeline_) {
        // The per-request arrival-to-completion span.
        const RequestOutcome &c = outcome;
        dtu_.tracer().span(
            reqTrack_, c.request.model + " #" + std::to_string(c.request.id),
            "request", c.request.arrival, c.completed,
            {{"queue_wait_us", ticksToMicroSeconds(c.queueWait())},
             {"batch", static_cast<double>(c.batchSize)},
             {"missed", c.missedDeadline() ? 1.0 : 0.0}});
    }
    for (obs::ServingObserver *o : observers_)
        o->onComplete(device_, outcome);
    outcomes_.push_back(std::move(outcome));
    ++completedN_;
}

void
Scheduler::dropOutcome(RequestOutcome outcome, DropReason reason)
{
    outcome.state = terminalStateFor(reason);
    outcome.dropReason = reason;
    switch (reason) {
      case DropReason::Rejected: ++rejectedStat_; break;
      case DropReason::Shed: ++shedStat_; break;
      case DropReason::TimedOut: ++timedOutStat_; break;
      case DropReason::Failed: ++failedStat_; break;
    }
    if (timeline_) {
        dtu_.tracer().instant(
            dropTrack_,
            std::string(dropReasonName(outcome.dropReason)) + " #" +
                std::to_string(outcome.request.id),
            "degradation", outcome.completed);
    }
    for (obs::ServingObserver *o : observers_)
        o->onDrop(device_, outcome);
    outcomes_.push_back(std::move(outcome));
    ++droppedN_;
}

void
Scheduler::drop(const Request &r, Tick at, DropReason reason)
{
    dropOutcome(outcomeOf(r, 0, at, 0, 0), reason);
}

void
Scheduler::admit(const Request &r)
{
    // Admission control: a client sees an immediate reject instead
    // of a doomed wait when the queue is already over the configured
    // depth.
    const DegradationPolicy &degrade = config_.degradation;
    if (degrade.admissionLimit != 0 &&
        queueDepth() >= degrade.admissionLimit) {
        drop(r, r.arrival, DropReason::Rejected);
        return;
    }
    if (r.generative()) {
        fatalIf(!models::decoderSpec(r.model),
                "generative request #", r.id, " targets '", r.model,
                "', which is not a decoder model");
        fatalIf(r.gen.promptLen == 0, "generative request #", r.id,
                " has an empty prompt");
        // KV admission: a sequence whose worst-case footprint
        // (prompt + every token it could emit) exceeds the whole
        // pool can never run — queueing would deadlock, so it is
        // bounced like an over-limit arrival.
        if (!ensureKv().fitsEver(kvTokens(r),
                                 bytesPerTokenFor(r.model))) {
            drop(r, r.arrival, DropReason::Rejected);
            return;
        }
        genQueue_.push(r);
    } else {
        queue_.push(r);
    }
    peakQueue_ = std::max(peakQueue_, queueDepth());
    for (obs::ServingObserver *o : observers_)
        o->onAdmit(device_, r);
}

// Load shedding + queue timeout: sweep queued requests whose
// deadline already passed (they could only waste a lease) or whose
// queue wait hit the cap. Deadline arithmetic saturates: a timeout
// configured near maxTick means "never", not a wrapped instant drop.
// Queued generative requests hold no KV pages yet, so the sweep
// needs no release.
void
Scheduler::dropExpired(Tick at)
{
    const DegradationPolicy &degrade = config_.degradation;
    if (!degrade.shedExpired && degrade.requestTimeout == 0)
        return;
    auto expired = [&](const Request &r) {
        return degrade.shedExpired && r.deadline != 0 &&
               r.deadline <= at;
    };
    for (RequestQueue *queue : {&queue_, &genQueue_}) {
        std::vector<Request> victims =
            queue->removeIf([&](const Request &r) {
                if (expired(r))
                    return true;
                return degrade.requestTimeout != 0 &&
                       at >= saturatingAddTicks(
                                 r.arrival, degrade.requestTimeout);
            });
        for (const Request &r : victims) {
            drop(r, at,
                 expired(r) ? DropReason::Shed
                            : DropReason::TimedOut);
        }
    }
}

// Launch rule: full batch, oldest request timed out, or no future
// arrival could grow the batch further — and, when the fleet
// modeled a weight load for this model, the weights are resident.
bool
Scheduler::shouldLaunch(const RequestQueue &queue,
                        const std::string &model, Tick now) const
{
    std::size_t depth = queue.sizeFor(model);
    if (depth == 0)
        return false;
    if (weightReadyAt(model) > now)
        return false;
    if (depth >= config_.batching.maxBatchFor(model))
        return true;
    if (now >= saturatingAddTicks(queue.oldestArrival(model),
                                  config_.batching.maxQueueDelay))
        return true;
    return futureCount(model) == 0;
}

Scheduler::BatchRun
Scheduler::executeBatch(const ExecutionPlan &p,
                        const std::vector<Request> &riders,
                        const std::vector<unsigned> &groups, Tick now,
                        unsigned max_retries, bool record_ops,
                        const std::string &model, const char *phase)
{
    // Observers may ask a batch to record operator traces and the
    // chip timeline (the request tracer's flow-arrow targets) even
    // when the user left both off. Recording is observation only —
    // simulated timing is unchanged.
    obs::BatchRecording rec = obs::BatchRecording::None;
    for (const obs::ServingObserver *o : observers_)
        rec = std::max(rec, o->batchRecording(riders));
    ExecOptions exec_opts = config_.exec;
    if (record_ops || rec != obs::BatchRecording::None)
        exec_opts.trace = true;
    // Bound ledger memory: free the bandwidth bookings behind the
    // serving clock, since every later launch of this serve starts at
    // or after `now`. A live stream (a tenant below tenantBase) may
    // still issue work at a lagging cursor, so keep them all while
    // one holds a lease.
    if (!manager_.leasedBelow(config_.tenantBase))
        dtu_.retireLedgersBefore(now);
    Executor executor(dtu_, groups, exec_opts);
    // Poisoned executions (uncorrectable ECC, exhausted DMA retries)
    // re-run on the same lease up to max_retries times; the lease is
    // held across retries so the re-execution cannot be starved by
    // new admissions.
    BatchRun run;
    Tick launch_at = now;
    {
        ScopedTracerEnable chip_scope(
            dtu_.tracer(), rec == obs::BatchRecording::Timeline);
        for (;;) {
            std::uint64_t before =
                faults_ ? faults_->poisonCount() : 0;
            run.result = executor.run(p, launch_at);
            run.poisoned =
                faults_ && faults_->poisonCount() > before;
            if (!run.poisoned || run.retries >= max_retries)
                break;
            ++run.retries;
            ++batchRetries_;
            ++retryStat_;
            launch_at = run.result.end;
            if (timeline_) {
                dtu_.tracer().instant(
                    dropTrack_, "batch-retry " + model,
                    "degradation", launch_at);
            }
        }
        const obs::BatchEvent event{device_, model, phase, riders, now,
                                    launch_at, run.retries, run.result,
                                    dtu_.tracer()};
        for (obs::ServingObserver *o : observers_)
            o->onBatchExecuted(event);
    }
    run.end = run.result.end;
    return run;
}

void
Scheduler::accumulatePhase(PhaseBreakdown &phase,
                           const ExecResult &result)
{
    for (const OpTrace &op : result.trace) {
        const double compute = static_cast<double>(op.computeTicks);
        const double act_dma = static_cast<double>(
            std::max(op.dmaInTicks, op.dmaOutTicks));
        phase.issueTicks += compute;
        // Memory time: weight-stream stalls, DMA the pipeline could
        // not hide, and activation DMA overhanging the compute it
        // was double-buffered against.
        phase.dmaTicks += static_cast<double>(op.weightStallTicks) +
                          static_cast<double>(op.unhiddenTicks) +
                          std::max(0.0, act_dma - compute);
        phase.otherTicks +=
            static_cast<double>(op.launchTicks) +
            static_cast<double>(op.kernelStallTicks);
        phase.macs += op.macs;
        phase.bytes += op.bytes;
        phase.energy.add(op.energy);
    }
}

void
Scheduler::advanceCompletions(Tick upto)
{
    std::vector<ActiveBatch> still_running;
    std::vector<ActiveBatch> done;
    for (ActiveBatch &b : active_) {
        (b.end <= upto ? done : still_running)
            .push_back(std::move(b));
    }
    active_ = std::move(still_running);
    // Deterministic completion order: by (end, tenant).
    std::sort(done.begin(), done.end(),
              [](const ActiveBatch &a, const ActiveBatch &b) {
                  if (a.end != b.end)
                      return a.end < b.end;
                  return a.tenant < b.tenant;
              });
    Tracer &tracer = dtu_.tracer();
    for (const ActiveBatch &b : done) {
        manager_.release(b.tenant, b.end);
        lastCompletion_ = std::max(lastCompletion_, b.end);
        auto size = static_cast<unsigned>(b.requests.size());
        if (timeline_) {
            TraceArgs args{{"batch", static_cast<double>(size)}};
            if (b.retries)
                args.emplace_back("retries",
                                  static_cast<double>(b.retries));
            if (b.failed)
                args.emplace_back("failed", 1.0);
            tracer.span(batchTrack_,
                        b.prefill ? b.model + " prefill" : b.model,
                        "serving-batch", b.dispatched, b.end,
                        std::move(args));
        }
        if (b.prefill) {
            retirePrefill(b);
            continue;
        }
        if (b.failed) {
            // Retries ran out with the execution still poisoned:
            // the whole batch's results are suspect and every rider
            // fails together.
            for (const Request &r : b.requests) {
                dropOutcome(
                    outcomeOf(r, b.dispatched, b.end, size, b.retries),
                    DropReason::Failed);
            }
            continue;
        }
        for (const Request &r : b.requests) {
            RequestOutcome c =
                outcomeOf(r, b.dispatched, b.end, size, b.retries);
            c.firstToken = b.end;
            complete(std::move(c));
        }
    }
    advanceDecode(upto);
}

void
Scheduler::retirePrefill(const ActiveBatch &b)
{
    KvCache &kv = *kv_;
    const auto size = static_cast<unsigned>(b.requests.size());
    if (b.failed) {
        // A poisoned prefill leaves no trustworthy KV state: the
        // riders fail here and their reservations free immediately.
        for (const Request &r : b.requests) {
            kv.release(r.id);
            dropOutcome(
                outcomeOf(r, b.dispatched, b.end, size, b.retries),
                DropReason::Failed);
        }
        return;
    }
    for (const Request &r : b.requests) {
        // Prefill materializes the prompt's KV pages plus the first
        // generated token.
        kv.grow(r.id, r.gen.promptLen + 1);
        ++genLog_.tokens;
        const unsigned target = r.targetNewTokens();
        if (target <= 1) {
            // Single-token generation: the first token is also the
            // last, no decode step needed.
            kv.release(r.id);
            RequestOutcome o =
                outcomeOf(r, b.dispatched, b.end, size, b.retries);
            o.firstToken = b.end;
            o.tokensEmitted = 1;
            complete(std::move(o));
            continue;
        }
        DecodeSeq seq;
        seq.request = r;
        seq.dispatched = b.dispatched;
        seq.firstToken = b.end;
        seq.lastToken = b.end;
        seq.prefillBatchSize = size;
        seq.retries = b.retries;
        seq.emitted = 1;
        seq.target = target;
        decodeReady_[b.model].push_back(std::move(seq));
    }
}

void
Scheduler::advanceDecode(Tick upto)
{
    if (decoding_.empty())
        return;
    // Deterministic retirement order across batches: (stepEnd,
    // tenant), matching the one-shot completion sort.
    std::vector<DecodeBatch *> due;
    for (DecodeBatch &b : decoding_) {
        if (b.inStep && b.stepEnd <= upto)
            due.push_back(&b);
    }
    std::sort(due.begin(), due.end(),
              [](const DecodeBatch *a, const DecodeBatch *b) {
                  if (a->stepEnd != b->stepEnd)
                      return a->stepEnd < b->stepEnd;
                  return a->tenant < b->tenant;
              });
    for (DecodeBatch *bp : due) {
        DecodeBatch &b = *bp;
        b.inStep = false;
        ++genLog_.decodeSteps;
        if (b.stepPoisoned) {
            // The decode loop does not retry poisoned steps: the KV
            // state behind them is suspect, so every rider fails
            // together at the step end.
            for (DecodeSeq &seq : b.seqs) {
                kv_->release(seq.request.id);
                RequestOutcome o =
                    outcomeOf(seq.request, seq.dispatched, b.stepEnd,
                              seq.prefillBatchSize, seq.retries);
                o.firstToken = seq.firstToken;
                o.tokensEmitted = seq.emitted;
                dropOutcome(std::move(o), DropReason::Failed);
            }
            b.seqs.clear();
        } else {
            std::vector<DecodeSeq> live;
            live.reserve(b.seqs.size());
            for (DecodeSeq &seq : b.seqs) {
                ++seq.emitted;
                ++genLog_.tokens;
                genLog_.itlMs.push_back(
                    ticksToMilliSeconds(b.stepEnd - seq.lastToken));
                seq.lastToken = b.stepEnd;
                kv_->grow(seq.request.id,
                          seq.request.gen.promptLen + seq.emitted);
                if (seq.emitted >= seq.target) {
                    // Finished: pages free immediately, and in
                    // continuous mode the slot is joinable at the
                    // very next settle.
                    kv_->release(seq.request.id);
                    RequestOutcome o = outcomeOf(
                        seq.request, seq.dispatched, b.stepEnd,
                        seq.prefillBatchSize, seq.retries);
                    o.firstToken = seq.firstToken;
                    o.tokensEmitted = seq.emitted;
                    complete(std::move(o));
                } else {
                    live.push_back(std::move(seq));
                }
            }
            b.seqs = std::move(live);
        }
        if (b.seqs.empty()) {
            manager_.release(b.tenant, b.stepEnd);
            b.tenant = -1; // marks the batch retired
        }
    }
    decoding_.erase(std::remove_if(decoding_.begin(), decoding_.end(),
                                   [](const DecodeBatch &b) {
                                       return b.tenant < 0;
                                   }),
                    decoding_.end());
}

void
Scheduler::settle(Tick now)
{
    dropExpired(now);
    launchOneShots(now);
    launchGeneration(now);
}

void
Scheduler::launchOneShots(Tick now)
{
    const DegradationPolicy &degrade = config_.degradation;
    // Launch everything launchable at the current time. The model
    // scan restarts after every pass so a freed lease can host the
    // next queued model (alphabetical, deterministic).
    bool launched = true;
    while (launched) {
        launched = false;
        for (const std::string &model : queue_.models()) {
            while (shouldLaunch(queue_, model, now) &&
                   manager_.freeGroups() >= config_.groupsPerBatch) {
                auto lease = manager_.allocate(
                    nextTenant_, config_.groupsPerBatch, now);
                if (!lease)
                    break; // free groups span clusters
                std::vector<Request> reqs = queue_.popBatch(
                    model, config_.batching.maxBatchFor(model));
                const ExecutionPlan &p = plan(
                    model, static_cast<unsigned>(reqs.size()));
                BatchRun run = executeBatch(
                    p, reqs, lease->groups, now,
                    degrade.maxBatchRetries, false, model, "batch");
                active_.push_back({.end = run.end,
                                   .dispatched = now,
                                   .tenant = nextTenant_,
                                   .model = model,
                                   .requests = std::move(reqs),
                                   .retries = run.retries,
                                   .failed = run.poisoned});
                ++nextTenant_;
                ++batches_;
                launched = true;
            }
        }
    }
}

void
Scheduler::launchGeneration(Tick now)
{
    if (decoding_.empty() && decodeReady_.empty() &&
        genQueue_.empty())
        return;
    const GenerationPolicy &gen = config_.generation;
    const DegradationPolicy &degrade = config_.degradation;

    // 1) Step idle decode batches, absorbing waiting sequences first
    //    in continuous mode (iteration-level batching: a sequence
    //    joins between steps, never mid-step). Deterministic order:
    //    by tenant, i.e. formation order.
    std::vector<DecodeBatch *> idle;
    for (DecodeBatch &b : decoding_) {
        if (!b.inStep)
            idle.push_back(&b);
    }
    std::sort(idle.begin(), idle.end(),
              [](const DecodeBatch *a, const DecodeBatch *b) {
                  return a->tenant < b->tenant;
              });
    for (DecodeBatch *bp : idle) {
        DecodeBatch &b = *bp;
        if (gen.continuousBatching) {
            auto it = decodeReady_.find(b.model);
            if (it != decodeReady_.end()) {
                std::vector<DecodeSeq> &ready = it->second;
                while (!ready.empty() &&
                       b.seqs.size() < gen.maxDecodeBatch) {
                    b.seqs.push_back(std::move(ready.front()));
                    ready.erase(ready.begin());
                }
                if (ready.empty())
                    decodeReady_.erase(it);
            }
        }
        if (!b.seqs.empty())
            launchDecodeStep(b, now);
    }

    // 2) Form new decode batches from leftover ready sequences
    //    (alphabetical by model). Each batch takes a lease it holds
    //    until its last sequence finishes.
    bool formed = true;
    while (formed) {
        formed = false;
        for (auto it = decodeReady_.begin();
             it != decodeReady_.end();) {
            std::vector<DecodeSeq> &ready = it->second;
            if (ready.empty()) {
                it = decodeReady_.erase(it);
                continue;
            }
            if (manager_.freeGroups() < config_.groupsPerBatch) {
                ++it;
                continue;
            }
            auto lease = manager_.allocate(
                nextTenant_, config_.groupsPerBatch, now);
            if (!lease) {
                ++it;
                continue;
            }
            DecodeBatch b;
            b.tenant = nextTenant_;
            b.model = it->first;
            b.groups = lease->groups;
            while (!ready.empty() &&
                   b.seqs.size() < gen.maxDecodeBatch) {
                b.seqs.push_back(std::move(ready.front()));
                ready.erase(ready.begin());
            }
            b.formed = static_cast<unsigned>(b.seqs.size());
            decoding_.push_back(std::move(b));
            launchDecodeStep(decoding_.back(), now);
            ++nextTenant_;
            formed = true;
            if (ready.empty())
                it = decodeReady_.erase(it);
            else
                ++it;
        }
    }

    // 3) Launch prefills, gated on the KV budget: the queue head
    //    must fit *now* (reservable against unreserved pages) or the
    //    whole model waits — strict FIFO, no small-sequence bypass,
    //    so admission order stays deterministic and starvation-free.
    bool launched = true;
    while (launched) {
        launched = false;
        for (const std::string &model : genQueue_.models()) {
            while (shouldLaunch(genQueue_, model, now) &&
                   manager_.freeGroups() >= config_.groupsPerBatch) {
                const Request *head = genQueue_.front(model);
                if (!head)
                    break;
                const std::uint64_t bpt = bytesPerTokenFor(model);
                if (!kv_->fitsNow(kvTokens(*head), bpt))
                    break; // KV full: wait for sequences to finish
                auto lease = manager_.allocate(
                    nextTenant_, config_.groupsPerBatch, now);
                if (!lease)
                    break;
                std::vector<Request> cand = genQueue_.popBatch(
                    model, config_.batching.maxBatchFor(model));
                // Reserve worst-case pages per rider, FIFO prefix:
                // the first failure sends it and everything behind
                // it back to the queue head. The head itself always
                // reserves (fitsNow above is the same arithmetic).
                std::vector<Request> reqs;
                std::vector<Request> back;
                for (Request &r : cand) {
                    if (back.empty() &&
                        kv_->reserve(r.id, kvTokens(r), bpt)) {
                        reqs.push_back(std::move(r));
                    } else {
                        back.push_back(std::move(r));
                    }
                }
                if (!back.empty())
                    genQueue_.pushFront(model, std::move(back));
                unsigned max_prompt = 0;
                for (const Request &r : reqs)
                    max_prompt =
                        std::max(max_prompt, r.gen.promptLen);
                const ExecutionPlan &p = decoderPlan(
                    model, static_cast<unsigned>(reqs.size()),
                    bucketLen(max_prompt), /*prefill=*/true);
                BatchRun run = executeBatch(
                    p, reqs, lease->groups, now,
                    degrade.maxBatchRetries, true, model, "prefill");
                accumulatePhase(genLog_.prefill, run.result);
                ++genLog_.prefillBatches;
                const Tick end =
                    shardedDecoder(model)
                        ? shardOverlay(
                              model, now, run.end,
                              static_cast<unsigned>(reqs.size()),
                              bucketLen(max_prompt))
                        : run.end;
                active_.push_back({.end = end,
                                   .dispatched = now,
                                   .tenant = nextTenant_,
                                   .model = model,
                                   .requests = std::move(reqs),
                                   .retries = run.retries,
                                   .failed = run.poisoned,
                                   .prefill = true});
                ++nextTenant_;
                ++batches_;
                launched = true;
            }
        }
    }
}

void
Scheduler::launchDecodeStep(DecodeBatch &b, Tick now)
{
    const GenerationPolicy &gen = config_.generation;
    unsigned ctx = 0;
    for (const DecodeSeq &seq : b.seqs)
        ctx = std::max(ctx, seq.request.gen.promptLen + seq.emitted);
    // Static batching pays the formed (padded) batch size every step
    // even after members finish; continuous pays only live sequences.
    const unsigned cost_batch =
        gen.continuousBatching ? static_cast<unsigned>(b.seqs.size())
                               : b.formed;
    const ExecutionPlan &p = decoderPlan(b.model, cost_batch,
                                         bucketLen(ctx), /*prefill=*/false);
    std::vector<Request> riders;
    riders.reserve(b.seqs.size());
    for (const DecodeSeq &seq : b.seqs)
        riders.push_back(seq.request);
    // Decode steps do not retry on poison (max_retries 0): the KV
    // state is already suspect after one poisoned pass.
    BatchRun run = executeBatch(p, riders, b.groups, now, 0, true,
                                b.model, "decode");
    accumulatePhase(genLog_.decode, run.result);
    ++batches_;
    b.inStep = true;
    b.stepPoisoned = run.poisoned;
    b.stepStart = now;
    b.stepEnd = shardedDecoder(b.model)
                    ? shardOverlay(b.model, now, run.end, cost_batch,
                                   /*tokens=*/1)
                    : run.end;
    if (timeline_) {
        Tracer &tracer = dtu_.tracer();
        if (!decodeTrackMade_) {
            decodeTrack_ = tracer.track("serve", "decode");
            decodeTrackMade_ = true;
        }
        tracer.span(decodeTrack_, b.model, "decode-step", now,
                    run.end,
                    {{"batch", static_cast<double>(cost_batch)},
                     {"live", static_cast<double>(b.seqs.size())},
                     {"ctx", static_cast<double>(ctx)}});
    }
}

Tick
Scheduler::nextEvent(Tick now) const
{
    Tick next = kNever;
    for (const ActiveBatch &b : active_)
        next = std::min(next, b.end);
    for (const DecodeBatch &b : decoding_) {
        if (b.inStep)
            next = std::min(next, b.stepEnd);
    }
    for (const RequestQueue *queue : {&queue_, &genQueue_}) {
        for (const std::string &model : queue->models()) {
            Tick timeout =
                saturatingAddTicks(queue->oldestArrival(model),
                                   config_.batching.maxQueueDelay);
            if (timeout > now && timeout != kNever)
                next = std::min(next, timeout);
            Tick ready = weightReadyAt(model);
            if (ready > now)
                next = std::min(next, ready);
        }
    }
    // Degradation deadlines are events too: a queued request's SLO
    // expiry or queue-timeout maturation must wake the loop even
    // with no arrival or completion in between — including when
    // requestTimeout is the only policy enabled and the requests
    // carry no deadline of their own.
    const DegradationPolicy &degrade = config_.degradation;
    if (degrade.shedExpired || degrade.requestTimeout != 0) {
        auto deadline = [&](const Request &r) {
            if (degrade.shedExpired && r.deadline > now)
                next = std::min(next, r.deadline);
            if (degrade.requestTimeout != 0) {
                Tick timeout = saturatingAddTicks(
                    r.arrival, degrade.requestTimeout);
                if (timeout > now && timeout != kNever)
                    next = std::min(next, timeout);
            }
        };
        queue_.forEach(deadline);
        genQueue_.forEach(deadline);
    }
    return next;
}

obs::DeviceMetricSample
Scheduler::metricSample() const
{
    obs::DeviceMetricSample d;
    d.device = device_;
    d.queueDepth = queueDepth();
    d.inFlightBatches = inFlightBatches();
    d.outstanding = outstanding();
    d.completed = completedN_;
    d.dropped = droppedN_;
    d.retries = batchRetries_;
    return d;
}

GenerationLog
Scheduler::generationLog() const
{
    GenerationLog log = genLog_;
    if (kv_) {
        log.kvPageBudget = kv_->pageBudget();
        log.kvPageBytes = kv_->config().pageBytes;
        log.kvPeakPages = kv_->peakPagesInUse();
        log.kvPeakReservedPages = kv_->peakPagesReserved();
        log.kvPagesAllocated = kv_->totalPagesAllocated();
        log.kvPagesFreed = kv_->totalPagesFreed();
        log.kvPagesInUseAtEnd = kv_->pagesInUse();
    }
    return log;
}

ServingReport
Scheduler::finish(double offered_qps)
{
    ServingReport report = summarize(
        std::move(outcomes_), offered_qps, batches_,
        dtu_.energy().joules() - joulesBefore_,
        manager_.utilization(lastCompletion_), batchRetries_,
        faults_ ? faults_->log().size() - faultsBefore_ : 0,
        generationLog());
    outcomes_.clear();
    return report;
}

} // namespace serve
} // namespace dtu

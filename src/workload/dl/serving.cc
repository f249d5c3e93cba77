#include "src/workload/dl/serving.h"

#include <utility>

#include "src/base/check.h"
#include "src/obs/retrymetrics.h"

namespace soccluster {

namespace {

// Every dispatch holds its SoC's one engine slot.
constexpr PlacementDemand kEngineSlot{.slots = 1};

SocCapacityView::Options FleetViewOptions() {
  SocCapacityView::Options options;
  options.slot_capacity = 1;  // One request at a time per SoC engine.
  return options;
}

Placer::Options FleetPlacerOptions() {
  Placer::Options options;
  options.policy = PlacementPolicy::kSpread;
  options.load.cpu_weight = 0.0;
  options.load.slot_weight = 1.0;
  // A full fleet means the request waits in the queue; that back-pressure
  // is not an admission rejection.
  options.count_rejections = false;
  return options;
}

}  // namespace

SocServingFleet::SocServingFleet(Simulator* sim, SocCluster* cluster,
                                 DlDevice soc_device, DnnModel model,
                                 Precision precision)
    : sim_(sim), cluster_(cluster), device_(soc_device), model_(model),
      precision_(precision), view_(cluster, FleetViewOptions()),
      placer_(sim, &view_, FleetPlacerOptions()),
      admission_(sim, "dl.serving"),
      ledger_(sim, {.service = "dl.serving",
                    .slo_threshold = Duration::Seconds(2),
                    .submitted = "dl.serving.submitted",
                    .completed = "dl.serving.completed",
                    .shed = "dl.serving.shed",
                    .expired = "dl.serving.expired",
                    .failed = "dl.serving.failed",
                    .rejected = "dl.serving.shed"}) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK(soc_device == DlDevice::kSocCpu ||
            soc_device == DlDevice::kSocGpu || soc_device == DlDevice::kSocDsp)
      << "fleet devices must live on the SoC";
  SOC_CHECK(DlEngineModel::Supports(device_, model_, precision_));
  view_.SetActiveCount(0);  // No SoC serves until SetActiveCount.
  MetricRegistry& metrics = sim_->metrics();
  retries_metric_ = metrics.GetCounter("dl.serving.retries");
  latency_metric_ = metrics.GetHistogram("dl.serving.latency_ms");
  max_queue_metric_ = metrics.GetGauge("dl.serving.max_queue_length");
  Tracer& tracer = sim_->tracer();
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    std::string name = "soc";
    if (i < 10) {
      name.push_back('0');
    }
    name += std::to_string(i);
    tracer.SetTrackName(SocTrack(i), name);
  }
  admission_.set_on_drop(
      [this](const AdmissionQueue::Item& item,
             AdmissionQueue::DropReason reason) { OnAdmissionDrop(item, reason); });
}

void SocServingFleet::OnAdmissionDrop(const AdmissionQueue::Item& item,
                                      AdmissionQueue::DropReason reason) {
  const RequestRef ref = RequestRef::Unpack(item.handle);
  RequestState& request = requests_[ref.index];
  Tracer& tracer = sim_->tracer();
  // Incoming drops carry no spans yet (id 0 => no-op); queued victims do.
  // An expired request's client has given up; starting the inference would
  // waste a SoC slot on a response nobody reads.
  tracer.EndSpan(request.queue_span);
  ledger_.Finish(RequestLedger::FromDrop(reason), View(request));
  tracer.EndSpan(request.request_span);
  requests_.Free(ref.index);
}

double SocServingFleet::PerSocThroughput() const {
  return DlEngineModel::Throughput(device_, model_, precision_, 1);
}

void SocServingFleet::SetActiveCount(int count) {
  view_.SetActiveCount(count);
  TryDispatch();
}

void SocServingFleet::SetDeadline(Duration deadline) {
  SOC_CHECK_GE(deadline.nanos(), 0);
  deadline_ = deadline;
}

void SocServingFleet::SetDispatchLimit(int limit) {
  SOC_CHECK_GE(limit, 0);
  dispatch_limit_ = limit;
  TryDispatch();  // Raising (or removing) the limit may unblock the queue.
}

void SocServingFleet::SetRetryPolicy(RetryPolicy policy, uint64_t seed) {
  backoff_ = std::make_unique<RetryBackoff>(policy, seed);
  AttachRetryMetrics(&sim_->metrics(), "dl.serving", backoff_.get(),
                     /*budget=*/nullptr);
}

void SocServingFleet::SetRetryBudget(double tokens_per_success,
                                     double max_tokens) {
  budget_ = std::make_unique<RetryBudget>(tokens_per_success, max_tokens);
  AttachRetryMetrics(&sim_->metrics(), "dl.serving", /*backoff=*/nullptr,
                     budget_.get());
}

void SocServingFleet::Submit(Priority priority,
                             const ClientAttribution& client) {
  ledger_.Submit(priority);
  if (!ledger_.BreakerAdmits(priority)) {
    // Fast-fail at the door while the breaker is open; queueing the request
    // would only deepen the backlog the breaker exists to drain.
    ledger_.Finish(RequestLedger::Cause::kBreaker,
                   {priority, sim_->Now(), client});
    return;
  }
  // The effective deadline clamps to the client's own per-attempt budget
  // when the server honors it — then the existing dispatch-time purge
  // drops abandoned work for free.
  Duration deadline = deadline_;
  if (honor_client_deadline_ && client.attributed() &&
      client.deadline.nanos() > 0 &&
      (deadline.nanos() == 0 || client.deadline < deadline)) {
    deadline = client.deadline;
  }
  const RequestRef ref = requests_.Allocate();
  RequestState& request = requests_[ref.index];
  request.enqueue = sim_->Now();
  request.priority = priority;
  request.deadline = deadline;
  request.client = client;
  // The id is allocated before admission (unlike the spans) so the causal
  // chain can show the shed decision for requests that never get in.
  request.ctx.id = next_request_id_++;
  Tracer& tracer = sim_->tracer();
  TraceRequestSubmit(&tracer, &request.ctx, "dl.serving", sim_->Now());
  if (!admission_.Offer(priority, deadline, ref.Pack(), &request.ctx)) {
    return;  // Shed; accounted (and freed) in OnAdmissionDrop.
  }
  request.request_span =
      tracer.BeginAsyncSpan("request", "dl.serving", request.ctx.id);
  tracer.AddArg(request.request_span, "model", DnnModelName(model_));
  request.queue_span = tracer.BeginAsyncSpan(
      "queue", "dl.serving", request.ctx.id, request.request_span);
  max_queue_metric_->SetMax(static_cast<double>(admission_.max_queue_length()));
  TryDispatch();
}

void SocServingFleet::Requeue(RequestRef ref) {
  RequestState& request = requests_[ref.index];
  request.queue_span =
      sim_->tracer().BeginAsyncSpan("queue", "dl.serving", request.ctx.id,
                                    request.request_span);
  AdmissionQueue::Item item;
  item.priority = request.priority;
  item.enqueue = request.enqueue;  // Keep the original arrival time.
  item.deadline = request.deadline;
  item.handle = ref.Pack();
  admission_.Restore(std::move(item));
  max_queue_metric_->SetMax(static_cast<double>(admission_.max_queue_length()));
  TryDispatch();
}

void SocServingFleet::TryDispatch() {
  while (admission_.size() > 0) {
    if (dispatch_limit_ > 0 && in_flight_ >= dispatch_limit_) {
      return;  // Brownout: concurrency capped; completions re-trigger.
    }
    const int chosen = placer_.Pick(kEngineSlot);
    if (chosen < 0) {
      return;
    }
    // Pop purges deadline-expired heads (OnAdmissionDrop closes their
    // spans and counts them) before yielding a dispatchable request.
    std::optional<AdmissionQueue::Item> item = admission_.Pop();
    if (!item.has_value()) {
      return;  // The backlog was entirely expired.
    }
    const RequestRef ref = RequestRef::Unpack(item->handle);
    RequestState& request = requests_[ref.index];
    Tracer& tracer = sim_->tracer();
    tracer.EndSpan(request.queue_span);
    TraceRequestStep(&tracer, &request.ctx, "dispatch", SocTrack(chosen));
    const SocModel& soc = cluster_->soc(chosen);
    request.reservation = view_.Reserve(chosen, DispatchDemand(soc));
    ++in_flight_;
    const int attempt = ++request.attempts;
    request.attempt_start = sim_->Now();
    // The request's inference phase, in two views: the async child follows
    // the request, the track span shows the SoC busy.
    request.infer_span = tracer.BeginAsyncSpan(
        "infer", "dl.serving", request.ctx.id, request.request_span);
    tracer.AddArg(request.infer_span, "soc", static_cast<int64_t>(chosen));
    tracer.AddArg(request.infer_span, "attempt", static_cast<int64_t>(attempt));
    request.infer_track_span =
        tracer.BeginSpan("infer", "dl.serving", SocTrack(chosen));
    // A thermal excursion slows the engine without shrinking capacity.
    const Duration service = Duration::SecondsF(
        1.0 / (PerSocThroughput() * soc.throttle_factor()));
    sim_->ScheduleAfter(
        service, [this, ref] { FinishOn(ref); }, "dl.serving.finish",
        event_anchor_);
  }
}

void SocServingFleet::RecordCompletion(int soc_index, RequestState& request) {
  const double latency_ms = (sim_->Now() - request.enqueue).ToMillis();
  if (exact_latency_samples_) {
    latencies_.Add(latency_ms);
    latencies_of_[static_cast<size_t>(request.priority)].Add(latency_ms);
  }
  latency_metric_->Observe(latency_ms);
  ledger_.Deliver(View(request));
  // Evidence is the attempt's own latency (dispatch to here), not the
  // request's: central queueing delay is fleet-wide, and charging it to
  // whichever SoC drew the request would smear suspicion everywhere.
  ledger_.ReportAttempt(soc_index, sim_->Now() - request.attempt_start, true);
}

void SocServingFleet::Complete(int soc_index, RequestRef ref) {
  RequestState& request = requests_[ref.index];
  if (budget_ != nullptr) {
    budget_->RecordSuccess();
  }
  ledger_.Finish(RequestLedger::Cause::kCompleted, View(request),
                 SocTrack(soc_index));
  Tracer& tracer = sim_->tracer();
  if (response_size_.bits() == 0) {
    tracer.EndSpan(request.request_span);
    RecordCompletion(soc_index, request);
    requests_.Free(ref.index);
    return;
  }
  // Ship the response through the fabric; the request closes when the
  // last byte reaches the external node.
  const SpanId net_span = tracer.BeginAsyncSpan(
      "network", "dl.serving", request.ctx.id, request.request_span);
  Result<FlowId> flow = cluster_->network().StartFlow(
      cluster_->soc_node(soc_index), cluster_->external_node(),
      response_size_, DataRate::Zero(), [this, soc_index, ref, net_span] {
        RequestState& delivered = requests_[ref.index];
        Tracer& t = sim_->tracer();
        t.EndSpan(net_span);
        t.EndSpan(delivered.request_span);
        if (latency_includes_response_) {
          RecordCompletion(soc_index, delivered);
        }
        requests_.Free(ref.index);
      });
  SOC_CHECK(flow.ok()) << flow.status().ToString();
  if (!latency_includes_response_) {
    RecordCompletion(soc_index, request);
  }
}

PlacementDemand SocServingFleet::DispatchDemand(const SocModel& soc) const {
  PlacementDemand demand = kEngineSlot;
  switch (device_) {
    case DlDevice::kSocCpu:
      // CPU inference claims the cores additively: co-resident services
      // (serverless, gaming, CPU transcodes) charge the same cores, so grab
      // what is left rather than overwriting their shares. Alone on the
      // SoC the grant is exactly 1.0.
      demand.cpu_util = soc.CpuHeadroom();
      break;
    case DlDevice::kSocGpu:
      demand.gpu_util = 1.0;
      break;
    default:
      demand.dsp_util = 1.0;
      break;
  }
  return demand;
}

void SocServingFleet::FinishOn(RequestRef ref) {
  RequestState& request = requests_[ref.index];
  const int soc_index = request.reservation.soc_index;
  // The attempt succeeded only if the SoC never failed while it ran; a
  // fail/repair/reboot cycle leaves the SoC usable but moves its epoch.
  const bool alive = view_.Release(request.reservation);
  --in_flight_;
  // A zombie SoC heartbeats and holds its utilization, but the request
  // comes back broken — the attempt failed even though the SoC is "up".
  const bool zombie_attempt = alive && cluster_->soc(soc_index).zombie();
  Tracer& tracer = sim_->tracer();
  tracer.EndSpan(request.infer_track_span);
  tracer.EndSpan(request.infer_span);
  if (zombie_attempt) {
    // Zombie attempts are the error evidence the gray detector keys on: a
    // dead SoC stops heartbeating, a zombie only stops serving.
    ledger_.ReportAttempt(soc_index, Duration::Zero(), /*ok=*/false);
  }
  if (alive && !zombie_attempt) {
    Complete(soc_index, ref);
  } else if (backoff_ != nullptr && backoff_->ShouldRetry(request.attempts) &&
             (budget_ == nullptr || budget_->TryWithdraw())) {
    ++retries_;
    retries_metric_->Increment();
    TraceRequestStep(&tracer, &request.ctx, "retry", SocTrack(soc_index));
    sim_->ScheduleAfter(
        backoff_->BackoffFor(request.attempts),
        [this, ref] {
          // Nothing frees a request while it waits out its backoff.
          SOC_DCHECK(requests_.IsLive(ref));
          Requeue(ref);
        },
        "dl.serving.retry_wait", event_anchor_);
  } else {
    // No retry left: give up on the request.
    ledger_.Finish(RequestLedger::Cause::kFailed, View(request));
    tracer.EndSpan(request.request_span);
    requests_.Free(ref.index);
  }
  TryDispatch();
}

GpuBatchServer::GpuBatchServer(Simulator* sim, DiscreteGpuModel* gpu,
                               DlDevice device, DnnModel model,
                               Precision precision, int max_batch,
                               Duration batch_timeout)
    : sim_(sim), gpu_(gpu), device_(device), model_(model),
      precision_(precision), max_batch_(max_batch),
      batch_timeout_(batch_timeout) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(gpu_ != nullptr);
  SOC_CHECK(IsDiscreteGpu(device));
  SOC_CHECK_GE(max_batch_, 1);
  SOC_CHECK(DlEngineModel::Supports(device_, model_, precision_));
  MetricRegistry& metrics = sim_->metrics();
  submitted_metric_ = metrics.GetCounter("dl.gpu_batch.submitted");
  completed_metric_ = metrics.GetCounter("dl.gpu_batch.completed");
  batches_metric_ = metrics.GetCounter("dl.gpu_batch.batches");
  latency_metric_ = metrics.GetHistogram("dl.gpu_batch.latency_ms");
  batch_size_metric_ = metrics.GetHistogram("dl.gpu_batch.batch_size");
  sim_->tracer().SetTrackName(GpuTrack(), "gpu");
}

void GpuBatchServer::Submit() {
  queue_.push_back(sim_->Now());
  submitted_metric_->Increment();
  MaybeLaunch(/*timeout_expired=*/false);
}

void GpuBatchServer::MaybeLaunch(bool timeout_expired) {
  if (running_ || queue_.empty()) {
    return;
  }
  const bool full = static_cast<int>(queue_.size()) >= max_batch_;
  if (!full && !timeout_expired) {
    if (!timeout_event_.valid()) {
      timeout_event_ = sim_->ScheduleAfter(batch_timeout_, [this] {
        timeout_event_ = EventHandle();
        MaybeLaunch(/*timeout_expired=*/true);
      }, "dl.gpu.timeout");
    }
    return;
  }
  sim_->Cancel(timeout_event_);
  timeout_event_ = EventHandle();

  const int batch = std::min<int>(max_batch_, static_cast<int>(queue_.size()));
  std::vector<SimTime> members;
  members.reserve(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    members.push_back(queue_.front());
    queue_.pop_front();
  }
  running_ = true;
  batches_metric_->Increment();
  batch_size_metric_->Observe(static_cast<double>(batch));
  Tracer& tracer = sim_->tracer();
  const SpanId batch_span =
      tracer.BeginSpan("batch", "dl.gpu_batch", GpuTrack());
  tracer.AddArg(batch_span, "batch_size", static_cast<int64_t>(batch));
  // Drive the GPU meter at the batch's marginal power.
  const Power marginal =
      DlEngineModel::MarginalPower(device_, model_, precision_, batch);
  const double util =
      marginal.watts() / (gpu_->spec().max_power - gpu_->spec().idle).watts();
  Status status = gpu_->SetComputeUtil(std::min(1.0, util));
  SOC_CHECK(status.ok()) << status.ToString();

  const Duration latency =
      DlEngineModel::Latency(device_, model_, precision_, batch);
  sim_->ScheduleAfter(
      latency, [this, members = std::move(members), batch_span]() mutable {
        FinishBatch(std::move(members), batch_span);
      },
      "dl.gpu.batch");
}

void GpuBatchServer::FinishBatch(std::vector<SimTime> batch,
                                 SpanId batch_span) {
  running_ = false;
  Status status = gpu_->SetComputeUtil(0.0);
  SOC_CHECK(status.ok()) << status.ToString();
  sim_->tracer().EndSpan(batch_span);
  const SimTime now = sim_->Now();
  for (SimTime enqueue_time : batch) {
    ++completed_;
    completed_metric_->Increment();
    const double latency_ms = (now - enqueue_time).ToMillis();
    latencies_.Add(latency_ms);
    latency_metric_->Observe(latency_ms);
  }
  MaybeLaunch(/*timeout_expired=*/false);
}

void SocServingFleet::DigestState(StateDigest& digest) const {
  digest.Mix(view_.active_count());
  view_.DigestState(digest);
  admission_.DigestState(digest);
  digest.Mix(completed());
  digest.Mix(shed());
  digest.Mix(deadline_expired());
  digest.Mix(failed());
  digest.Mix(retries_);
  for (int c = 0; c < kNumPriorities; ++c) {
    const Priority p = static_cast<Priority>(c);
    digest.Mix(completed_of(p));
    digest.Mix(shed_of(p));
    digest.Mix(expired_of(p));
    digest.Mix(static_cast<uint64_t>(latencies_of(p).count()));
  }
  digest.Mix(static_cast<uint64_t>(latencies_.count()));
  for (const double sample : latencies_.samples()) {
    digest.Mix(sample);
  }
  digest.Mix(deadline_.nanos());
  digest.Mix(latency_includes_response_);
  digest.Mix(dispatch_limit_);
  digest.Mix(in_flight_);
  digest.Mix(next_request_id_);
  if (backoff_ != nullptr) {
    digest.Mix(backoff_->RngFingerprint());
  }
  if (budget_ != nullptr) {
    digest.Mix(budget_->tokens());
    digest.Mix(budget_->denied());
  }
}

}  // namespace soccluster

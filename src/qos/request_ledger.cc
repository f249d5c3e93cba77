#include "src/qos/request_ledger.h"

#include "src/base/check.h"

namespace soccluster {

ClientOutcome RequestLedger::OutcomeOf(Cause cause) {
  switch (cause) {
    case Cause::kCompleted:
      return ClientOutcome::kSuccess;
    case Cause::kFailed:
      return ClientOutcome::kFailed;
    case Cause::kExpired:
      return ClientOutcome::kExpired;
    default:
      return ClientOutcome::kShed;
  }
}

RequestLedger::RequestLedger(Simulator* sim, Options options) : sim_(sim) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(!options.service.empty());
  MetricRegistry& metrics = sim_->metrics();
  auto counter = [&metrics](const char* name) {
    return name != nullptr ? metrics.GetCounter(name) : nullptr;
  };
  submitted_metric_ = counter(options.submitted);
  // Indexed by ClientOutcome.
  const std::array<const char*, 4> by_outcome = {
      options.completed, options.shed, options.expired, options.failed};
  for (size_t c = 0; c < kNumCauses; ++c) {
    const Cause cause = static_cast<Cause>(c);
    cause_metrics_[c] = counter(
        cause == Cause::kNoCapacity
            ? options.rejected
            : by_outcome[static_cast<size_t>(OutcomeOf(cause))]);
  }
  for (int c = 0; c < kNumPriorities; ++c) {
    SloSpec spec;
    spec.class_name = PriorityName(static_cast<Priority>(c));
    spec.name = options.service + "/" + spec.class_name;
    spec.service = options.service;
    spec.threshold = options.slo_threshold;
    slos_[static_cast<size_t>(c)] = sim_->obs().slos.Register(spec);
  }
}

void RequestLedger::Submit(Priority priority) {
  ++submitted_[Index(priority)];
  if (submitted_metric_ != nullptr) {
    submitted_metric_->Increment();
  }
}

void RequestLedger::Finish(Cause cause, const Request& request,
                           int64_t track) {
  const ClientOutcome outcome = OutcomeOf(cause);
  ++by_class_[Index(request.priority)][static_cast<size_t>(outcome)];
  ++by_cause_[static_cast<size_t>(cause)];
  if (Counter* metric = cause_metrics_[static_cast<size_t>(cause)]) {
    metric->Increment();
  }
  if (breaker_ != nullptr && cause == Cause::kCompleted) {
    breaker_->RecordSuccess();
  } else if (breaker_ != nullptr &&
             (cause == Cause::kFailed || cause == Cause::kQueueFull)) {
    breaker_->RecordFailure();
  }
  CloseFlow(request.ctx, cause == Cause::kCompleted, track);
  if (cause == Cause::kCompleted) {
    return;  // Deliver() reports the latency.
  }
  if (cause != Cause::kBreaker) {
    slos_[Index(request.priority)]->Record(sim_->Now(), false);
  }
  Notify(request, outcome);
}

void RequestLedger::Deliver(const Request& request) {
  slos_[Index(request.priority)]->RecordLatency(sim_->Now(),
                                                sim_->Now() - request.enqueue);
  Notify(request, ClientOutcome::kSuccess);
}

void RequestLedger::CloseFlow(RequestContext* ctx, bool completed,
                              int64_t track) {
  if (completed) {
    TraceRequestComplete(&sim_->tracer(), ctx, track);
  } else {
    TraceRequestDrop(&sim_->tracer(), ctx, track);
  }
}

void RequestLedger::Notify(const Request& request, ClientOutcome outcome) {
  if (client_observer_ && request.client.attributed()) {
    client_observer_(request.client.ticket, outcome,
                     sim_->Now() - request.enqueue);
  }
}

int64_t RequestLedger::Total(ClientOutcome outcome) const {
  int64_t total = 0;
  for (const auto& counts : by_class_) {
    total += counts[static_cast<size_t>(outcome)];
  }
  return total;
}

}  // namespace soccluster

#include "src/qos/breaker.h"

#include "src/base/check.h"

namespace soccluster {

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(Simulator* sim, const std::string& service)
    : sim_(sim) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(!service.empty());
  window_start_ = sim_->Now();
  MetricRegistry& metrics = sim_->metrics();
  opens_metric_ =
      metrics.GetCounter("qos.breaker.opens", {{"service", service}});
  closes_metric_ =
      metrics.GetCounter("qos.breaker.closes", {{"service", service}});
  rejected_metric_ =
      metrics.GetCounter("qos.breaker.rejected", {{"service", service}});
}

void CircuitBreaker::ResetWindow(SimTime now) {
  window_start_ = now;
  window_samples_ = 0;
  window_failures_ = 0;
}

void CircuitBreaker::MoveTo(State next) {
  const SimTime now = sim_->Now();
  transitions_.push_back(Transition{now, state_, next});
  state_ = next;
  Tracer& tracer = sim_->tracer();
  switch (next) {
    case State::kOpen:
      ++opens_;
      opens_metric_->Increment();
      opened_at_ = now;
      tracer.Instant("breaker_open", "qos.breaker");
      break;
    case State::kHalfOpen:
      probes_issued_ = 0;
      probe_successes_ = 0;
      tracer.Instant("breaker_half_open", "qos.breaker");
      break;
    case State::kClosed:
      closes_metric_->Increment();
      ResetWindow(now);
      tracer.Instant("breaker_close", "qos.breaker");
      break;
  }
}

bool CircuitBreaker::Allow() {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (sim_->Now() - opened_at_ >= kOpenDuration) {
        MoveTo(State::kHalfOpen);
        ++probes_issued_;
        return true;
      }
      ++rejected_;
      rejected_metric_->Increment();
      return false;
    case State::kHalfOpen:
      if (probes_issued_ < kHalfOpenProbes) {
        ++probes_issued_;
        return true;
      }
      ++rejected_;
      rejected_metric_->Increment();
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  if (state_ == State::kHalfOpen) {
    if (++probe_successes_ >= kHalfOpenProbes) {
      MoveTo(State::kClosed);
    }
    return;
  }
  if (state_ != State::kClosed) {
    return;  // Late report from before the breaker opened.
  }
  const SimTime now = sim_->Now();
  if (now - window_start_ >= kWindow) {
    ResetWindow(now);
  }
  ++window_samples_;
}

void CircuitBreaker::RecordFailure() {
  if (state_ == State::kHalfOpen) {
    MoveTo(State::kOpen);  // One failed probe re-opens immediately.
    return;
  }
  if (state_ != State::kClosed) {
    return;  // Already open; the failure is from a straggling call.
  }
  const SimTime now = sim_->Now();
  if (now - window_start_ >= kWindow) {
    ResetWindow(now);
  }
  ++window_samples_;
  ++window_failures_;
  if (window_samples_ >= kMinSamples &&
      static_cast<double>(window_failures_) >=
          kFailureThreshold * static_cast<double>(window_samples_)) {
    MoveTo(State::kOpen);
  }
}

void CircuitBreaker::DigestState(StateDigest& digest) const {
  digest.Mix(static_cast<int>(state_));
  digest.Mix(window_start_.nanos());
  digest.Mix(window_samples_);
  digest.Mix(window_failures_);
  digest.Mix(opened_at_.nanos());
  digest.Mix(probes_issued_);
  digest.Mix(probe_successes_);
  digest.Mix(static_cast<uint64_t>(transitions_.size()));
  for (const Transition& t : transitions_) {
    digest.Mix(t.time.nanos());
    digest.Mix(static_cast<int>(t.from));
    digest.Mix(static_cast<int>(t.to));
  }
  digest.Mix(opens_);
  digest.Mix(rejected_);
}

}  // namespace soccluster

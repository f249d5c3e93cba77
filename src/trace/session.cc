#include "src/trace/session.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/base/check.h"
#include "src/obs/retrymetrics.h"

namespace soccluster {
namespace {

// Timing-wheel quantum: client timeouts, think times, and retry delays
// resolve at this granularity. Coarse by design — one tick event per
// quantum serves every waiting session.
constexpr Duration kWheelQuantum = Duration::Millis(100);

// Wheel slots. Wakes further out than kWheelSlots quanta simply lap; any
// power of two works, this one keeps laps rare for think-time scales
// (~7 min horizon).
constexpr size_t kWheelSlots = 4096;

// Per-cohort SLO on "success within client_deadline" (5% error budget);
// the burn threshold is SloSpec's default.
constexpr double kCohortSloObjective = 0.95;

}  // namespace

const char* RetryModeName(RetryMode mode) {
  switch (mode) {
    case RetryMode::kNaive:
      return "naive";
    case RetryMode::kBudgeted:
      return "budgeted";
  }
  return "unknown";
}

SessionTier::SessionTier(Simulator* sim, SessionTierConfig config,
                         std::vector<SessionCohortConfig> cohorts)
    : sim_(sim), config_(std::move(config)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(!cohorts.empty()) << "session tier needs at least one cohort";
  SOC_CHECK_GT(config_.peak_rps, 0.0);
  SOC_CHECK_GE(config_.requests_per_session, 1.0);
  SOC_CHECK_GT(config_.client_timeout.nanos(), 0);
  SOC_CHECK_GT(config_.counter_window.nanos(), 0);

  double total_weight = 0.0;
  for (const SessionCohortConfig& cohort : cohorts) {
    SOC_CHECK_GT(cohort.weight, 0.0)
        << "cohort weight must be positive: " << cohort.name;
    total_weight += cohort.weight;
  }

  // Arrivals are session starts; the configured peak_rps is a request
  // rate, so divide by the session length to get the start rate.
  const double peak_sessions_per_s =
      config_.peak_rps / config_.requests_per_session;

  // Independent per-cohort streams, all derived from the one tier seed.
  uint64_t seed_chain = config_.seed;
  cohorts_.reserve(cohorts.size());
  for (SessionCohortConfig& cohort_config : cohorts) {
    Cohort cohort;
    cohort.config = std::move(cohort_config);
    DiurnalShape shape = config_.diurnal;
    shape.phase_hours += cohort.config.phase_hours;
    const double share = cohort.config.weight / total_weight;
    cohort.rate =
        std::make_unique<RateProcess>(peak_sessions_per_s * share, shape);
    // A spare draw, kept: dropping it would shift every later stream and
    // so change the simulated day of every seed.
    SplitMix64(seed_chain);
    for (const FlashCrowd& crowd : config_.flash_crowds) {
      cohort.rate->AddFlashCrowd(crowd);
    }
    cohort.arrival_rng.Seed(SplitMix64(seed_chain));
    cohort.session_rng.Seed(SplitMix64(seed_chain));

    SloSpec spec;
    spec.name = "trace.session/" + cohort.config.name;
    spec.service = "trace.session";
    spec.class_name = "all";
    spec.cohort = cohort.config.name;
    spec.threshold = config_.client_deadline.nanos() > 0
                         ? config_.client_deadline
                         : config_.client_timeout;
    spec.objective = kCohortSloObjective;
    cohort.slo = sim_->obs().slos.Register(spec);
    cohorts_.push_back(std::move(cohort));
  }

  if (config_.retry_mode == RetryMode::kBudgeted) {
    backoff_ = std::make_unique<RetryBackoff>(config_.backoff,
                                              SplitMix64(seed_chain));
    budget_ = std::make_unique<RetryBudget>(config_.budget_tokens_per_success,
                                            config_.budget_max_tokens);
  }
  AttachRetryMetrics(&sim_->metrics(), "trace.session", backoff_.get(),
                     budget_.get());

  wheel_.resize(kWheelSlots);
  // Allocated here (not in Start) so the serving side can join the group
  // (SocServingFleet::SetEventAnchorGroup) before traffic begins.
  anchor_group_ = sim_->NewAnchorGroup();

  MetricRegistry& metrics = sim_->metrics();
  issued_metric_ = metrics.GetCounter("session.issued");
  submitted_metric_ = metrics.GetCounter("session.submitted");
  good_metric_ = metrics.GetCounter("session.good");
  timeout_metric_ = metrics.GetCounter("session.timeouts");
  retry_metric_ = metrics.GetCounter("session.retries");
  give_up_metric_ = metrics.GetCounter("session.give_ups");
  wasted_metric_ = metrics.GetCounter("session.wasted");
  live_sessions_metric_ = metrics.GetGauge("session.live");
  Counter* proposals_metric = metrics.GetCounter("trace.rate_proposals");
  Counter* rate_evals_metric = metrics.GetCounter("trace.rate_evals");
  for (Cohort& cohort : cohorts_) {
    cohort.rate->set_counters(proposals_metric, rate_evals_metric);
  }
}

SessionTier::~SessionTier() = default;

ClientObserver SessionTier::Observer() {
  return [this](uint64_t ticket, ClientOutcome outcome, Duration latency) {
    OnOutcome(ticket, outcome, latency);
  };
}

void SessionTier::Start(Duration horizon) {
  SOC_CHECK(!started_) << "session tier already started";
  SOC_CHECK(submit_ != nullptr) << "SetSubmit before Start";
  SOC_CHECK_GT(horizon.nanos(), 0);
  started_ = true;
  horizon_end_ = sim_->Now() + horizon;
  wheel_start_ = sim_->Now();
  next_tick_ = wheel_start_ + kWheelQuantum;
  for (size_t i = 0; i < cohorts_.size(); ++i) {
    ScheduleArrival(i);
  }
  ArmTick();
}

SessionWindow& SessionTier::WindowAt(SimTime t) {
  const size_t index = static_cast<size_t>(
      t.nanos() / config_.counter_window.nanos());
  if (index >= series_.size()) {
    series_.resize(index + 1);
  }
  return series_[index];
}

void SessionTier::Bump(uint32_t cohort, int64_t SessionWindow::* field,
                       SimTime t) {
  totals_.*field += 1;
  cohorts_[cohort].totals.*field += 1;
  WindowAt(t).*field += 1;
}

void SessionTier::ScheduleArrival(size_t cohort_index) {
  Cohort& cohort = cohorts_[cohort_index];
  // Only the accepted arrival becomes an event, so the event cost tracks
  // the realized rate, not the proposal rate.
  const std::optional<SimTime> t =
      cohort.rate->NextArrival(sim_->Now(), horizon_end_, cohort.arrival_rng);
  if (!t.has_value()) {
    return;
  }
  sim_->ScheduleAt(
      *t,
      [this, cohort_index] {
        StartSession(cohort_index);
        ScheduleArrival(cohort_index);
      },
      "session.arrival", anchor_group_);
}

void SessionTier::StartSession(size_t cohort_index) {
  Cohort& cohort = cohorts_[cohort_index];
  Bump(static_cast<uint32_t>(cohort_index), &SessionWindow::sessions_started,
       sim_->Now());
  // Geometric session length with the configured mean.
  const double continue_p = 1.0 - 1.0 / config_.requests_per_session;
  int32_t requests = 1;
  while (cohort.session_rng.Bernoulli(continue_p)) {
    ++requests;
  }
  const Slab<SessionRec>::Ref ref = slab_.Allocate();
  SessionRec& rec = slab_[ref.index];
  rec.cohort = static_cast<uint32_t>(cohort_index);
  rec.requests_left = requests;
  live_sessions_metric_->Set(static_cast<double>(slab_.live()));
  StartRequest(ref.index);
}

void SessionTier::StartRequest(uint32_t index) {
  SessionRec& rec = slab_[index];
  Cohort& cohort = cohorts_[rec.cohort];
  rec.attempts = 0;
  rec.first_issue = sim_->Now();
  // Fixed 20/50/30 critical/standard/best-effort mix, counter-driven so
  // the mix is exact and digest-stable.
  const int64_t mix = cohort.issued_mix++ % 10;
  rec.priority = mix < 2 ? Priority::kCritical
                         : (mix < 7 ? Priority::kStandard
                                    : Priority::kBestEffort);
  IssueAttempt(index);
}

void SessionTier::IssueAttempt(uint32_t index) {
  // Renew first: the previous attempt's ticket and wheel entry (if any)
  // must be stale before the server can observe the new one.
  const Slab<SessionRec>::Ref ref = slab_.Renew(index);
  SessionRec& rec = slab_[index];
  const SimTime now = sim_->Now();
  rec.state = kInFlight;
  rec.attempt_issue = now;
  ++rec.attempts;
  rec.wake = now + config_.client_timeout;
  WheelInsert(ref, rec.wake);
  Bump(rec.cohort, &SessionWindow::submitted, now);
  submitted_metric_->Increment();
  if (rec.attempts == 1) {
    Bump(rec.cohort, &SessionWindow::issued, now);
    issued_metric_->Increment();
  }
  ClientAttribution attribution;
  attribution.ticket = ref.Pack();
  // The server-side honoring knob uses the per-attempt budget: work still
  // queued past this point has already been abandoned client-side.
  attribution.deadline = config_.client_timeout;
  // Submit last: a breaker fast-fail reports the outcome inline, re-enters
  // OnOutcome, and may renew the slot — nothing below may touch `rec`.
  submit_(rec.priority, attribution);
}

void SessionTier::OnOutcome(uint64_t ticket, ClientOutcome outcome,
                            Duration latency) {
  (void)latency;  // Client-side latency is measured from first_issue.
  const Slab<SessionRec>::Ref ref = Slab<SessionRec>::Ref::Unpack(ticket);
  const SimTime now = sim_->Now();
  if (!slab_.IsLive(ref)) {
    // Late outcome for an attempt the client already abandoned (retried,
    // gave up, or ended the session): server capacity spent for nothing.
    ++totals_.wasted;
    WindowAt(now).wasted += 1;
    wasted_metric_->Increment();
    return;
  }
  SessionRec& rec = slab_[ref.index];
  SOC_DCHECK(rec.state == kInFlight) << "live ticket outside in-flight state";
  if (outcome == ClientOutcome::kSuccess) {
    Bump(rec.cohort, &SessionWindow::completed, now);
    CompleteRequest(ref.index, now - rec.first_issue);
  } else {
    Bump(rec.cohort, &SessionWindow::rejected, now);
    FailAttempt(ref.index);
  }
}

void SessionTier::CompleteRequest(uint32_t index, Duration latency) {
  SessionRec& rec = slab_[index];
  Cohort& cohort = cohorts_[rec.cohort];
  const SimTime now = sim_->Now();
  const bool good = config_.client_deadline.nanos() <= 0 ||
                    latency <= config_.client_deadline;
  if (good) {
    Bump(rec.cohort, &SessionWindow::good, now);
    good_metric_->Increment();
  }
  cohort.slo->Record(now, good);
  if (budget_ != nullptr) {
    budget_->RecordSuccess();
  }
  --rec.requests_left;
  if (rec.requests_left <= 0) {
    EndSession(index);
    return;
  }
  const Slab<SessionRec>::Ref ref = slab_.Renew(index);  // Kill the timeout.
  rec.state = kThinking;
  rec.wake = now + Duration::SecondsF(cohort.session_rng.LogNormalMedian(
                       config_.think_median.ToSeconds(), config_.think_sigma));
  WheelInsert(ref, rec.wake);
}

void SessionTier::FailAttempt(uint32_t index) {
  SessionRec& rec = slab_[index];
  Cohort& cohort = cohorts_[rec.cohort];
  const SimTime now = sim_->Now();
  const bool within_patience =
      config_.give_up_after.nanos() > 0 &&
      now - rec.first_issue < config_.give_up_after;

  bool retry = false;
  Duration delay;
  switch (config_.retry_mode) {
    case RetryMode::kNaive:
      // No backoff, no budget, no attempt cap: the client hammers at a
      // fixed cadence until patience runs out. This is the storm-maker.
      retry = within_patience;
      delay = config_.naive_retry_delay;
      break;
    case RetryMode::kBudgeted:
      retry = within_patience && backoff_->ShouldRetry(rec.attempts);
      if (retry && !budget_->TryWithdraw()) {
        Bump(rec.cohort, &SessionWindow::retries_denied, now);
        retry = false;
      }
      if (retry) {
        delay = backoff_->BackoffFor(rec.attempts);
      }
      break;
  }

  if (retry) {
    Bump(rec.cohort, &SessionWindow::retries, now);
    retry_metric_->Increment();
    const Slab<SessionRec>::Ref ref = slab_.Renew(index);
    rec.state = kRetryWait;
    rec.wake = now + delay;
    WheelInsert(ref, rec.wake);
    return;
  }

  // Give up: the request resolves bad and the user walks away, taking the
  // session's remaining requests with them.
  Bump(rec.cohort, &SessionWindow::give_ups, now);
  give_up_metric_->Increment();
  cohort.slo->Record(now, false);
  EndSession(index);
}

void SessionTier::EndSession(uint32_t index) {
  slab_.Free(index);
  live_sessions_metric_->Set(static_cast<double>(slab_.live()));
}

void SessionTier::WheelInsert(Slab<SessionRec>::Ref ref, SimTime wake) {
  SOC_DCHECK(wake >= wheel_start_);
  // Bucket of the first tick strictly after `wake` — an insert during a
  // tick never lands in the bucket being drained.
  const int64_t tick =
      (wake - wheel_start_).nanos() / kWheelQuantum.nanos() + 1;
  wheel_[static_cast<size_t>(tick) % wheel_.size()].push_back(
      WheelEntry{ref.Pack(), wake.nanos()});
  ++wheel_live_;
}

void SessionTier::ArmTick() {
  sim_->ScheduleAt(next_tick_, [this] { WheelTick(); }, "session.wheel",
                   anchor_group_);
}

void SessionTier::WheelTick() {
  const SimTime now = sim_->Now();
  const int64_t tick = (now - wheel_start_).nanos() / kWheelQuantum.nanos();
  std::vector<WheelEntry>& bucket =
      wheel_[static_cast<size_t>(tick) % wheel_.size()];
  std::vector<WheelEntry> due;
  due.swap(bucket);
  wheel_live_ -= due.size();
  for (const WheelEntry& entry : due) {
    const Slab<SessionRec>::Ref ref =
        Slab<SessionRec>::Ref::Unpack(entry.ref);
    if (!slab_.IsLive(ref)) {
      continue;  // Superseded by a renewal (outcome arrived, retry, ...).
    }
    if (entry.wake_ns >= now.nanos()) {
      // A full lap (or more) early: requeue for the same slot next lap.
      bucket.push_back(entry);
      ++wheel_live_;
      continue;
    }
    SessionRec& rec = slab_[ref.index];
    switch (rec.state) {
      case kInFlight: {
        // Client-side timeout: the server may still be working on this
        // attempt; any outcome it reports later is wasted.
        Bump(rec.cohort, &SessionWindow::timeouts, now);
        timeout_metric_->Increment();
        FailAttempt(ref.index);
        break;
      }
      case kThinking:
        StartRequest(ref.index);
        break;
      case kRetryWait:
        IssueAttempt(ref.index);
        break;
    }
  }
  if (now >= horizon_end_ && slab_.live() == 0 && wheel_live_ == 0) {
    return;  // Drained: the tick chain ends and the sim can run dry.
  }
  next_tick_ = now + kWheelQuantum;
  ArmTick();
}

double SessionTier::GoodputOver(size_t begin, size_t end) const {
  int64_t good = 0;
  int64_t issued = 0;
  const size_t stop = std::min(end, series_.size());
  for (size_t i = begin; i < stop; ++i) {
    good += series_[i].good;
    issued += series_[i].issued;
  }
  if (issued == 0) {
    return 0.0;
  }
  return static_cast<double>(good) / static_cast<double>(issued);
}

namespace {

void MixWindow(StateDigest& digest, const SessionWindow& window) {
  digest.Mix(window.sessions_started);
  digest.Mix(window.issued);
  digest.Mix(window.submitted);
  digest.Mix(window.completed);
  digest.Mix(window.good);
  digest.Mix(window.timeouts);
  digest.Mix(window.retries);
  digest.Mix(window.retries_denied);
  digest.Mix(window.give_ups);
  digest.Mix(window.rejected);
  digest.Mix(window.wasted);
}

}  // namespace

void SessionTier::DigestState(StateDigest& digest) const {
  MixWindow(digest, totals_);
  digest.Mix(static_cast<uint64_t>(series_.size()));
  for (const SessionWindow& window : series_) {
    MixWindow(digest, window);
  }
  for (const Cohort& cohort : cohorts_) {
    digest.Mix(std::string_view(cohort.config.name));
    MixWindow(digest, cohort.totals);
    digest.Mix(cohort.arrival_rng.StateFingerprint());
    digest.Mix(cohort.session_rng.StateFingerprint());
    digest.Mix(cohort.issued_mix);
  }
  // Live sessions fold commutatively: slab slot order depends on
  // allocation history, not on result-bearing state.
  digest.Mix(static_cast<uint64_t>(slab_.live()));
  StateDigest::Unordered live;
  slab_.ForEachLive([&live](uint32_t /*index*/, const SessionRec& rec) {
    StateDigest d;
    d.Mix(rec.cohort);
    d.Mix(static_cast<uint64_t>(rec.state));
    d.Mix(static_cast<int>(rec.priority));
    d.Mix(rec.attempts);
    d.Mix(rec.requests_left);
    d.Mix(rec.first_issue.nanos());
    d.Mix(rec.attempt_issue.nanos());
    d.Mix(rec.wake.nanos());
    live.Add(d.value());
  });
  digest.Mix(live);
  digest.Mix(static_cast<uint64_t>(wheel_live_));
  digest.Mix(next_tick_.nanos());
  if (backoff_ != nullptr) {
    digest.Mix(backoff_->RngFingerprint());
    digest.Mix(backoff_->attempts());
  }
  if (budget_ != nullptr) {
    digest.Mix(budget_->tokens());
    digest.Mix(budget_->denied());
  }
}

}  // namespace soccluster

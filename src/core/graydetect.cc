#include "src/core/graydetect.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace soccluster {

namespace {
// Trace track for gray-failure lifecycle instants ("faults" is 80).
constexpr int64_t kGrayTrack = 81;
// Async-span id base for per-SoC quarantine spans (one live span per SoC
// at a time, so soc index offsets are collision-free).
constexpr uint64_t kQuarantineAsyncBase = 0x6772617900000000ULL;  // "gray"

// Latency suspicion rises linearly from 0 at kRatioOk x the fleet-median
// p99 to 1 at kRatioBad x.
constexpr double kRatioOk = 1.5;
constexpr double kRatioBad = 4.0;
// Error suspicion reaches 1 at this windowed error rate.
constexpr double kErrorRateBad = 0.5;
// EWMA smoothing: score = kAlpha * instant + (1 - kAlpha) * previous.
constexpr double kAlpha = 0.7;

// Suspicion thresholds (hysteresis: clear < suspect <= quarantine).
constexpr double kSuspectThreshold = 0.3;
constexpr double kQuarantineThreshold = 0.5;
static_assert(GrayFailureManager::kClearThreshold < kSuspectThreshold &&
              kSuspectThreshold <= kQuarantineThreshold);
// Consecutive ticks at >= kQuarantineThreshold before quarantining.
constexpr int kQuarantineAfterTicks = 2;
// Probe streaks that end probation: reinstate or escalate.
constexpr int kReinstateAfterOkProbes = 6;
constexpr int kEscalateAfterFailedProbes = 6;
// Nominal service time of the canary on an unthrottled SoC.
constexpr Duration kProbeServiceTime = Duration::MillisF(100);
}  // namespace

// --- DegradationScorer ---

DegradationScorer::DegradationScorer(Simulator* sim, int num_socs,
                                     DegradationScorerConfig config)
    : sim_(sim), config_(config), socs_(static_cast<size_t>(num_socs)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK_GT(num_socs, 0);
  SOC_CHECK_GT(config_.window.nanos(), 0);
  SOC_CHECK_GE(config_.min_samples, 1);
  MetricRegistry& metrics = sim_->metrics();
  reports_metric_ = metrics.GetCounter("gray.reports");
  error_reports_metric_ = metrics.GetCounter("gray.error_reports");
  fleet_p99_gauge_ = metrics.GetGauge("gray.fleet_p99_ms");
  max_suspicion_gauge_ = metrics.GetGauge("gray.max_suspicion");
}

void DegradationScorer::Report(int soc_index, Duration latency, bool ok) {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, num_socs());
  SocEvidence& e = socs_[static_cast<size_t>(soc_index)];
  reports_metric_->Increment();
  if (ok) {
    e.window.Add(latency.ToMillis());
    ++e.ok;
  } else {
    // Failed attempts carry no meaningful latency; they count as errors.
    ++e.errors;
    error_reports_metric_->Increment();
  }
}

void DegradationScorer::Evaluate() {
  // Rotate every SoC's accumulating window out for judgement.
  for (SocEvidence& e : socs_) {
    e.last_window = std::move(e.window);
    e.window = QuantileSketch();
    e.last_ok = e.ok;
    e.last_errors = e.errors;
    e.ok = 0;
    e.errors = 0;
  }

  // Fleet-median p99 over SoCs with enough evidence: the relative anchor.
  std::vector<double> p99s;
  for (const SocEvidence& e : socs_) {
    if (e.last_window.count() >= config_.min_samples) {
      p99s.push_back(e.last_window.Percentile(99));
    }
  }
  double fleet = 0.0;
  if (!p99s.empty()) {
    const size_t mid = p99s.size() / 2;
    std::nth_element(p99s.begin(), p99s.begin() + static_cast<long>(mid),
                     p99s.end());
    fleet = p99s[mid];
  }
  fleet_p99_ms_ = fleet;
  fleet_p99_gauge_->Set(fleet);

  double max_suspicion = 0.0;
  for (SocEvidence& e : socs_) {
    const int64_t total = e.last_ok + e.last_errors;
    double instant = 0.0;
    if (total > 0) {
      double latency_score = 0.0;
      if (fleet > 0.0 &&
          e.last_window.count() >= config_.min_samples) {
        const double ratio = e.last_window.Percentile(99) / fleet;
        latency_score = std::clamp(
            (ratio - kRatioOk) / (kRatioBad - kRatioOk), 0.0, 1.0);
      }
      const double error_rate =
          static_cast<double>(e.last_errors) / static_cast<double>(total);
      const double error_score = std::min(1.0, error_rate / kErrorRateBad);
      instant = std::max(latency_score, error_score);
    }
    e.suspicion = kAlpha * instant + (1.0 - kAlpha) * e.suspicion;
    max_suspicion = std::max(max_suspicion, e.suspicion);
  }
  max_suspicion_gauge_->Set(max_suspicion);
}

double DegradationScorer::Suspicion(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, num_socs());
  return socs_[static_cast<size_t>(soc_index)].suspicion;
}

void DegradationScorer::Reset(int soc_index) {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, num_socs());
  socs_[static_cast<size_t>(soc_index)] = SocEvidence{};
}

void DegradationScorer::DigestState(StateDigest& digest) const {
  digest.Mix(fleet_p99_ms_);
  for (const SocEvidence& e : socs_) {
    digest.Mix(e.window.Fingerprint());
    digest.Mix(e.last_window.Fingerprint());
    digest.Mix(e.ok);
    digest.Mix(e.errors);
    digest.Mix(e.last_ok);
    digest.Mix(e.last_errors);
    digest.Mix(e.suspicion);
  }
}

// --- GrayFailureManager ---

GrayFailureManager::GrayFailureManager(Simulator* sim, SocCluster* cluster,
                                       GrayFailureConfig config)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      socs_(static_cast<size_t>(cluster->num_socs())) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK_GT(config_.tick.nanos(), 0);
  // The scorer judges whatever accumulated since the last tick, so a tick
  // that differs from the window would judge a window nobody configured.
  SOC_CHECK(config_.tick == config_.scorer.window)
      << "gray tick must equal the scorer window";
  SOC_CHECK_GT(config_.probe_interval.nanos(), 0);
  scorer_ = std::make_unique<DegradationScorer>(sim, cluster->num_socs(),
                                                config.scorer);
  MetricRegistry& metrics = sim_->metrics();
  suspects_metric_ = metrics.GetCounter("gray.suspects");
  quarantines_metric_ = metrics.GetCounter("gray.quarantines");
  reinstated_metric_ = metrics.GetCounter("gray.reinstated");
  escalated_metric_ = metrics.GetCounter("gray.escalated");
  probe_ok_metric_ = metrics.GetCounter("gray.probes", {{"result", "ok"}});
  probe_fail_metric_ = metrics.GetCounter("gray.probes", {{"result", "fail"}});
  suspect_now_gauge_ = metrics.GetGauge("gray.suspect_now");
  quarantined_now_gauge_ = metrics.GetGauge("gray.quarantined_now");
  sim_->tracer().SetTrackName(kGrayTrack, "gray");
  ticker_ = std::make_unique<PeriodicTask>(sim_, config_.tick,
                                           [this] { Tick(); }, "gray.tick");
  prober_task_ = std::make_unique<PeriodicTask>(
      sim_, config_.probe_interval,
      [this] {
        for (int i = 0; i < static_cast<int>(socs_.size()); ++i) {
          if (socs_[static_cast<size_t>(i)].state == SocState::kQuarantined) {
            Probe(i);
          }
        }
      },
      "gray.probe");
}

void GrayFailureManager::Start() {
  ticker_->Start();
  prober_task_->Start();
}

void GrayFailureManager::Stop() {
  ticker_->Stop();
  prober_task_->Stop();
}

bool GrayFailureManager::running() const { return ticker_->running(); }

GrayFailureManager::SocState GrayFailureManager::state(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, static_cast<int>(socs_.size()));
  return socs_[static_cast<size_t>(soc_index)].state;
}

double GrayFailureManager::PlacementPenalty(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, static_cast<int>(socs_.size()));
  // Quarantined SoCs are excluded by IsPlaceable already; the penalty only
  // has to steer load away from suspects.
  return socs_[static_cast<size_t>(soc_index)].state == SocState::kSuspect
             ? kSuspectPenalty
             : 0.0;
}

int GrayFailureManager::quarantined_now() const {
  int n = 0;
  for (const SocControl& c : socs_) {
    if (c.state == SocState::kQuarantined) {
      ++n;
    }
  }
  return n;
}

void GrayFailureManager::Tick() {
  scorer_->Evaluate();
  const int quarantine_cap = std::max(
      1, static_cast<int>(kMaxQuarantinedFraction *
                          static_cast<double>(socs_.size())));
  int suspects_now = 0;
  for (int i = 0; i < static_cast<int>(socs_.size()); ++i) {
    SocControl& c = socs_[static_cast<size_t>(i)];
    // A quarantined SoC that failed outright (injector, operator) belongs
    // to the fail-stop path now: release it without a verdict of our own.
    if (c.state == SocState::kQuarantined &&
        !cluster_->soc(i).IsUsable()) {
      cluster_->soc(i).SetQuarantined(false);
      sim_->tracer().EndSpan(c.span);
      scorer_->Reset(i);
      c = SocControl{};
      continue;
    }
    const double s = scorer_->Suspicion(i);
    switch (c.state) {
      case SocState::kHealthy:
        if (s >= kSuspectThreshold) {
          EnterSuspect(i);
        }
        break;
      case SocState::kSuspect:
        if (s < kClearThreshold) {
          c = SocControl{};  // Exonerated; penalty clears with the state.
        } else if (s >= kQuarantineThreshold) {
          ++c.hot_ticks;
          if (c.hot_ticks >= kQuarantineAfterTicks &&
              quarantined_now() < quarantine_cap) {
            EnterQuarantine(i);
          }
        } else {
          c.hot_ticks = 0;
        }
        break;
      case SocState::kQuarantined:
        break;  // Probation is probe-driven.
    }
    if (c.state == SocState::kSuspect) {
      ++suspects_now;
    }
  }
  suspect_now_gauge_->Set(static_cast<double>(suspects_now));
  quarantined_now_gauge_->Set(static_cast<double>(quarantined_now()));
}

void GrayFailureManager::EnterSuspect(int soc_index) {
  SocControl& c = socs_[static_cast<size_t>(soc_index)];
  c.state = SocState::kSuspect;
  c.hot_ticks = 0;
  ++suspects_total_;
  suspects_metric_->Increment();
  sim_->tracer().Instant("suspect", "gray", kGrayTrack);
}

void GrayFailureManager::EnterQuarantine(int soc_index) {
  SocControl& c = socs_[static_cast<size_t>(soc_index)];
  c.state = SocState::kQuarantined;
  c.ok_probes = 0;
  c.failed_probes = 0;
  cluster_->soc(soc_index).SetQuarantined(true);
  ++quarantines_total_;
  quarantines_metric_->Increment();
  c.span = sim_->tracer().BeginAsyncSpan(
      "quarantine", "gray",
      kQuarantineAsyncBase + static_cast<uint64_t>(soc_index));
  sim_->tracer().AddArg(c.span, "soc", static_cast<int64_t>(soc_index));
  sim_->tracer().AddArg(c.span, "suspicion", scorer_->Suspicion(soc_index));
  if (on_quarantine_) {
    on_quarantine_(soc_index);
  }
}

GrayFailureManager::ProbeResult GrayFailureManager::DefaultProbe(
    int soc_index) const {
  // Stands in for an out-of-band canary request against the quarantined
  // SoC: zombies and dead boards fail it; stragglers answer slowly.
  const SocModel& soc = cluster_->soc(soc_index);
  if (!soc.IsUsable() || soc.zombie()) {
    return ProbeResult{false, Duration::Zero()};
  }
  return ProbeResult{true, Duration::SecondsF(kProbeServiceTime.ToSeconds() /
                                              soc.throttle_factor())};
}

void GrayFailureManager::Probe(int soc_index) {
  SocControl& c = socs_[static_cast<size_t>(soc_index)];
  const ProbeResult result =
      prober_ ? prober_(soc_index) : DefaultProbe(soc_index);
  const bool pass =
      result.ok && result.latency <= config_.probe_latency_threshold;
  if (pass) {
    probe_ok_metric_->Increment();
    ++c.ok_probes;
    c.failed_probes = 0;
    if (c.ok_probes >= kReinstateAfterOkProbes) {
      Reinstate(soc_index);
    }
  } else {
    probe_fail_metric_->Increment();
    ++c.failed_probes;
    c.ok_probes = 0;
    if (c.failed_probes >= kEscalateAfterFailedProbes) {
      Escalate(soc_index);
    }
  }
}

void GrayFailureManager::Reinstate(int soc_index) {
  SocControl& c = socs_[static_cast<size_t>(soc_index)];
  cluster_->soc(soc_index).SetQuarantined(false);
  sim_->tracer().EndSpan(c.span);
  sim_->tracer().Instant("reinstate", "gray", kGrayTrack);
  scorer_->Reset(soc_index);
  c = SocControl{};
  ++reinstated_total_;
  reinstated_metric_->Increment();
  if (on_reinstate_) {
    on_reinstate_(soc_index);
  }
}

void GrayFailureManager::Escalate(int soc_index) {
  SocControl& c = socs_[static_cast<size_t>(soc_index)];
  SocModel& soc = cluster_->soc(soc_index);
  soc.SetQuarantined(false);
  sim_->tracer().EndSpan(c.span);
  sim_->tracer().Instant("escalate", "gray", kGrayTrack);
  scorer_->Reset(soc_index);
  c = SocControl{};
  ++escalated_total_;
  escalated_metric_->Increment();
  // Power-cycle: Fail() clears zombie/throttle/heartbeat-loss state, so a
  // software-wedged board comes back clean after the reboot.
  soc.Fail();
  if (config_.reboot_time.nanos() > 0) {
    sim_->ScheduleAfter(config_.reboot_time, [this, soc_index] {
      SocModel& s = cluster_->soc(soc_index);
      if (s.state() != SocPowerState::kFailed) {
        return;  // An external repair path got there first.
      }
      s.Repair();
      (void)s.PowerOn(cluster_->chassis().soc_boot, nullptr);
    }, "gray.reboot");
  }
  if (on_escalate_) {
    on_escalate_(soc_index);
  }
}

void GrayFailureManager::DigestState(StateDigest& digest) const {
  scorer_->DigestState(digest);
  for (const SocControl& c : socs_) {
    digest.Mix(static_cast<int>(c.state));
    digest.Mix(c.hot_ticks);
    digest.Mix(c.ok_probes);
    digest.Mix(c.failed_probes);
  }
  digest.Mix(suspects_total_);
  digest.Mix(quarantines_total_);
  digest.Mix(reinstated_total_);
  digest.Mix(escalated_total_);
}

}  // namespace soccluster

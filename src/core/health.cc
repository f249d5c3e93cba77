#include "src/core/health.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace soccluster {

namespace {
// Sigma floor for the phi fit, as a fraction of the heartbeat interval: a
// perfectly regular heartbeat (the common case in sim time) would otherwise
// collapse the normal fit to a spike and fire phi on the first missed beat.
constexpr double kSigmaFloorFraction = 0.1;
// Floor on the tail probability, bounding phi at 30 (P = 1e-30).
constexpr double kMinTailProbability = 1e-30;
// kPhiAccrual: minimum observed inter-arrivals before phi is trusted; below
// this the fixed miss_threshold acts as the cold-start backstop.
constexpr int kPhiMinSamples = 3;
}  // namespace

HealthMonitor::HealthMonitor(Simulator* sim, SocCluster* cluster,
                             HealthConfig config)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      health_(static_cast<size_t>(cluster->num_socs())),
      rng_(config.seed) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK_GT(config_.heartbeat_interval.nanos(), 0);
  SOC_CHECK_GE(config_.miss_threshold, 1);
  SOC_CHECK_GT(config_.phi_threshold, 0.0);
  MetricRegistry& metrics = sim_->metrics();
  down_metric_ = metrics.GetCounter("health.down_events");
  up_metric_ = metrics.GetCounter("health.up_events");
  marked_down_gauge_ = metrics.GetGauge("health.socs_marked_down");
  never_healthy_gauge_ = metrics.GetGauge("health.never_healthy");
  detection_metric_ = metrics.GetHistogram("health.detection_latency_ms");
  poller_ = std::make_unique<PeriodicTask>(sim_, config_.heartbeat_interval,
                                           [this] { Poll(); },
                                           "health.poll");
}

void HealthMonitor::Start() { poller_->Start(); }

void HealthMonitor::Stop() { poller_->Stop(); }

bool HealthMonitor::running() const { return poller_->running(); }

bool HealthMonitor::IsMarkedDown(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, cluster_->num_socs());
  return health_[static_cast<size_t>(soc_index)].down;
}

double HealthMonitor::Phi(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, cluster_->num_socs());
  const SocHealth& h = health_[static_cast<size_t>(soc_index)];
  if (!h.monitored || h.down || h.misses == 0) {
    return 0.0;
  }
  return PhiFor(h, sim_->Now());
}

double HealthMonitor::PhiFor(const SocHealth& h, SimTime now) const {
  // Phi-accrual (Hayashibara et al.): the probability that a beat arrives
  // later than `elapsed` under a normal fit of observed inter-arrivals,
  // via the logistic approximation of the normal CDF (as in Akka).
  const double elapsed = (now - h.last_ok).ToSeconds();
  const double mean = h.interarrival_s.mean();
  const double sigma_floor =
      kSigmaFloorFraction * config_.heartbeat_interval.ToSeconds();
  const double sigma = std::max(h.interarrival_s.StdDev(), sigma_floor);
  const double y = (elapsed - mean) / sigma;
  const double e = std::exp(-y * (1.5976 + 0.070566 * y * y));
  double p_later;
  if (elapsed > mean) {
    p_later = e / (1.0 + e);
  } else {
    p_later = 1.0 - 1.0 / (1.0 + e);
  }
  p_later = std::max(p_later, kMinTailProbability);
  return -std::log10(p_later);
}

void HealthMonitor::MarkDown(SocHealth& h, int soc_index, SimTime now) {
  h.down = true;
  h.down_at = now;
  ++down_events_;
  down_metric_->Increment();
  const double latency_ms = (now - h.last_ok).ToMillis();
  detection_latency_ms_.Observe(latency_ms);
  detection_metric_->Observe(latency_ms);
  if (on_soc_down_) {
    on_soc_down_(soc_index);
  }
}

void HealthMonitor::Poll() {
  const SimTime now = sim_->Now();
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    SocHealth& h = health_[static_cast<size_t>(i)];
    const SocModel& soc = cluster_->soc(i);

    // A usable SoC emits a beat; a flaky management path may lose it. The
    // rng is consulted only when loss is possible, so fault-free runs are
    // bit-identical regardless of the health seed.
    bool beat = soc.IsUsable();
    if (beat && soc.heartbeat_loss_prob() > 0.0 &&
        rng_.Bernoulli(soc.heartbeat_loss_prob())) {
      beat = false;
    }

    if (beat) {
      if (h.down) {
        h.down = false;
        ++up_events_;
        up_metric_->Increment();
        const double outage_h = (now - h.down_at).ToHours();
        observed_outage_hours_.Observe(outage_h);
        if (on_soc_up_) {
          on_soc_up_(i);
        }
      }
      if (h.monitored) {
        h.interarrival_s.Add((now - h.last_ok).ToSeconds());
      }
      h.monitored = true;
      h.misses = 0;
      h.last_ok = now;
      continue;
    }

    if (!h.monitored || h.down) {
      continue;
    }
    ++h.misses;
    bool fire;
    if (config_.mode == DetectorMode::kFixedMiss ||
        h.interarrival_s.count() < kPhiMinSamples) {
      // Fixed mode, or phi cold-start backstop before the fit is trusted.
      fire = h.misses >= config_.miss_threshold;
    } else {
      fire = PhiFor(h, now) >= config_.phi_threshold;
    }
    if (fire) {
      MarkDown(h, i, now);
    }
  }

  int64_t marked_down = 0;
  int64_t never = 0;
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    const SocHealth& h = health_[static_cast<size_t>(i)];
    if (h.down) {
      ++marked_down;
    }
    // Powered (booting or on) but has never produced a healthy beat.
    const SocPowerState state = cluster_->soc(i).state();
    if (!h.monitored &&
        (state == SocPowerState::kBooting || state == SocPowerState::kOn)) {
      ++never;
    }
  }
  never_healthy_ = never;
  marked_down_gauge_->Set(static_cast<double>(marked_down));
  never_healthy_gauge_->Set(static_cast<double>(never));
}

}  // namespace soccluster

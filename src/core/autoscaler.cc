#include "src/core/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace soccluster {

namespace {

// Control period: one rate sample and one sizing decision per tick.
constexpr Duration kPeriod = Duration::Seconds(1);
// SoCs kept active even with no traffic.
constexpr int kMinActive = 1;
// Smoothing factor for the arrival-rate estimate.
constexpr double kRateEwmaAlpha = 0.3;

}  // namespace

ClusterAutoscaler::ClusterAutoscaler(Simulator* sim, SocCluster* cluster,
                                     SocServingFleet* fleet,
                                     AutoscalerConfig config)
    : sim_(sim), cluster_(cluster), fleet_(fleet), config_(config) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK(fleet_ != nullptr);
  // Config sanity: these feed divisions and clamps in Tick(); a zero or
  // out-of-range value would quietly pin the fleet at min or max size.
  SOC_CHECK_GT(config_.target_utilization, 0.0);
  SOC_CHECK_LE(config_.target_utilization, 1.0);
  SOC_CHECK_LE(kMinActive, cluster_->num_socs());
  SOC_CHECK_GE(config_.warm_pool, 0);
  MetricRegistry& metrics = sim_->metrics();
  desired_series_ = metrics.GetTimeSeries("autoscaler.desired_active");
  powered_series_ = metrics.GetTimeSeries("autoscaler.powered_socs");
  power_ons_ = metrics.GetCounter("autoscaler.power_ons");
  power_offs_ = metrics.GetCounter("autoscaler.power_offs");
  ticker_ = std::make_unique<PeriodicTask>(sim_, kPeriod,
                                           [this] { Tick(); });
}

ClusterAutoscaler::~ClusterAutoscaler() = default;

void ClusterAutoscaler::Start() { ticker_->Start(); }

void ClusterAutoscaler::Stop() { ticker_->Stop(); }

int ClusterAutoscaler::PoweredCount() const {
  int powered = 0;
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    const SocPowerState state = cluster_->soc(i).state();
    if (state == SocPowerState::kOn || state == SocPowerState::kBooting) {
      ++powered;
    }
  }
  return powered;
}

void ClusterAutoscaler::Tick() {
  // Estimate the serving rate from completions over the last period.
  const int64_t completed = fleet_->completed();
  const double window_rate =
      static_cast<double>(completed - last_completed_) / kPeriod.ToSeconds();
  last_completed_ = completed;
  rate_estimate_ =
      kRateEwmaAlpha * window_rate + (1.0 - kRateEwmaAlpha) * rate_estimate_;

  const double per_soc = fleet_->PerSocThroughput();
  SOC_CHECK_GT(per_soc, 0.0) << "fleet reports non-positive per-SoC capacity";
  int desired = static_cast<int>(std::ceil(
      rate_estimate_ / (per_soc * config_.target_utilization)));
  // A backlog means we are under-provisioned regardless of the estimate;
  // size the correction to drain the queue within one period.
  if (fleet_->queue_length() > 0) {
    const int drain = static_cast<int>(std::ceil(
        fleet_->queue_length() / (per_soc * kPeriod.ToSeconds())));
    desired = std::max(desired, fleet_->active_count() + std::max(1, drain));
  }
  desired = std::clamp(desired, kMinActive, cluster_->num_socs());
  if (desired != desired_active_) {
    sim_->tracer().Instant(
        desired > desired_active_ ? "scale_up" : "scale_down", "autoscaler");
  }
  desired_active_ = desired;
  fleet_->SetActiveCount(desired);
  ApplyPowerStates(std::min(cluster_->num_socs(),
                            desired + config_.warm_pool));
  desired_series_->Append(sim_->Now(), static_cast<double>(desired_active_));
  powered_series_->Append(sim_->Now(), static_cast<double>(PoweredCount()));
}

void ClusterAutoscaler::ApplyPowerStates(int keep_powered) {
  // SoCs [0, keep_powered) stay on; the rest power off when drained. Serving
  // always uses the lowest indices, so higher indices are safe to cut first.
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    SocModel& soc = cluster_->soc(i);
    if (i < keep_powered) {
      if (soc.state() == SocPowerState::kOff) {
        const Status status =
            soc.PowerOn(cluster_->chassis().soc_wake, nullptr);
        SOC_CHECK(status.ok()) << status.ToString();
        power_ons_->Increment();
      }
      continue;
    }
    if (soc.state() == SocPowerState::kOn && soc.cpu_util() == 0.0 &&
        soc.gpu_util() == 0.0 && soc.dsp_util() == 0.0 &&
        soc.codec_sessions() == 0) {
      const Status status = soc.PowerOff();
      SOC_CHECK(status.ok()) << status.ToString();
      power_offs_->Increment();
    }
  }
}

}  // namespace soccluster

#include "src/cluster/bmc.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace soccluster {

namespace {
constexpr Duration kSamplePeriod = Duration::Seconds(1);
constexpr double kAmbientCelsius = 30.0;  // Edge sites run warm.
// Steady-state temperature rise per watt of chassis power: 60 SoCs at full
// CPU/GPU/DSP draw (876.8 W) settle at 78.2 C.
constexpr double kCelsiusPerWatt = 0.055;
// Thermal time constant of the chassis airflow.
constexpr Duration kThermalTau = Duration::Seconds(90);
constexpr double kFanMinDuty = 0.25;
constexpr double kFanFullTempCelsius = 75.0;  // Duty reaches 1.0 here.
}  // namespace

BmcModel::BmcModel(Simulator* sim, SocCluster* cluster, BmcConfig)
    : sim_(sim), cluster_(cluster), temperature_(kAmbientCelsius),
      last_sample_time_(sim->Now()) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  sampler_ = std::make_unique<PeriodicTask>(
      sim_, kSamplePeriod, [this] { Sample(); }, "bmc.sample");
}

BmcModel::~BmcModel() = default;

void BmcModel::StartSampling() { sampler_->Start(); }

void BmcModel::StopSampling() { sampler_->Stop(); }

void BmcModel::Sample() {
  const SimTime now = sim_->Now();
  last_power_ = cluster_->CurrentPower();
  // Telemetry sanity: cluster power is a sum of non-negative component
  // meters, and the thermal state must stay finite — a NaN here would
  // propagate into every downstream table.
  SOC_CHECK_GE(last_power_.watts(), 0.0) << "negative cluster power";
  SOC_CHECK(std::isfinite(last_power_.watts())) << "non-finite cluster power";
  SOC_DCHECK(std::isfinite(temperature_)) << "non-finite BMC temperature";
  power_samples_.Add(last_power_.watts());

  // First-order thermal response toward the steady-state temperature for
  // the current power draw.
  const double target = kAmbientCelsius + kCelsiusPerWatt * last_power_.watts();
  const double dt = (now - last_sample_time_).ToSeconds();
  const double alpha = 1.0 - std::exp(-dt / kThermalTau.ToSeconds());
  temperature_ += (target - temperature_) * alpha;
  last_sample_time_ = now;
}

double BmcModel::FanDuty() const {
  const double span = kFanFullTempCelsius - kAmbientCelsius;
  const double frac = (temperature_ - kAmbientCelsius) / span;
  return std::clamp(kFanMinDuty + frac * (1.0 - kFanMinDuty), kFanMinDuty,
                    1.0);
}

}  // namespace soccluster

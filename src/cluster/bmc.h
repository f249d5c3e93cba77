// Baseboard Management Controller model (§2.2). The real BMC monitors
// power, temperature, and hardware failures over I2C/USB/UART and exposes
// them over its Ethernet port; the paper reads cluster power through its
// API. This model samples the chassis on a fixed period, runs a first-order
// thermal model, and drives fan duty from temperature.

#ifndef SRC_CLUSTER_BMC_H_
#define SRC_CLUSTER_BMC_H_

#include <memory>

#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/sim/simulator.h"

namespace soccluster {

// The BMC has no settings: the 1 s sample period, the thermal model and the
// fan curve are constants in bmc.cc. The empty type keeps the constructor's
// signature.
struct BmcConfig {};

class BmcModel {
 public:
  BmcModel(Simulator* sim, SocCluster* cluster, BmcConfig);
  ~BmcModel();
  BmcModel(const BmcModel&) = delete;
  BmcModel& operator=(const BmcModel&) = delete;

  void StartSampling();
  void StopSampling();

  // Most recent power sample, as the paper's scripts would read it.
  Power LastPowerSample() const { return last_power_; }
  // Statistics over all samples so far.
  const RunningStat& PowerSamples() const { return power_samples_; }
  double TemperatureCelsius() const { return temperature_; }
  double FanDuty() const;
  int64_t num_samples() const { return power_samples_.count(); }

 private:
  void Sample();

  Simulator* sim_;
  SocCluster* cluster_;
  std::unique_ptr<PeriodicTask> sampler_;
  Power last_power_ = Power::Zero();
  RunningStat power_samples_;
  double temperature_;
  SimTime last_sample_time_;
};

}  // namespace soccluster

#endif  // SRC_CLUSTER_BMC_H_

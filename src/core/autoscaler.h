// Energy-proportional autoscaling of the SoC fleet (§5.2: "when incoming
// data can be adequately processed by only a subset of SoCs, the remaining
// SoCs can be kept in a low-power state or even turned off").
//
// The autoscaler watches the serving fleet's completion rate and queue,
// sizes the active set for a target utilization, keeps a small warm pool
// idle-on for bursts, and powers the rest of the SoCs off. This per-SoC
// granularity is what gives the cluster its Figure 12 advantage over a
// monolithic GPU at light load.

#ifndef SRC_CORE_AUTOSCALER_H_
#define SRC_CORE_AUTOSCALER_H_

#include <memory>

#include "src/cluster/cluster.h"
#include "src/workload/dl/serving.h"

namespace soccluster {

struct AutoscalerConfig {
  double target_utilization = 0.85;
  int warm_pool = 2;  // Idle-on SoCs kept beyond the active set.
};

class ClusterAutoscaler {
 public:
  ClusterAutoscaler(Simulator* sim, SocCluster* cluster,
                    SocServingFleet* fleet, AutoscalerConfig config);
  ~ClusterAutoscaler();
  ClusterAutoscaler(const ClusterAutoscaler&) = delete;
  ClusterAutoscaler& operator=(const ClusterAutoscaler&) = delete;

  void Start();
  void Stop();

  int desired_active() const { return desired_active_; }
  double EstimatedRate() const { return rate_estimate_; }
  // SoCs currently powered (on or booting).
  int PoweredCount() const;

 private:
  void Tick();
  void ApplyPowerStates(int keep_powered);

  Simulator* sim_;
  SocCluster* cluster_;
  SocServingFleet* fleet_;
  AutoscalerConfig config_;
  std::unique_ptr<PeriodicTask> ticker_;
  int64_t last_completed_ = 0;
  double rate_estimate_ = 0.0;
  int desired_active_ = 0;
  // Scaling decisions published to the registry ("autoscaler.*"): the
  // desired/powered series become Perfetto counter tracks, the counters
  // tally SoC power-state transitions the autoscaler ordered.
  TimeSeries* desired_series_;
  TimeSeries* powered_series_;
  Counter* power_ons_;
  Counter* power_offs_;
};

}  // namespace soccluster

#endif  // SRC_CORE_AUTOSCALER_H_

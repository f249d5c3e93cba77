// Chaos scenario driver: composes the fault taxonomy (FaultInjector), the
// heartbeat detector (HealthMonitor), and the orchestrator's re-placement
// queue into one closed control loop, then measures how the cluster rides
// through failures:
//
//   fault  -> SoC dies -> heartbeats miss -> monitor declares down
//          -> Orchestrator::OnSocFailure (evict + re-place or queue)
//   repair -> ChaosRunner powers the SoC back on -> boot -> healthy beat
//          -> monitor declares up -> Orchestrator::OnSocRecovered (drain).
//
// There is no oracle path here: the orchestrator only ever learns about
// failures through missed heartbeats, so detection latency, MTTR, and
// availability are all earned, not assumed. Everything is seeded via
// FaultConfig, so a ChaosReport is bit-reproducible.

#ifndef SRC_CORE_CHAOS_H_
#define SRC_CORE_CHAOS_H_

#include <memory>

#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fault.h"
#include "src/core/graydetect.h"
#include "src/core/health.h"
#include "src/core/orchestrator.h"
#include "src/sim/simulator.h"

namespace soccluster {

struct ChaosConfig {
  FaultConfig faults;
  HealthConfig health;
  // New faults are injected over this much simulated time (repairs may
  // complete later).
  Duration horizon = Duration::Hours(24 * 90);
  // Gray-failure response layer (suspicion scoring + quarantine). Off by
  // default: the heartbeat-only runs (bench_fault_availability,
  // edge_resilience) report no request-path evidence for it to judge.
  bool enable_gray = false;
  GrayFailureConfig gray;
};

// Availability and recovery metrics for one chaos run.
struct ChaosReport {
  // Time-weighted fraction of SoCs usable over the run, in [0, 1].
  double availability = 1.0;
  // Mean observed outage (down verdict -> healthy beat), per recovery.
  double mttr_hours = 0.0;
  // Mean heartbeat detection latency (last healthy beat -> down verdict).
  double detection_latency_ms = 0.0;
  int64_t failures = 0;
  int64_t repairs = 0;
  int64_t down_events = 0;
  int64_t up_events = 0;
  int64_t replicas_lost = 0;
  int64_t replicas_recovered = 0;
  int64_t replicas_pending = 0;
  // Gray-failure layer totals (all zero when the layer is disabled).
  int64_t gray_suspects = 0;
  int64_t gray_quarantines = 0;
  int64_t gray_reinstated = 0;
  int64_t gray_escalated = 0;
};

class ChaosRunner {
 public:
  // `orchestrator` may be null for pure availability runs (no workloads).
  ChaosRunner(Simulator* sim, SocCluster* cluster, Orchestrator* orchestrator,
              ChaosConfig config);
  ChaosRunner(const ChaosRunner&) = delete;
  ChaosRunner& operator=(const ChaosRunner&) = delete;

  // Wires the control loop and starts fault injection + health polling.
  // Call once, then drive the simulator (e.g. sim->RunFor(horizon)).
  void Start();

  // Snapshot of the run so far (integrates availability up to Now()).
  ChaosReport Report();

  FaultInjector& injector() { return injector_; }
  HealthMonitor& monitor() { return monitor_; }
  // Null unless `enable_gray`.
  GrayFailureManager* gray() { return gray_.get(); }

 private:
  void UpdateAvailability();

  Simulator* sim_;
  SocCluster* cluster_;
  Orchestrator* orchestrator_;
  ChaosConfig config_;
  FaultInjector injector_;
  HealthMonitor monitor_;
  std::unique_ptr<GrayFailureManager> gray_;
  TimeWeightedStat availability_;
  Gauge* usable_gauge_;
};

}  // namespace soccluster

#endif  // SRC_CORE_CHAOS_H_

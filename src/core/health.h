// Heartbeat-based failure detection. The oracle path — FaultInjector
// invoking the orchestrator the instant a SoC fails — is not how a real
// chassis learns about failures: the BMC (or a gossip peer) notices missed
// heartbeats, so detection lags the fault by miss_threshold x interval.
// HealthMonitor models that: it polls every SoC on a fixed interval, marks
// a SoC down after `miss_threshold` consecutive missed beats, and marks it
// up again on the first healthy beat after an outage (repair + reboot).
//
// Two detector modes:
//
//   * kFixedMiss (default) — the classic fixed threshold: down after
//     `miss_threshold` consecutive missed beats. Cheap, predictable, but a
//     flaky management path (beats lost in flight while the SoC is fine)
//     triggers false verdicts.
//   * kPhiAccrual — a phi-accrual detector (Hayashibara et al.): the
//     monitor learns each SoC's heartbeat inter-arrival distribution and,
//     when a beat is missed, computes phi = -log10(P(a beat arrives this
//     late)) under a normal fit. Down fires when phi >= phi_threshold.
//     A SoC with lossy-but-alive heartbeats widens its own distribution,
//     so the verdict adapts instead of tripping at a fixed miss count.
//
// Flaky heartbeats: each beat from a SoC with heartbeat_loss_prob > 0 is
// lost with that probability (seeded draw, deterministic). Lost beats look
// exactly like a dead SoC to the detector — that is the gray failure.
//
// Wire on_soc_down to Orchestrator::OnSocFailure and on_soc_up to
// Orchestrator::OnSocRecovered to close the control loop with realistic
// detection latency (ChaosRunner does exactly this).
//
// SoCs that have never produced a healthy beat are not monitored — a
// cluster booting for the first time is not 60 failures. They are,
// however, *surfaced*: the health.never_healthy gauge counts SoCs that
// are powered (booting or on) but have never beaten, so a board stuck in
// boot is visible without a down verdict the control loop would act on.

#ifndef SRC_CORE_HEALTH_H_
#define SRC_CORE_HEALTH_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace soccluster {

enum class DetectorMode {
  kFixedMiss = 0,  // Down after miss_threshold consecutive missed beats.
  kPhiAccrual,     // Down when accrued suspicion phi >= phi_threshold.
};

struct HealthConfig {
  Duration heartbeat_interval = Duration::Seconds(10);
  // Consecutive missed beats before a SoC is declared down (kFixedMiss).
  // Detection latency is therefore in ((miss_threshold - 1) x interval,
  // miss_threshold x interval] after the last healthy beat — never zero.
  int miss_threshold = 3;

  DetectorMode mode = DetectorMode::kFixedMiss;
  // kPhiAccrual: fire when phi >= phi_threshold. phi = 1 means a 10%
  // chance the beat is merely late; 8 means 1e-8 (Akka's default).
  double phi_threshold = 8.0;

  // Seed for the heartbeat-loss draws (flaky-heartbeat gray faults). The
  // stream is only consumed for SoCs with heartbeat_loss_prob > 0, so
  // runs without flaky faults are bit-identical across seeds.
  uint64_t seed = 42;
};

class HealthMonitor {
 public:
  using SocCallback = std::function<void(int soc_index)>;

  HealthMonitor(Simulator* sim, SocCluster* cluster, HealthConfig config);
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void Start();
  void Stop();
  bool running() const;

  void set_on_soc_down(SocCallback cb) { on_soc_down_ = std::move(cb); }
  void set_on_soc_up(SocCallback cb) { on_soc_up_ = std::move(cb); }

  bool IsMarkedDown(int soc_index) const;
  int64_t down_events() const { return down_events_; }
  int64_t up_events() const { return up_events_; }
  // SoCs currently powered but never yet healthy (mirrors the gauge).
  int64_t never_healthy() const { return never_healthy_; }
  // Current accrued suspicion for one SoC (kPhiAccrual; 0 when healthy).
  double Phi(int soc_index) const;

  // Each distribution is kept once, as running stats (means) beside a
  // mergeable quantile sketch (p50/p99 for bench reports). They are this
  // monitor's own: monitors sharing a simulator share its registry.
  // Last healthy beat -> down verdict, per down event.
  const HistogramMetric& detection_latency_ms() const {
    return detection_latency_ms_;
  }
  // Down verdict -> healthy again, per recovered outage: the observed MTTR.
  const HistogramMetric& observed_outage_hours() const {
    return observed_outage_hours_;
  }

 private:
  struct SocHealth {
    bool monitored = false;  // Has produced at least one healthy beat.
    bool down = false;
    int misses = 0;
    SimTime last_ok;
    SimTime down_at;
    // Learned heartbeat inter-arrival distribution (kPhiAccrual).
    RunningStat interarrival_s;
  };

  void Poll();
  void MarkDown(SocHealth& h, int soc_index, SimTime now);
  double PhiFor(const SocHealth& h, SimTime now) const;

  Simulator* sim_;
  SocCluster* cluster_;
  HealthConfig config_;
  std::vector<SocHealth> health_;
  std::unique_ptr<PeriodicTask> poller_;
  Rng rng_;
  SocCallback on_soc_down_;
  SocCallback on_soc_up_;
  int64_t down_events_ = 0;
  int64_t up_events_ = 0;
  int64_t never_healthy_ = 0;
  HistogramMetric detection_latency_ms_;
  HistogramMetric observed_outage_hours_;
  // Registry instruments ("health.*").
  Counter* down_metric_;
  Counter* up_metric_;
  Gauge* marked_down_gauge_;
  Gauge* never_healthy_gauge_;
  HistogramMetric* detection_metric_;
};

}  // namespace soccluster

#endif  // SRC_CORE_HEALTH_H_

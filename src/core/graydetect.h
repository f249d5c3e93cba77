// Gray-failure detection and quarantine: the request-path half of the
// health stack. HealthMonitor (heartbeats) catches fail-stop; this file
// catches fail-SLOW — SoCs that keep beating while quietly wrecking tail
// latency (sustained throttle, zombie request paths, browned-out links).
//
// Two pieces:
//
//   * DegradationScorer — a passive evidence sink. Hot paths (serving /
//     live / serverless) report per-SoC completion latency and outcome;
//     the scorer buckets them into rotating windows of per-SoC quantile
//     sketches and error counts. Each evaluation compares every SoC's
//     windowed p99 against the fleet median p99 — relative, so a globally
//     loaded cluster does not look like sixty stragglers — and folds the
//     latency ratio and error rate into an EWMA suspicion score in [0, 1].
//     Latency suspicion rises linearly from 0 at 1.5x the fleet-median p99
//     to 1 at 4x; error suspicion reaches 1 at a 50% windowed error rate;
//     the two combine by max, so a zombie (pure errors) and a straggler
//     (pure latency) both score fully; the EWMA weighs the new window 0.7.
//
//   * GrayFailureManager — the control loop. A periodic tick advances the
//     scorer and walks a per-SoC state machine:
//
//       healthy --suspicion >= 0.3--> suspect (placement-penalized)
//       suspect --suspicion < 0.15--> healthy
//       suspect --suspicion >= 0.5 for 2 ticks--> quarantined
//         (drained via on_quarantine, canary-probed every probe_interval;
//         at most 20% of the fleet at once)
//       quarantined --6 passing probes in a row--> reinstated
//       quarantined --6 failing probes in a row--> escalated (power-cycle
//         + on_escalate)
//
//     Placement integration is two-pronged: quarantined SoCs are excluded
//     outright (SocModel::quarantined() feeds SocCapacityView::IsPlaceable)
//     while suspects stay placeable but cost PlacementPenalty() extra load
//     units in the Placer's load model, steering new work away without a
//     hard evacuation on thin evidence.
//
// Determinism contract: the scorer and manager consume no randomness, walk
// SoCs in index order, and schedule only their own periodic tick; two runs
// with the same seed and the layer enabled are bit-identical (DigestState
// mixes the full detector state to prove it).

#ifndef SRC_CORE_GRAYDETECT_H_
#define SRC_CORE_GRAYDETECT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/digest.h"
#include "src/cluster/cluster.h"
#include "src/obs/sketch.h"
#include "src/sim/simulator.h"

namespace soccluster {

struct DegradationScorerConfig {
  // Evidence window; suspicion is evaluated over the last completed
  // window so a burst cannot flip a verdict mid-accumulation. Evaluate()
  // rotates the window on every call, so the caller's period is the real
  // window: GrayFailureManager requires it to equal GrayFailureConfig::tick.
  Duration window = Duration::Seconds(30);
  // Minimum completions in a SoC's window before its latency is judged.
  int min_samples = 20;
};

// Per-SoC request-path evidence and suspicion scoring. Passive: owns no
// events; GrayFailureManager (or a test) calls Evaluate on its tick.
class DegradationScorer {
 public:
  DegradationScorer(Simulator* sim, int num_socs,
                    DegradationScorerConfig config);
  DegradationScorer(const DegradationScorer&) = delete;
  DegradationScorer& operator=(const DegradationScorer&) = delete;

  // Evidence feed, called from request completion paths. `ok` means the
  // attempt succeeded (a failed attempt carries no meaningful latency).
  void Report(int soc_index, Duration latency, bool ok);

  // Rotates windows and recomputes every SoC's suspicion from the window
  // just completed. Deterministic; call once per `window`.
  void Evaluate();

  // Current EWMA suspicion in [0, 1].
  double Suspicion(int soc_index) const;
  // Clears one SoC's evidence and score (reinstatement, power-cycle).
  void Reset(int soc_index);

  // Fleet-median windowed p99 from the last Evaluate (0 until evidence).
  double fleet_p99_ms() const { return fleet_p99_ms_; }
  int num_socs() const { return static_cast<int>(socs_.size()); }
  const DegradationScorerConfig& config() const { return config_; }

  void DigestState(StateDigest& digest) const;

 private:
  struct SocEvidence {
    QuantileSketch window;       // Accumulating window.
    QuantileSketch last_window;  // Last completed window (judged).
    int64_t ok = 0, errors = 0;            // Accumulating counts.
    int64_t last_ok = 0, last_errors = 0;  // Last completed counts.
    double suspicion = 0.0;
  };

  Simulator* sim_;
  DegradationScorerConfig config_;
  std::vector<SocEvidence> socs_;
  double fleet_p99_ms_ = 0.0;
  // Registry instruments ("gray.*").
  Counter* reports_metric_;
  Counter* error_reports_metric_;
  Gauge* fleet_p99_gauge_;
  Gauge* max_suspicion_gauge_;
};

struct GrayFailureConfig {
  DegradationScorerConfig scorer;
  // Control-loop tick; each tick evaluates the scorer and advances the
  // state machines. Must equal scorer.window (CHECKed at construction).
  Duration tick = Duration::Seconds(30);
  // Canary probing while quarantined.
  Duration probe_interval = Duration::Seconds(10);
  // A probe passes when it succeeds within this bound.
  Duration probe_latency_threshold = Duration::MillisF(500);
  // Escalation power-cycles the board (Fail -> Repair -> PowerOn after
  // `reboot_time`), clearing zombie/throttle state. Zero leaves the SoC
  // failed for an external repair path.
  Duration reboot_time = Duration::Minutes(3);
};

// Closed-loop gray-failure response. See file comment for the lifecycle.
class GrayFailureManager {
 public:
  enum class SocState {
    kHealthy = 0,
    kSuspect,
    kQuarantined,
  };
  using SocCallback = std::function<void(int soc_index)>;
  struct ProbeResult {
    bool ok = false;
    Duration latency;
  };
  // Override for the canary probe (tests inject outcomes). The default
  // models an in-chassis canary request: fails on unusable/zombie SoCs,
  // otherwise completes in 100 ms / throttle_factor.
  using Prober = std::function<ProbeResult(int soc_index)>;

  // Extra load-model units a suspect costs in the Placer (steers new
  // placements away; ~1.0 is one fully-busy SoC of weighted load).
  static constexpr double kSuspectPenalty = 4.0;
  // A suspect whose suspicion falls below this is exonerated.
  static constexpr double kClearThreshold = 0.15;
  // Cap on concurrently quarantined SoCs, as a fraction of the fleet: a
  // detector gone wrong must not evacuate the cluster.
  static constexpr double kMaxQuarantinedFraction = 0.2;

  GrayFailureManager(Simulator* sim, SocCluster* cluster,
                     GrayFailureConfig config);
  GrayFailureManager(const GrayFailureManager&) = delete;
  GrayFailureManager& operator=(const GrayFailureManager&) = delete;

  void Start();
  void Stop();
  bool running() const;

  DegradationScorer& scorer() { return *scorer_; }
  const DegradationScorer& scorer() const { return *scorer_; }

  // Fired when a SoC enters quarantine — wire to the orchestrator's drain
  // (Orchestrator::OnSocFailure re-places its replicas elsewhere).
  void set_on_quarantine(SocCallback cb) { on_quarantine_ = std::move(cb); }
  // Fired when a quarantined SoC passes probation and rejoins — wire to
  // Orchestrator::OnSocRecovered.
  void set_on_reinstate(SocCallback cb) { on_reinstate_ = std::move(cb); }
  // Fired when probes keep failing and the SoC is escalated (after the
  // power-cycle is initiated).
  void set_on_escalate(SocCallback cb) { on_escalate_ = std::move(cb); }
  void set_prober(Prober prober) { prober_ = std::move(prober); }

  SocState state(int soc_index) const;
  // Extra load-model units for the Placer (0 unless suspect/quarantined).
  double PlacementPenalty(int soc_index) const;

  int64_t suspects_total() const { return suspects_total_; }
  int64_t quarantines_total() const { return quarantines_total_; }
  int64_t reinstated_total() const { return reinstated_total_; }
  int64_t escalated_total() const { return escalated_total_; }
  int quarantined_now() const;

  void DigestState(StateDigest& digest) const;

 private:
  struct SocControl {
    SocState state = SocState::kHealthy;
    int hot_ticks = 0;  // Consecutive ticks at the quarantine threshold.
    int ok_probes = 0;
    int failed_probes = 0;
    SpanId span = 0;  // Async quarantine span, open while quarantined.
  };

  void Tick();
  void Probe(int soc_index);
  void EnterSuspect(int soc_index);
  void EnterQuarantine(int soc_index);
  void Reinstate(int soc_index);
  void Escalate(int soc_index);
  ProbeResult DefaultProbe(int soc_index) const;

  Simulator* sim_;
  SocCluster* cluster_;
  GrayFailureConfig config_;
  std::unique_ptr<DegradationScorer> scorer_;
  std::vector<SocControl> socs_;
  std::unique_ptr<PeriodicTask> ticker_;
  std::unique_ptr<PeriodicTask> prober_task_;
  SocCallback on_quarantine_;
  SocCallback on_reinstate_;
  SocCallback on_escalate_;
  Prober prober_;
  int64_t suspects_total_ = 0;
  int64_t quarantines_total_ = 0;
  int64_t reinstated_total_ = 0;
  int64_t escalated_total_ = 0;
  // Registry instruments ("gray.*").
  Counter* suspects_metric_;
  Counter* quarantines_metric_;
  Counter* reinstated_metric_;
  Counter* escalated_metric_;
  Counter* probe_ok_metric_;
  Counter* probe_fail_metric_;
  Gauge* suspect_now_gauge_;
  Gauge* quarantined_now_gauge_;
};

}  // namespace soccluster

#endif  // SRC_CORE_GRAYDETECT_H_

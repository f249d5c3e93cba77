// Fault injection for the cluster (§8: the failure of a single SoC
// subsystem, such as flash, renders the whole SoC unusable, and mobile SoCs
// are not designed for 24/7 full-speed operation).
//
// The injector models a taxonomy of failure domains, all seeded and
// deterministic:
//
//   * per-SoC faults — Poisson per SoC; a configurable fraction is
//     transient (watchdog reboot after a short outage), the rest permanent
//     (flash death: the board sits failed until an operator swap);
//   * PCB-correlated failures — one event takes down all five SoCs on a
//     board at once (shared regulator/connector), repaired together;
//   * uplink flaps — a PCB uplink or the ESB's SFP+ uplink goes dark for a
//     bounded interval; traffic crossing it stalls and then resumes;
//   * thermal trips — a SoC is throttled (service-rate scaled) for the
//     excursion, without losing its load;
//   * gray failures — fail-slow modes that keep the SoC heartbeating while
//     degrading service: slow SoCs (deep throttle far longer than a thermal
//     trip), link brownouts (fractional capacity on a PCB/ESB uplink that
//     stays "up"), flaky heartbeats (management-path loss without data-path
//     impact), and zombies (healthy beats, failing requests).
//
// The five fail-stop and thermal kinds come from seeded Poisson chains run
// by Start(). The four gray kinds have no chain: a bench or test plants
// each one at a chosen time, target and severity through the Plant* calls.
//
// Failures target only usable (powered-on) SoCs, matching the "under
// sustained load" MTBF semantics; events landing on off/booting SoCs are
// re-drawn, and a planted gray fault on such a SoC lands nothing. All
// activity is published to the metrics registry ("fault.*") and as
// instants on the "faults" trace track, and an append-only history
// records every event so two runs with the same seed can be compared
// bit-for-bit.

#ifndef SRC_CLUSTER_FAULT_H_
#define SRC_CLUSTER_FAULT_H_

#include <functional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/simulator.h"

namespace soccluster {

enum class FaultKind {
  kSocTransient = 0,  // Watchdog reboot; auto-recovers after transient_outage.
  kSocPermanent,      // Subsystem death; waits repair_time for a board swap.
  kPcbFailure,        // Correlated: every SoC on one PCB fails together.
  kUplinkFlap,        // A PCB/ESB uplink drops for uplink_flap_duration.
  kThermalTrip,       // SoC throttled for thermal_duration.
  kSlowSoc,           // Gray: sustained deep throttle (fail-slow straggler).
  kLinkBrownout,      // Gray: uplink capacity browns out, link stays up.
  kFlakyHeartbeat,    // Gray: heartbeats lost probabilistically.
  kZombie,            // Gray: heartbeats healthy, requests fail.
};
inline constexpr int kNumFaultKinds = 9;
const char* FaultKindName(FaultKind kind);

struct FaultConfig {
  // Mean time between failures of one SoC under sustained load.
  Duration mtbf_per_soc = Duration::Hours(24 * 90);
  // Time for an operator/automation to replace or reset a failed SoC.
  // Zero disables repair of permanent faults.
  Duration repair_time = Duration::Hours(24);
  // Fraction of per-SoC faults that are transient, in [0, 1]. Transient
  // faults always recover, after transient_outage.
  double transient_fraction = 0.0;
  Duration transient_outage = Duration::Minutes(3);
  // Correlated whole-PCB failures; mean time between failures of one PCB.
  // Zero disables.
  Duration mtbf_per_pcb = Duration::Zero();
  Duration pcb_repair_time = Duration::Hours(48);
  // Uplink flaps, drawn independently for each PCB uplink and for the ESB
  // uplink. Zero disables.
  Duration uplink_flap_mtbf = Duration::Zero();
  Duration uplink_flap_duration = Duration::Seconds(30);
  // Thermal-throttle excursions per SoC (throttled to
  // FaultInjector::kThermalThrottleFactor). Zero disables.
  Duration thermal_mtbf = Duration::Zero();
  Duration thermal_duration = Duration::Minutes(10);
  uint64_t seed = 42;
};

// One injected event, recorded in arrival order. `index` is a SoC index for
// SoC-scoped kinds, a PCB index for kPcbFailure, and for kUplinkFlap the
// flapped PCB index or num_pcbs for the ESB uplink.
struct FaultEvent {
  FaultKind kind = FaultKind::kSocPermanent;
  int index = 0;
  SimTime at;
};

class FaultInjector {
 public:
  using SocCallback = std::function<void(int soc_index)>;

  // Service-rate factor of a SoC during a thermal trip.
  static constexpr double kThermalThrottleFactor = 0.6;

  FaultInjector(Simulator* sim, SocCluster* cluster, FaultConfig config);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Begins scheduling failures over `horizon` of simulated time. Each fault
  // process draws independent exponential inter-failure times; only events
  // that land within the horizon are scheduled (keeps short runs
  // event-free). Must be called at most once — a second call would double
  // every failure chain.
  void Start(Duration horizon);
  bool started() const { return started_; }

  // Invoked (if set) after a SoC transitions to kFailed (also once per SoC
  // of a correlated PCB failure).
  void set_on_failure(SocCallback cb) { on_failure_ = std::move(cb); }
  // Invoked (if set) after a SoC's repair completes; the SoC is back in the
  // powered-off state awaiting re-admission (e.g. PowerOn + re-placement).
  void set_on_repair(SocCallback cb) { on_repair_ = std::move(cb); }

  int64_t failures_injected() const { return failures_injected_; }
  int64_t repairs_completed() const { return repairs_completed_; }
  int64_t faults_of(FaultKind kind) const {
    return faults_by_kind_[static_cast<size_t>(kind)];
  }
  int64_t pcb_failures() const { return faults_of(FaultKind::kPcbFailure); }
  int64_t uplink_flaps() const { return faults_of(FaultKind::kUplinkFlap); }
  int64_t thermal_trips() const { return faults_of(FaultKind::kThermalTrip); }
  int64_t gray_faults() const {
    return faults_of(FaultKind::kSlowSoc) +
           faults_of(FaultKind::kLinkBrownout) +
           faults_of(FaultKind::kFlakyHeartbeat) +
           faults_of(FaultKind::kZombie);
  }

  // The only way to inject a gray fault: one event at an absolute time,
  // independent of the seeded chains (and usable without Start()). A SoC
  // that is not usable at `at` gets nothing. `duration` of zero means
  // "until power-cycle". A `link_slot` is a PCB index, or num_pcbs for the
  // ESB uplink.
  void PlantSlowSoc(int soc_index, SimTime at, Duration duration,
                    double factor);
  void PlantLinkBrownout(int link_slot, SimTime at, Duration duration,
                         double factor);
  void PlantFlakyHeartbeat(int soc_index, SimTime at, Duration duration,
                           double loss_prob);
  void PlantZombie(int soc_index, SimTime at, Duration duration);

  // Every injected event in arrival order; two runs with identical
  // FaultConfig (and cluster activity) produce bit-identical histories.
  const std::vector<FaultEvent>& history() const { return history_; }

  // Mixes the injector's RNG fingerprint, per-kind counts and full
  // history: the fault schedule itself.
  void DigestState(StateDigest& digest) const;

 private:
  // A seeded Poisson process: every target in its scope (SoC, PCB, or
  // uplink slot 0..num_pcbs with num_pcbs the ESB) runs an independent
  // chain of exponential waits at `mtbf`. A firing on a usable SoC (or any
  // PCB or slot) calls `fire`, which checks the rest of the kind's
  // eligibility and injects the fault or excursion.
  enum class Scope { kSocs, kPcbs, kLinks };
  struct Process {
    Duration FaultConfig::*mtbf;
    Scope scope;
    void (*fire)(FaultInjector& injector, int index);
  };
  // In Start() order; a seed's schedule depends on it.
  static const Process kProcesses[];

  // Draws the next wait of kProcesses[process] at `index`; when it lands
  // inside the horizon, schedules a firing that then chains again.
  void Chain(int process, int index);
  // Records `kind` at `index`, runs `set`, and schedules `restore` plus a
  // `restore_name` trace instant after `duration`. A gray excursion of zero
  // duration lasts until power-cycle and schedules no restore.
  template <typename Set, typename Restore>
  void Excursion(FaultKind kind, int index, Duration duration, Set set,
                 Restore restore, const char* restore_name);
  void FailSoc(int soc_index);
  void FailPcb(int pcb_index);
  // Fails one SoC (of a SoC or PCB fault) and runs on_failure_.
  void FailOne(int soc_index);
  void CompleteSocRepair(int soc_index);
  // The excursion of `kind` at `index`, shared by the flap and thermal
  // chains and Plant*. `value` is the throttle or brownout factor or the
  // heartbeat loss probability (unused for flaps and zombies).
  void Apply(FaultKind kind, int index, Duration duration, double value);
  // Schedules Apply() at `at`; SoC-scoped kinds land only on a usable SoC.
  void Plant(FaultKind kind, int index, SimTime at, Duration duration,
             double value);
  Duration DrawWait(Duration mtbf);
  void Record(FaultKind kind, int index);
  // The forward LinkId of `link_slot` (PCB uplinks, then the ESB); CHECKs
  // that the slot is in [0, num_pcbs].
  LinkId UplinkOf(int link_slot) const;

  Simulator* sim_;
  SocCluster* cluster_;
  FaultConfig config_;
  Rng rng_;
  SocCallback on_failure_;
  SocCallback on_repair_;
  bool started_ = false;
  SimTime horizon_end_;
  int64_t failures_injected_ = 0;
  int64_t repairs_completed_ = 0;
  int64_t faults_by_kind_[kNumFaultKinds] = {};
  std::vector<FaultEvent> history_;
  // Registry instruments ("fault.*").
  Counter* injected_metric_[kNumFaultKinds] = {};
  Counter* soc_failures_metric_;
  Counter* repairs_metric_;
};

}  // namespace soccluster

#endif  // SRC_CLUSTER_FAULT_H_

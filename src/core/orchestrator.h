// Cluster orchestrator: the missing software layer the paper calls for
// (§1: "the utilization of the deployed SoC Clusters varies widely and is
// generally low... advanced software that can orchestrate multiple SoCs is
// urgently demanded"). It manages named workloads as replica sets placed
// onto SoCs under CPU/memory constraints by a Placer (any PlacementPolicy;
// kPack concentrates replicas so idle SoCs can be powered off), with
// automatic re-placement when a SoC fails. Replicas never migrate once
// placed. Each replica holds its Reservation on the orchestrator's
// capacity view, so evicting it after a reboot nobody reported gives back
// only what the replica still holds.

#ifndef SRC_CORE_ORCHESTRATOR_H_
#define SRC_CORE_ORCHESTRATOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/base/priority.h"
#include "src/base/result.h"
#include "src/cluster/cluster.h"
#include "src/sched/placer.h"

namespace soccluster {

// Per-replica resource demand.
struct ReplicaDemand {
  double cpu_util = 0.0;          // Fraction of the 8-core CPU.
  double memory_gb = 0.0;
  double gpu_util = 0.0;
  double dsp_util = 0.0;
};

struct WorkloadStatus {
  std::string name;
  int desired_replicas = 0;
  int running_replicas = 0;
  // Replicas displaced by failures and awaiting re-placement (not counted
  // in desired_replicas; they re-join it when capacity returns).
  int pending_replicas = 0;
  std::vector<int> placements;  // SoC index per replica.
};

class Orchestrator {
 public:
  Orchestrator(Simulator* sim, SocCluster* cluster, PlacementPolicy policy);
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // Declares a workload type. Fails on duplicate names or invalid demand.
  // `priority` marks the workload's class for brownout preemption:
  // best-effort replicas are the first capacity reclaimed under power
  // pressure (PreemptBestEffort).
  Status RegisterWorkload(const std::string& name, ReplicaDemand demand,
                          Priority priority = Priority::kStandard);

  // Scales a workload to `replicas` instances, placing or evicting as
  // needed. Fails with RESOURCE_EXHAUSTED if capacity is insufficient (the
  // workload keeps its previous size).
  Status ScaleTo(const std::string& name, int replicas);

  Result<WorkloadStatus> GetStatus(const std::string& name) const;
  int TotalReplicas() const;
  // Number of SoCs hosting at least one replica.
  int SocsInUse() const;

  // Handles a SoC failure: evicts its replicas and re-places them on the
  // surviving SoCs. Replicas that cannot be re-placed immediately are
  // counted as lost AND queued for re-placement; DrainPendingReplicas()
  // recovers them when capacity returns. Wire this to a HealthMonitor's
  // on_soc_down (realistic detection latency) or, for oracle experiments,
  // to FaultInjector::set_on_failure.
  void OnSocFailure(int soc_index);
  // Notification that a SoC is usable again (e.g. HealthMonitor on_soc_up);
  // drains the pending re-placement queue.
  void OnSocRecovered(int soc_index);
  // Attempts to re-place queued replicas; returns the number placed. Also
  // invoked internally whenever a scale-down frees capacity.
  int DrainPendingReplicas();
  int64_t replicas_lost() const { return replicas_lost_; }
  int64_t replicas_recovered() const { return replicas_recovered_; }
  // Replicas currently queued for re-placement across all workloads.
  int64_t replicas_pending() const;

  // Brownout preemption: evicts up to `max_replicas` best-effort replicas
  // (hottest hosts first, per the placer's load ranking) into the pending
  // queue, where they wait for DrainPendingReplicas() like
  // failure-displaced replicas. Returns the number preempted.
  int PreemptBestEffort(int max_replicas);
  int64_t replicas_preempted() const { return replicas_preempted_; }
  // While the hold is on, pending replicas stay parked (DrainPending is a
  // no-op) — the brownout governor uses this so reclaimed capacity is not
  // immediately re-filled. Releasing the hold drains the queue.
  void SetPlacementHold(bool hold);
  bool placement_hold() const { return placement_hold_; }

  // Mixes every workload's placements (in name order), the capacity
  // ledger, and loss/recovery accounting.
  void DigestState(StateDigest& digest) const;

 private:
  struct Workload {
    ReplicaDemand demand;
    std::vector<Reservation> placements;  // One per replica.
    // Failure-displaced (or brownout-preempted) replicas awaiting capacity.
    int pending = 0;
    Priority priority = Priority::kStandard;
  };

  Status Place(Workload* workload, const std::string& name);
  void Evict(Workload* workload, size_t replica_index);

  Simulator* sim_;
  SocCluster* cluster_;
  // Shared multi-resource accounting + the pluggable placement policy.
  SocCapacityView view_;
  Placer placer_;
  std::map<std::string, Workload> workloads_;
  int64_t replicas_lost_ = 0;
  int64_t replicas_recovered_ = 0;
  int64_t replicas_preempted_ = 0;
  bool placement_hold_ = false;
  // Placement decisions published to the registry ("orchestrator.*").
  Counter* placements_metric_;
  Counter* evictions_metric_;
  Counter* lost_metric_;
  Counter* pending_replaced_metric_;
  Counter* preempted_metric_;
  Gauge* pending_gauge_;
};

}  // namespace soccluster

#endif  // SRC_CORE_ORCHESTRATOR_H_

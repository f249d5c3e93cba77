// Per-SoC multi-resource accounting shared by every placement call site.
// CPU/GPU/DSP utilization and hardware-codec sessions are delegated to the
// live SocModel (so charges vanish exactly when a SoC fails, as on real
// hardware); memory and generic slot pools — which SocModel does not track
// — are ledgered here. Reserve() CHECK-fails on oversubscription, making
// "a placement never overcommits a SoC" an enforced invariant instead of a
// per-service convention.
//
// Services charge a SoC only through this view (the exclusive whole-SoC
// collab and training runs aside). Reserve() returns a Reservation stamped
// with the SoC's fail_count(); Release(reservation) always returns memory
// and slots, but CPU/GPU/DSP/codec only while the SoC is usable and still
// in that fail epoch: Fail() wiped them, and after a reboot nobody noticed
// they belong to whatever runs there now.
//
// Change contract: everything Fits() and Placer::Load read is either SoC
// state, whose changes reach the cluster's watchers through the SoC's
// observer (src/hw/soc.h), or this view's memory and slot ledgers, whose
// changes Reserve() and Release() announce through
// SocCluster::NotifySocChanged, as SetActiveCount() does for the active
// set. A new mutator must announce too, or a placement index keeps a stale
// key.

#ifndef SRC_SCHED_CAPACITY_H_
#define SRC_SCHED_CAPACITY_H_

#include <cstdint>
#include <vector>

#include "src/base/digest.h"
#include "src/cluster/cluster.h"
#include "src/sched/placement.h"

namespace soccluster {

// One charge against one SoC: what Reserve() took and the SoC's fail epoch
// at that moment. A plain value; the holder passes it back to Release().
struct Reservation {
  int soc_index = -1;
  PlacementDemand demand;
  int64_t fail_epoch = 0;
};

class SocCapacityView {
 public:
  struct Options {
    // Per-SoC memory capacity override in GB; negative means "use each
    // SoC's spec memory" (heterogeneous clusters keep per-slot capacity).
    double memory_capacity_gb = -1.0;
    // Per-SoC slot-pool capacity. Zero disables the pool; demands must not
    // request slots then.
    int slot_capacity = 0;
  };

  explicit SocCapacityView(SocCluster* cluster);
  SocCapacityView(SocCluster* cluster, Options options);
  SocCapacityView(const SocCapacityView&) = delete;
  SocCapacityView& operator=(const SocCapacityView&) = delete;

  int num_socs() const;

  // The fault taxonomy's single notion of "can host new work": false for
  // failed, rebooting, and powered-off SoCs, and for SoCs outside the
  // view's active set. Every placement path must go through this — no
  // service re-derives usability on its own.
  bool IsPlaceable(int soc_index) const;

  // Limits new placements through this view to SoCs [0, count); every SoC
  // is active until the first call. Announces each SoC whose membership
  // changed. Work already placed on a SoC that leaves keeps running.
  void SetActiveCount(int count);
  int active_count() const { return active_count_; }

  // True when `demand` fits on the SoC right now (usability included).
  bool Fits(int soc_index, const PlacementDemand& demand) const;

  // Charges the SoC and the ledgers. CHECK-fails if the demand does not
  // fit — callers must have picked the SoC through a fitting check.
  Reservation Reserve(int soc_index, const PlacementDemand& demand);

  // Gives a reservation back under the fail-epoch rule above. Returns
  // true when the SoC-side charge was still standing — the SoC is usable
  // and has not failed since Reserve() — so the work that held it
  // survived. SoC-side charges are clamped so rounding can never drive
  // utilization negative.
  bool Release(const Reservation& reservation);

  // True once the reservation's SoC has failed since Reserve(), even if it
  // has since been repaired and rebooted.
  bool FailedSince(const Reservation& reservation) const;

  double MemoryCapacityGb(int soc_index) const;
  double MemoryUsedGb(int soc_index) const;
  int SlotsUsed(int soc_index) const;
  int slot_capacity() const { return options_.slot_capacity; }

  const SocCluster& cluster() const { return *cluster_; }

  // Subscribes (unsubscribes) `watcher` to every change announced under the
  // contract above, through the cluster's fan-out.
  void AddWatcher(SocObserver* watcher) { cluster_->AddWatcher(watcher); }
  void RemoveWatcher(SocObserver* watcher) {
    cluster_->RemoveWatcher(watcher);
  }

  // Mixes the ledgered dimensions (memory, slots) per SoC in index order.
  // SoC-side charges are digested by SocCluster::DigestState.
  void DigestState(StateDigest& digest) const;

 private:
  // Announces a change of the memory or slot ledger (the SoC-side charges
  // announce themselves).
  void AnnounceLedgerChange(int soc_index, const PlacementDemand& demand);

  SocCluster* cluster_;
  Options options_;
  int active_count_;
  std::vector<double> memory_used_gb_;
  std::vector<int> slots_used_;
};

}  // namespace soccluster

#endif  // SRC_SCHED_CAPACITY_H_

// The SoC Cluster machine (§2.2): 60 SoCs in groups of five on 12 PCBs, an
// Ethernet Switch Board (ESB) with a 20 Gbps uplink, a BMC, fans, and
// redundant power supplies. This class wires the SoC models to the network
// fabric and aggregates chassis power.
//
// It also fans SoC changes out to watchers (the placement indexes of
// src/sched/placer.h): it is every SoC's SocObserver, and each SoC's
// Recompute()/SetQuarantined() and each capacity-view ledger change
// (NotifySocChanged) reaches every watcher. A watcher removes itself
// before it is destroyed, and all watchers are gone before the cluster is.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/base/digest.h"
#include "src/hw/power.h"
#include "src/hw/soc.h"
#include "src/hw/specs.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace soccluster {

class SocCluster final : private SocObserver {
 public:
  // Homogeneous cluster: every slot holds the same SoC.
  SocCluster(Simulator* sim, ClusterChassisSpec chassis, SocSpec soc_spec);
  // Heterogeneous cluster (mixed-generation upgrade scenarios): one spec
  // per slot; the vector's size must equal chassis.num_socs.
  SocCluster(Simulator* sim, ClusterChassisSpec chassis,
             std::vector<SocSpec> soc_specs);
  SocCluster(const SocCluster&) = delete;
  SocCluster& operator=(const SocCluster&) = delete;
  // CHECK-fails while a watcher is still subscribed.
  ~SocCluster();

  const ClusterChassisSpec& chassis() const { return chassis_; }
  int num_socs() const { return chassis_.num_socs; }

  SocModel& soc(int i);
  const SocModel& soc(int i) const;
  // PCB index hosting SoC `i` (five SoCs per PCB).
  int PcbOf(int soc_index) const;

  // --- Change notification ---
  void AddWatcher(SocObserver* watcher);
  void RemoveWatcher(SocObserver* watcher);
  // Tells every watcher that SoC `soc_index` changed in a way its own
  // observer does not see (a capacity view's memory or slot ledger).
  void NotifySocChanged(int soc_index);

  // --- Network fabric ---
  Network& network() { return *network_; }
  NetNodeId soc_node(int i) const;
  // The node on the far side of the ESB's SFP+ uplink.
  NetNodeId external_node() const { return external_node_; }
  // The ESB->external link (20 Gbps); utilization here is what Figure 5
  // plots.
  LinkId esb_uplink_out() const { return esb_uplink_out_; }
  LinkId esb_uplink_in() const { return esb_uplink_out_ + 1; }
  // PCB `p`'s uplink to the ESB (1 Gbps), PCB->ESB direction.
  LinkId pcb_uplink_out(int pcb) const;

  // --- Power management ---
  // Boots every SoC; `on_all_ready` fires once all are usable.
  void PowerOnAll(std::function<void()> on_all_ready);
  int NumUsable() const;
  int NumFailed() const;

  // Constant chassis overhead (fans + ESB + BMC), calibrated so a fully
  // loaded V5 transcode reads ~589 W at the wall (Table 4).
  Power OverheadPower() const;
  // Whole-machine wall power: SoCs + overhead.
  Power CurrentPower() const;
  Energy TotalEnergy();
  Power AveragePower();
  // True when demand exceeds the ~700 W redundant supplies.
  bool OverPowerBudget() const;

  // Mean CPU utilization over usable SoCs, in [0, 1].
  double MeanSocCpuUtil() const;

  // Mixes every SoC's state in slot order.
  void DigestState(StateDigest& digest) const;

 private:
  void OnSocChanged(int soc_id) override { NotifySocChanged(soc_id); }

  Simulator* sim_;
  ClusterChassisSpec chassis_;
  std::vector<std::unique_ptr<SocModel>> socs_;
  std::unique_ptr<Network> network_;
  std::vector<NetNodeId> soc_nodes_;
  std::vector<NetNodeId> pcb_nodes_;
  NetNodeId esb_node_ = -1;
  NetNodeId external_node_ = -1;
  std::vector<LinkId> pcb_uplinks_;
  LinkId esb_uplink_out_ = -1;
  EnergyMeter overhead_meter_;
  std::vector<SocObserver*> watchers_;
};

}  // namespace soccluster

#endif  // SRC_CLUSTER_CLUSTER_H_

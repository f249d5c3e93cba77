#include "src/cluster/cluster.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/base/check.h"

namespace soccluster {

SocCluster::SocCluster(Simulator* sim, ClusterChassisSpec chassis,
                       SocSpec soc_spec)
    : SocCluster(sim, chassis,
                 std::vector<SocSpec>(static_cast<size_t>(chassis.num_socs),
                                      std::move(soc_spec))) {}

SocCluster::SocCluster(Simulator* sim, ClusterChassisSpec chassis,
                       std::vector<SocSpec> soc_specs)
    : sim_(sim), chassis_(std::move(chassis)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK_EQ(chassis_.num_socs, chassis_.num_pcbs * chassis_.socs_per_pcb);
  SOC_CHECK_EQ(static_cast<int>(soc_specs.size()), chassis_.num_socs);

  network_ = std::make_unique<Network>(sim_, chassis_.soc_rtt);

  // Topology: SoC --1GE--> PCB switch --1GE--> ESB --20G--> external.
  esb_node_ = network_->AddNode("esb");
  external_node_ = network_->AddNode("external");
  esb_uplink_out_ = network_->AddBidirectionalLink(esb_node_, external_node_,
                                                   chassis_.esb_uplink);
  for (int p = 0; p < chassis_.num_pcbs; ++p) {
    const NetNodeId pcb = network_->AddNode("pcb" + std::to_string(p));
    pcb_nodes_.push_back(pcb);
    pcb_uplinks_.push_back(
        network_->AddBidirectionalLink(pcb, esb_node_, chassis_.pcb_uplink));
  }
  for (int i = 0; i < chassis_.num_socs; ++i) {
    SocSpec& spec = soc_specs[static_cast<size_t>(i)];
    const DataRate nic = spec.nic;
    socs_.push_back(std::make_unique<SocModel>(sim_, std::move(spec), i));
    socs_.back()->set_observer(this);
    const NetNodeId node = network_->AddNode("soc" + std::to_string(i));
    soc_nodes_.push_back(node);
    network_->AddBidirectionalLink(node, pcb_nodes_[static_cast<size_t>(PcbOf(i))],
                                   nic);
  }

  overhead_meter_.SetPower(sim_->Now(), OverheadPower());
}

SocCluster::~SocCluster() {
  SOC_CHECK(watchers_.empty())
      << watchers_.size() << " watcher(s) outlive their SocCluster";
}

void SocCluster::AddWatcher(SocObserver* watcher) {
  SOC_CHECK(watcher != nullptr);
  SOC_CHECK(std::find(watchers_.begin(), watchers_.end(), watcher) ==
            watchers_.end());
  watchers_.push_back(watcher);
}

void SocCluster::RemoveWatcher(SocObserver* watcher) {
  const auto it = std::find(watchers_.begin(), watchers_.end(), watcher);
  SOC_CHECK(it != watchers_.end()) << "removing an unknown watcher";
  watchers_.erase(it);
}

void SocCluster::NotifySocChanged(int soc_index) {
  for (SocObserver* watcher : watchers_) {
    watcher->OnSocChanged(soc_index);
  }
}

SocModel& SocCluster::soc(int i) {
  SOC_CHECK_GE(i, 0);
  SOC_CHECK_LT(i, num_socs());
  return *socs_[static_cast<size_t>(i)];
}

const SocModel& SocCluster::soc(int i) const {
  SOC_CHECK_GE(i, 0);
  SOC_CHECK_LT(i, num_socs());
  return *socs_[static_cast<size_t>(i)];
}

int SocCluster::PcbOf(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, num_socs());
  return soc_index / chassis_.socs_per_pcb;
}

NetNodeId SocCluster::soc_node(int i) const {
  SOC_CHECK_GE(i, 0);
  SOC_CHECK_LT(i, num_socs());
  return soc_nodes_[static_cast<size_t>(i)];
}

LinkId SocCluster::pcb_uplink_out(int pcb) const {
  SOC_CHECK_GE(pcb, 0);
  SOC_CHECK_LT(pcb, chassis_.num_pcbs);
  return pcb_uplinks_[static_cast<size_t>(pcb)];
}

void SocCluster::PowerOnAll(std::function<void()> on_all_ready) {
  auto remaining = std::make_shared<int>(0);
  auto done = std::make_shared<std::function<void()>>(std::move(on_all_ready));
  for (auto& soc : socs_) {
    if (soc->state() != SocPowerState::kOff) {
      continue;
    }
    ++*remaining;
    const Status status =
        soc->PowerOn(chassis_.soc_boot, [remaining, done] {
          if (--*remaining == 0 && *done) {
            (*done)();
          }
        });
    SOC_CHECK(status.ok()) << status.ToString();
  }
  if (*remaining == 0 && *done) {
    sim_->ScheduleAfter(Duration::Zero(), [done] { (*done)(); },
                        "cluster.booted");
  }
}

int SocCluster::NumUsable() const {
  int usable = 0;
  for (const auto& soc : socs_) {
    if (soc->IsUsable()) {
      ++usable;
    }
  }
  return usable;
}

int SocCluster::NumFailed() const {
  int failed = 0;
  for (const auto& soc : socs_) {
    if (soc->state() == SocPowerState::kFailed) {
      ++failed;
    }
  }
  return failed;
}

Power SocCluster::OverheadPower() const {
  return chassis_.fans + chassis_.esb + chassis_.bmc;
}

Power SocCluster::CurrentPower() const {
  Power power = OverheadPower();
  for (const auto& soc : socs_) {
    power += soc->CurrentPower();
  }
  return power;
}

Energy SocCluster::TotalEnergy() {
  Energy total = overhead_meter_.TotalEnergy(sim_->Now());
  for (auto& soc : socs_) {
    total += soc->TotalEnergy();
  }
  return total;
}

Power SocCluster::AveragePower() {
  Power avg = overhead_meter_.AveragePower(sim_->Now());
  for (auto& soc : socs_) {
    avg += soc->AveragePower();
  }
  return avg;
}

bool SocCluster::OverPowerBudget() const {
  return CurrentPower() > chassis_.psu_max;
}

double SocCluster::MeanSocCpuUtil() const {
  double sum = 0.0;
  int usable = 0;
  for (const auto& soc : socs_) {
    if (soc->IsUsable()) {
      sum += soc->cpu_util();
      ++usable;
    }
  }
  return usable > 0 ? sum / usable : 0.0;
}

void SocCluster::DigestState(StateDigest& digest) const {
  digest.Mix(num_socs());
  for (const auto& soc : socs_) {
    soc->DigestState(digest);
  }
}

}  // namespace soccluster

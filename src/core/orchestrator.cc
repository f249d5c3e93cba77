#include "src/core/orchestrator.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/log.h"

namespace soccluster {

namespace {

PlacementDemand ToDemand(const ReplicaDemand& d) {
  PlacementDemand demand;
  demand.cpu_util = d.cpu_util;
  demand.memory_gb = d.memory_gb;
  demand.gpu_util = d.gpu_util;
  demand.dsp_util = d.dsp_util;
  return demand;
}

// The historical orchestrator load proxy: total compute-engine occupancy.
Placer::Options AdmissionOptions(PlacementPolicy policy) {
  Placer::Options options;
  options.policy = policy;
  options.load.cpu_weight = 1.0;
  options.load.gpu_weight = 1.0;
  options.load.dsp_weight = 1.0;
  return options;
}

}  // namespace

Orchestrator::Orchestrator(Simulator* sim, SocCluster* cluster,
                           PlacementPolicy policy)
    : sim_(sim), cluster_(cluster), view_(cluster),
      placer_(sim, &view_, AdmissionOptions(policy)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  MetricRegistry& metrics = sim_->metrics();
  placements_metric_ = metrics.GetCounter("orchestrator.placements");
  evictions_metric_ = metrics.GetCounter("orchestrator.evictions");
  lost_metric_ = metrics.GetCounter("orchestrator.replicas_lost");
  pending_replaced_metric_ = metrics.GetCounter("orchestrator.pending_replaced");
  preempted_metric_ = metrics.GetCounter("orchestrator.replicas_preempted");
  pending_gauge_ = metrics.GetGauge("orchestrator.replicas_pending");
}

Status Orchestrator::RegisterWorkload(const std::string& name,
                                      ReplicaDemand demand,
                                      Priority priority) {
  if (name.empty()) {
    return Status::InvalidArgument("workload name is empty");
  }
  if (workloads_.contains(name)) {
    return Status::AlreadyExists("workload " + name + " already registered");
  }
  if (demand.cpu_util < 0.0 || demand.cpu_util > 1.0 ||
      demand.gpu_util < 0.0 || demand.gpu_util > 1.0 ||
      demand.dsp_util < 0.0 || demand.dsp_util > 1.0 ||
      demand.memory_gb < 0.0) {
    return Status::InvalidArgument("invalid replica demand");
  }
  workloads_.emplace(name, Workload{demand, {}, 0, priority});
  return Status::Ok();
}

Status Orchestrator::Place(Workload* workload, const std::string& name) {
  ScopedSpan span(&sim_->tracer(), "place", "orchestrator");
  const PlacementDemand demand = ToDemand(workload->demand);
  const int soc_index = placer_.Pick(demand);
  if (soc_index < 0) {
    return Status::ResourceExhausted("no SoC can host a replica of " + name);
  }
  Tracer& tracer = sim_->tracer();
  tracer.AddArg(span.id(), "workload", name);
  tracer.AddArg(span.id(), "soc", static_cast<int64_t>(soc_index));
  placements_metric_->Increment();
  workload->placements.push_back(view_.Reserve(soc_index, demand));
  return Status::Ok();
}

void Orchestrator::Evict(Workload* workload, size_t replica_index) {
  SOC_CHECK_LT(replica_index, workload->placements.size());
  view_.Release(workload->placements[replica_index]);
  workload->placements.erase(workload->placements.begin() +
                             static_cast<long>(replica_index));
  evictions_metric_->Increment();
}

Status Orchestrator::ScaleTo(const std::string& name, int replicas) {
  if (replicas < 0) {
    return Status::InvalidArgument("negative replica count");
  }
  const auto it = workloads_.find(name);
  if (it == workloads_.end()) {
    return Status::NotFound("workload " + name + " not registered");
  }
  Workload& workload = it->second;
  // An explicit rescale supersedes any queued failure recovery for this
  // workload: the new target is authoritative.
  workload.pending = 0;
  // Scale down from the tail.
  const size_t initial = workload.placements.size();
  while (static_cast<int>(workload.placements.size()) > replicas) {
    Evict(&workload, workload.placements.size() - 1);
  }
  // Scale up, rolling back on failure so the operation is atomic.
  const size_t before = workload.placements.size();
  while (static_cast<int>(workload.placements.size()) < replicas) {
    const Status status = Place(&workload, name);
    if (!status.ok()) {
      while (workload.placements.size() > before) {
        Evict(&workload, workload.placements.size() - 1);
      }
      pending_gauge_->Set(static_cast<double>(replicas_pending()));
      return status;
    }
  }
  pending_gauge_->Set(static_cast<double>(replicas_pending()));
  if (workload.placements.size() < initial) {
    // A scale-down freed capacity; other workloads' displaced replicas may
    // now fit.
    DrainPendingReplicas();
  }
  return Status::Ok();
}

Result<WorkloadStatus> Orchestrator::GetStatus(const std::string& name) const {
  const auto it = workloads_.find(name);
  if (it == workloads_.end()) {
    return Status::NotFound("workload " + name + " not registered");
  }
  WorkloadStatus status;
  status.name = name;
  status.desired_replicas = static_cast<int>(it->second.placements.size());
  status.pending_replicas = it->second.pending;
  status.running_replicas = 0;
  for (const Reservation& placement : it->second.placements) {
    if (cluster_->soc(placement.soc_index).IsUsable()) {
      ++status.running_replicas;
    }
    status.placements.push_back(placement.soc_index);
  }
  return status;
}

int Orchestrator::TotalReplicas() const {
  int total = 0;
  for (const auto& [name, workload] : workloads_) {
    total += static_cast<int>(workload.placements.size());
  }
  return total;
}

int Orchestrator::SocsInUse() const {
  std::vector<bool> used(static_cast<size_t>(cluster_->num_socs()), false);
  for (const auto& [name, workload] : workloads_) {
    for (const Reservation& placement : workload.placements) {
      used[static_cast<size_t>(placement.soc_index)] = true;
    }
  }
  return static_cast<int>(std::count(used.begin(), used.end(), true));
}

int Orchestrator::PreemptBestEffort(int max_replicas) {
  int preempted = 0;
  while (preempted < max_replicas) {
    // Hosts currently holding best-effort replicas, hottest first.
    std::vector<int> hosts;
    for (const auto& [name, workload] : workloads_) {
      if (workload.priority != Priority::kBestEffort) {
        continue;
      }
      for (const Reservation& placement : workload.placements) {
        hosts.push_back(placement.soc_index);
      }
    }
    if (hosts.empty()) {
      break;
    }
    std::sort(hosts.begin(), hosts.end());
    hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
    const int target = placer_.RankByLoadDescending(std::move(hosts)).front();
    // Evict one best-effort replica from the hottest host (tail replica of
    // the first workload with one there — deterministic by map order).
    bool evicted = false;
    for (auto& [name, workload] : workloads_) {
      if (workload.priority != Priority::kBestEffort) {
        continue;
      }
      for (size_t r = workload.placements.size(); r-- > 0;) {
        if (workload.placements[r].soc_index == target) {
          Evict(&workload, r);
          ++workload.pending;
          ++replicas_preempted_;
          preempted_metric_->Increment();
          evicted = true;
          break;
        }
      }
      if (evicted) {
        break;
      }
    }
    SOC_CHECK(evicted);
    ++preempted;
  }
  pending_gauge_->Set(static_cast<double>(replicas_pending()));
  return preempted;
}

void Orchestrator::SetPlacementHold(bool hold) {
  if (hold == placement_hold_) {
    return;
  }
  placement_hold_ = hold;
  if (!placement_hold_) {
    DrainPendingReplicas();
  }
}

void Orchestrator::OnSocFailure(int soc_index) {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, cluster_->num_socs());
  ScopedSpan span(&sim_->tracer(), "soc_failure_recovery", "orchestrator");
  sim_->tracer().AddArg(span.id(), "soc", static_cast<int64_t>(soc_index));
  for (auto& [name, workload] : workloads_) {
    // Collect indices first; eviction mutates the vector.
    std::vector<size_t> displaced;
    for (size_t r = 0; r < workload.placements.size(); ++r) {
      if (workload.placements[r].soc_index == soc_index) {
        displaced.push_back(r);
      }
    }
    // Evict from the tail so earlier indices stay valid.
    for (auto rit = displaced.rbegin(); rit != displaced.rend(); ++rit) {
      Evict(&workload, *rit);
    }
    for (size_t i = 0; i < displaced.size(); ++i) {
      const Status status = Place(&workload, name);
      if (status.ok()) {
        ++replicas_recovered_;
      } else {
        // No capacity right now: count the loss, but queue the replica so
        // DrainPendingReplicas() restores it when capacity returns.
        ++replicas_lost_;
        lost_metric_->Increment();
        ++workload.pending;
        SOC_LOG(Warning) << "replica of " << name
                         << " lost after SoC failure (queued for "
                         << "re-placement): " << status.ToString();
      }
    }
  }
  pending_gauge_->Set(static_cast<double>(replicas_pending()));
}

void Orchestrator::OnSocRecovered(int soc_index) {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, cluster_->num_socs());
  DrainPendingReplicas();
}

int64_t Orchestrator::replicas_pending() const {
  int64_t pending = 0;
  for (const auto& [name, workload] : workloads_) {
    pending += workload.pending;
  }
  return pending;
}

int Orchestrator::DrainPendingReplicas() {
  if (placement_hold_) {
    return 0;  // Brownout: reclaimed capacity must stay free.
  }
  int placed = 0;
  for (auto& [name, workload] : workloads_) {
    while (workload.pending > 0) {
      const Status status = Place(&workload, name);
      if (!status.ok()) {
        break;
      }
      --workload.pending;
      ++placed;
      ++replicas_recovered_;
      pending_replaced_metric_->Increment();
    }
  }
  pending_gauge_->Set(static_cast<double>(replicas_pending()));
  return placed;
}

void Orchestrator::DigestState(StateDigest& digest) const {
  view_.DigestState(digest);
  digest.Mix(static_cast<uint64_t>(workloads_.size()));
  for (const auto& [name, workload] : workloads_) {
    digest.Mix(std::string_view(name));
    digest.Mix(static_cast<uint64_t>(workload.placements.size()));
    for (const Reservation& placement : workload.placements) {
      digest.Mix(placement.soc_index);
    }
    digest.Mix(workload.pending);
    digest.Mix(static_cast<int>(workload.priority));
  }
  digest.Mix(replicas_lost_);
  digest.Mix(replicas_recovered_);
  digest.Mix(replicas_preempted_);
  digest.Mix(placement_hold_);
}

}  // namespace soccluster

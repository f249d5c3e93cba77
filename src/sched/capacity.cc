#include "src/sched/capacity.h"

#include <algorithm>

#include "src/base/check.h"

namespace soccluster {

SocCapacityView::SocCapacityView(SocCluster* cluster)
    : SocCapacityView(cluster, Options()) {}

SocCapacityView::SocCapacityView(SocCluster* cluster, Options options)
    : cluster_(cluster), options_(options),
      active_count_(cluster->num_socs()),
      memory_used_gb_(static_cast<size_t>(cluster->num_socs()), 0.0),
      slots_used_(static_cast<size_t>(cluster->num_socs()), 0) {
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK_GE(options_.slot_capacity, 0);
}

int SocCapacityView::num_socs() const { return cluster_->num_socs(); }

bool SocCapacityView::IsPlaceable(int soc_index) const {
  SOC_DCHECK_GE(soc_index, 0);
  SOC_DCHECK_LT(soc_index, num_socs());
  if (soc_index >= active_count_) {
    return false;
  }
  // Quarantined SoCs stay usable (in-flight work drains, canary probes
  // run) but accept no new placements anywhere in the stack.
  const SocModel& soc = cluster_->soc(soc_index);
  return soc.IsUsable() && !soc.quarantined();
}

void SocCapacityView::SetActiveCount(int count) {
  SOC_CHECK_GE(count, 0);
  SOC_CHECK_LE(count, num_socs());
  const int changed_from = std::min(count, active_count_);
  const int changed_to = std::max(count, active_count_);
  active_count_ = count;
  for (int i = changed_from; i < changed_to; ++i) {
    cluster_->NotifySocChanged(i);
  }
}

double SocCapacityView::MemoryCapacityGb(int soc_index) const {
  SOC_DCHECK_GE(soc_index, 0);
  SOC_DCHECK_LT(soc_index, num_socs());
  if (options_.memory_capacity_gb >= 0.0) {
    return options_.memory_capacity_gb;
  }
  return static_cast<double>(cluster_->soc(soc_index).spec().memory_gb);
}

double SocCapacityView::MemoryUsedGb(int soc_index) const {
  SOC_DCHECK_GE(soc_index, 0);
  SOC_DCHECK_LT(soc_index, num_socs());
  return memory_used_gb_[static_cast<size_t>(soc_index)];
}

int SocCapacityView::SlotsUsed(int soc_index) const {
  SOC_DCHECK_GE(soc_index, 0);
  SOC_DCHECK_LT(soc_index, num_socs());
  return slots_used_[static_cast<size_t>(soc_index)];
}

bool SocCapacityView::Fits(int soc_index, const PlacementDemand& d) const {
  if (!IsPlaceable(soc_index)) {
    return false;
  }
  const SocModel& soc = cluster_->soc(soc_index);
  // Hardware-codec sessions run a per-session daemon on the CPU; the SoC
  // model rejects sessions whose daemon share no longer fits, so demanded
  // sessions count against CPU headroom alongside the explicit CPU ask.
  const double codec_daemon_cpu =
      soc.spec().codec_cpu_share_per_session * d.codec_sessions;
  if (soc.CpuHeadroom() < d.cpu_util + codec_daemon_cpu) {
    return false;
  }
  if (soc.gpu_util() + d.gpu_util > 1.0) {
    return false;
  }
  if (soc.dsp_util() + d.dsp_util > 1.0) {
    return false;
  }
  if (d.codec_sessions > 0 &&
      soc.codec_sessions() + d.codec_sessions >
          soc.spec().max_codec_sessions) {
    return false;
  }
  if (MemoryUsedGb(soc_index) + d.memory_gb > MemoryCapacityGb(soc_index)) {
    return false;
  }
  if (d.slots > 0) {
    SOC_CHECK_GT(options_.slot_capacity, 0)
        << "slot demand against a view with no slot pool";
    if (SlotsUsed(soc_index) + d.slots > options_.slot_capacity) {
      return false;
    }
  }
  return true;
}

Reservation SocCapacityView::Reserve(int soc_index,
                                     const PlacementDemand& d) {
  SOC_CHECK(Fits(soc_index, d))
      << "reservation would oversubscribe SoC " << soc_index
      << " (cpu=" << d.cpu_util << " gpu=" << d.gpu_util
      << " mem_gb=" << d.memory_gb << " slots=" << d.slots
      << " codec=" << d.codec_sessions
      << " cpu_headroom=" << cluster_->soc(soc_index).CpuHeadroom() << ")";
  SocModel& soc = cluster_->soc(soc_index);
  if (d.cpu_util != 0.0) {
    const Status status = soc.AddCpuUtil(d.cpu_util);
    SOC_CHECK(status.ok()) << status.ToString();
  }
  if (d.gpu_util != 0.0) {
    const Status status = soc.SetGpuUtil(soc.gpu_util() + d.gpu_util);
    SOC_CHECK(status.ok()) << status.ToString();
  }
  if (d.dsp_util != 0.0) {
    const Status status = soc.SetDspUtil(soc.dsp_util() + d.dsp_util);
    SOC_CHECK(status.ok()) << status.ToString();
  }
  for (int s = 0; s < d.codec_sessions; ++s) {
    const Status status = soc.AddCodecSession(d.codec_pixel_rate);
    SOC_CHECK(status.ok()) << status.ToString();
  }
  memory_used_gb_[static_cast<size_t>(soc_index)] += d.memory_gb;
  slots_used_[static_cast<size_t>(soc_index)] += d.slots;
  AnnounceLedgerChange(soc_index, d);
  return Reservation{soc_index, d, soc.fail_count()};
}

void SocCapacityView::AnnounceLedgerChange(int soc_index,
                                           const PlacementDemand& d) {
  if (d.memory_gb != 0.0 || d.slots != 0) {
    cluster_->NotifySocChanged(soc_index);
  }
}

bool SocCapacityView::FailedSince(const Reservation& r) const {
  return cluster_->soc(r.soc_index).fail_count() != r.fail_epoch;
}

bool SocCapacityView::Release(const Reservation& r) {
  const int soc_index = r.soc_index;
  const PlacementDemand& d = r.demand;
  SOC_DCHECK_GE(soc_index, 0);
  SOC_DCHECK_LT(soc_index, num_socs());
  SocModel& soc = cluster_->soc(soc_index);
  const bool intact = soc.IsUsable() && !FailedSince(r);
  if (intact) {
    if (d.cpu_util != 0.0) {
      const Status status =
          soc.AddCpuUtil(-std::min(d.cpu_util, soc.cpu_util()));
      SOC_CHECK(status.ok()) << status.ToString();
    }
    if (d.gpu_util != 0.0) {
      const Status status =
          soc.SetGpuUtil(std::max(0.0, soc.gpu_util() - d.gpu_util));
      SOC_CHECK(status.ok()) << status.ToString();
    }
    if (d.dsp_util != 0.0) {
      const Status status =
          soc.SetDspUtil(std::max(0.0, soc.dsp_util() - d.dsp_util));
      SOC_CHECK(status.ok()) << status.ToString();
    }
    for (int s = 0; s < d.codec_sessions && soc.codec_sessions() > 0; ++s) {
      const Status status = soc.RemoveCodecSession(d.codec_pixel_rate);
      SOC_CHECK(status.ok()) << status.ToString();
    }
  }
  double& memory = memory_used_gb_[static_cast<size_t>(soc_index)];
  memory -= d.memory_gb;
  SOC_DCHECK_GE(memory, -1e-9) << "memory ledger underflow on SoC "
                               << soc_index;
  int& slots = slots_used_[static_cast<size_t>(soc_index)];
  slots -= d.slots;
  SOC_CHECK_GE(slots, 0) << "slot ledger underflow on SoC " << soc_index;
  AnnounceLedgerChange(soc_index, d);
  return intact;
}

void SocCapacityView::DigestState(StateDigest& digest) const {
  digest.Mix(static_cast<uint64_t>(memory_used_gb_.size()));
  for (const double used : memory_used_gb_) {
    digest.Mix(used);
  }
  for (const int slots : slots_used_) {
    digest.Mix(slots);
  }
}

}  // namespace soccluster

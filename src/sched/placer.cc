#include "src/sched/placer.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace soccluster {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kSpread:
      return "spread";
    case PlacementPolicy::kPack:
      return "pack";
    case PlacementPolicy::kBestFit:
      return "best_fit";
    case PlacementPolicy::kRandomOfK:
      return "random_of_k";
  }
  return "unknown";
}

namespace {

// Candidates sampled per pick under kRandomOfK (power of two choices).
constexpr int kRandomOfKCandidates = 2;
// Seed of the kRandomOfK sampler; every placer draws the same sequence.
constexpr uint64_t kRandomOfKSeed = 0x5c4edULL;

}  // namespace

Placer::Placer(Simulator* sim, SocCapacityView* view, Options options)
    : sim_(sim), view_(view), options_(options), rng_(kRandomOfKSeed),
      has_index_(options.policy == PlacementPolicy::kSpread ||
                 options.policy == PlacementPolicy::kPack) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(view_ != nullptr);
  MetricRegistry& metrics = sim_->metrics();
  const MetricLabels labels{{"policy", PlacementPolicyName(options_.policy)}};
  placements_metric_ = metrics.GetCounter("sched.placements", labels);
  rejections_metric_ = metrics.GetCounter("sched.rejections", labels);
  evaluations_metric_ = metrics.GetCounter("sched.score_evaluations", labels);
  checked_metric_ = metrics.GetCounter("sched.candidates_checked", labels);
  if (has_index_) {
    // Every SoC starts dirty, so the first pick builds the index.
    const size_t n = static_cast<size_t>(view_->num_socs());
    spare_.reserve(n);
    key_.assign(n, 0.0);
    indexed_.assign(n, 0);
    dirty_.reserve(n);
    is_dirty_.assign(n, 0);
    for (int i = 0; i < view_->num_socs(); ++i) {
      OnSocChanged(i);
    }
    view_->AddWatcher(this);
  }
}

Placer::~Placer() {
  if (has_index_) {
    view_->RemoveWatcher(this);
  }
}

void Placer::OnSocChanged(int soc_id) {
  char& dirty = is_dirty_[static_cast<size_t>(soc_id)];
  if (dirty == 0) {
    dirty = 1;
    dirty_.push_back(soc_id);
  }
}

double Placer::BaseLoad(int soc_index) const {
  const SocModel& soc = view_->cluster().soc(soc_index);
  const LoadModel& w = options_.load;
  double load = 0.0;
  if (w.cpu_weight != 0.0) {
    load += soc.cpu_util() * w.cpu_weight;
  }
  if (w.gpu_weight != 0.0) {
    load += soc.gpu_util() * w.gpu_weight;
  }
  if (w.dsp_weight != 0.0) {
    load += soc.dsp_util() * w.dsp_weight;
  }
  if (w.memory_weight_per_gb != 0.0) {
    load += view_->MemoryUsedGb(soc_index) * w.memory_weight_per_gb;
  }
  if (w.codec_session_weight != 0.0) {
    load += soc.codec_sessions() * w.codec_session_weight;
  }
  if (w.slot_weight != 0.0) {
    load += view_->SlotsUsed(soc_index) * w.slot_weight;
  }
  return load;
}

double Placer::Load(int soc_index) const {
  double load = BaseLoad(soc_index);
  if (penalty_) {
    load += penalty_(soc_index);
  }
  return load;
}

std::vector<int> Placer::RankByLoadDescending(
    std::vector<int> candidates) const {
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this](int a, int b) { return Load(a) > Load(b); });
  return candidates;
}

bool Placer::Feasible(int soc_index, const PlacementDemand& demand,
                      const Filter& filter) const {
  if (filter && !filter(soc_index)) {
    return false;
  }
  return view_->Fits(soc_index, demand);
}

double Placer::DominantUtil(int soc_index, const PlacementDemand& d) const {
  const SocModel& soc = view_->cluster().soc(soc_index);
  double dominant = 0.0;
  if (d.cpu_util > 0.0) {
    dominant = std::max(dominant, soc.cpu_util() + d.cpu_util);
  }
  if (d.gpu_util > 0.0) {
    dominant = std::max(dominant, soc.gpu_util() + d.gpu_util);
  }
  if (d.dsp_util > 0.0) {
    dominant = std::max(dominant, soc.dsp_util() + d.dsp_util);
  }
  if (d.memory_gb > 0.0) {
    dominant = std::max(dominant,
                        (view_->MemoryUsedGb(soc_index) + d.memory_gb) /
                            view_->MemoryCapacityGb(soc_index));
  }
  if (d.codec_sessions > 0) {
    dominant = std::max(
        dominant,
        static_cast<double>(soc.codec_sessions() + d.codec_sessions) /
            soc.spec().max_codec_sessions);
  }
  if (d.slots > 0 && view_->slot_capacity() > 0) {
    dominant = std::max(
        dominant, static_cast<double>(view_->SlotsUsed(soc_index) + d.slots) /
                      view_->slot_capacity());
  }
  return dominant;
}

int Placer::Pick(const PlacementDemand& demand, const Filter& filter,
                 RequestContext* ctx) {
  // The index holds no SoC with a full slot pool, so it covers a demand
  // only if that demand needs a slot or the view has no pool.
  return PickFor([&demand](int) -> const PlacementDemand& { return demand; },
                 filter, view_->slot_capacity() == 0 || demand.slots > 0,
                 ctx);
}

int Placer::PickWith(const DemandFn& demand_for, const Filter& filter,
                     RequestContext* ctx) {
  return PickFor(demand_for, filter, view_->slot_capacity() == 0, ctx);
}

template <typename DemandOf>
int Placer::PickFor(const DemandOf& demand_of, const Filter& filter,
                    bool index_covers, RequestContext* ctx) {
  int picked = -1;
  if (options_.policy == PlacementPolicy::kRandomOfK) {
    picked = PickRandomOfK(demand_of, filter);
  } else if (has_index_ && index_covers) {
    picked = PickIndexed(demand_of, filter);
  } else {
    picked = PickLowestKey(demand_of, filter);
  }
  if (picked >= 0 && ctx != nullptr && ctx->id != 0) {
    sim_->tracer().FlowStep("place", ctx->category, ctx->id);
  }
  return picked;
}

template <typename DemandOf>
int Placer::PickLowestKey(const DemandOf& demand_of, const Filter& filter) {
  int best = -1;
  double best_key = std::numeric_limits<double>::infinity();
  int64_t evaluated = 0;
  for (int i = 0; i < view_->num_socs(); ++i) {
    const PlacementDemand& d = demand_of(i);
    if (!Feasible(i, d, filter)) {
      continue;
    }
    ++evaluated;
    double key = 0.0;
    switch (options_.policy) {
      case PlacementPolicy::kSpread:
        key = Load(i);
        break;
      case PlacementPolicy::kPack:
        key = -Load(i);
        break;
      case PlacementPolicy::kBestFit:
        key = -DominantUtil(i, d);
        break;
      case PlacementPolicy::kRandomOfK:
        SOC_CHECK(false) << "kRandomOfK samples; it has no scan key";
    }
    // Strict: an equal key never displaces a lower index.
    if (key < best_key) {
      best_key = key;
      best = i;
    }
  }
  evaluations_metric_->Add(evaluated);
  return Finish(best, view_->num_socs());
}

void Placer::RefreshIndex() {
  const bool pack = options_.policy == PlacementPolicy::kPack;
  const int slot_capacity = view_->slot_capacity();
  for (const int i : dirty_) {
    const size_t s = static_cast<size_t>(i);
    is_dirty_[s] = 0;
    const bool open =
        view_->IsPlaceable(i) &&
        (slot_capacity == 0 || view_->SlotsUsed(i) < slot_capacity);
    const double key = open ? (pack ? -BaseLoad(i) : BaseLoad(i)) : 0.0;
    if (indexed_[s] != 0) {
      if (open && key == key_[s]) {
        continue;
      }
      Index::node_type node = index_.extract(IndexEntry{key_[s], i});
      SOC_DCHECK(!node.empty());
      if (open) {
        node.value().first = key;
        index_.insert(std::move(node));
      } else {
        spare_.push_back(std::move(node));
        indexed_[s] = 0;
      }
    } else if (open) {
      indexed_[s] = 1;
      if (spare_.empty()) {
        index_.insert(IndexEntry{key, i});
      } else {
        Index::node_type node = std::move(spare_.back());
        spare_.pop_back();
        node.value() = IndexEntry{key, i};
        index_.insert(std::move(node));
      }
    }
    key_[s] = key;
  }
  dirty_.clear();
}

template <typename DemandOf>
int Placer::PickIndexed(const DemandOf& demand_of, const Filter& filter) {
  RefreshIndex();
  const bool spread = options_.policy == PlacementPolicy::kSpread;
  int best = -1;
  double best_key = std::numeric_limits<double>::infinity();
  int64_t checked = 0;
  int64_t evaluated = 0;
  for (const auto& [cached, i] : index_) {
    // A penalized key is never below its cached key, so under kSpread no
    // later entry can beat the best once a cached key exceeds it, nor tie
    // it from a higher index once a cached key equals it (entries with an
    // equal cached key come in index order).
    if (spread && (cached > best_key || (cached == best_key && i > best))) {
      break;
    }
    ++checked;
    if (!Feasible(i, demand_of(i), filter)) {
      continue;
    }
    ++evaluated;
    if (!penalty_) {
      best = i;
      break;
    }
    const double penalty = penalty_(i);
    SOC_DCHECK_GE(penalty, 0.0);
    // Load()'s arithmetic: the base load plus the penalty.
    const double load = (spread ? cached : -cached) + penalty;
    const double key = spread ? load : -load;
    if (key < best_key || (key == best_key && i < best)) {
      best_key = key;
      best = i;
    }
  }
  evaluations_metric_->Add(evaluated);
  return Finish(best, checked);
}

template <typename DemandOf>
int Placer::PickRandomOfK(const DemandOf& demand_of, const Filter& filter) {
  std::vector<int> candidates;
  for (int i = 0; i < view_->num_socs(); ++i) {
    if (Feasible(i, demand_of(i), filter)) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return Finish(-1, view_->num_socs());
  }
  // Power-of-k-choices: sample k distinct feasible candidates (partial
  // Fisher-Yates on the seeded RNG) and keep the least loaded, so placement
  // quality approaches kSpread while the scan cost stays O(k) scoring. The
  // draw sequence is a pure function of the seed — same-seed runs place
  // identically.
  const int size = static_cast<int>(candidates.size());
  const int k = std::min(kRandomOfKCandidates, size);
  int best = -1;
  double best_load = std::numeric_limits<double>::infinity();
  for (int j = 0; j < k; ++j) {
    const int swap_with =
        static_cast<int>(rng_.UniformInt(j, static_cast<int64_t>(size) - 1));
    std::swap(candidates[static_cast<size_t>(j)],
              candidates[static_cast<size_t>(swap_with)]);
    const int candidate = candidates[static_cast<size_t>(j)];
    const double load = Load(candidate);
    if (load < best_load || (load == best_load && candidate < best)) {
      best_load = load;
      best = candidate;
    }
  }
  evaluations_metric_->Add(k);
  return Finish(best, view_->num_socs());
}

int Placer::Finish(int soc_index, int64_t checked) {
  checked_metric_->Add(checked);
  if (soc_index >= 0) {
    placements_metric_->Increment();
  } else if (options_.count_rejections) {
    rejections_metric_->Increment();
    sim_->tracer().Instant("placement_rejected", "sched");
  }
  return soc_index;
}

}  // namespace soccluster

// The single placement implementation for the whole system. Every service
// (orchestrator replicas, live streams, serverless instances, gaming
// sessions, serving-fleet dispatch, archive jobs) expresses its demand as a
// PlacementDemand over a SocCapacityView and lets the Placer choose the
// SoC; no service carries a private PickSoc loop. The load proxy each
// service previously hand-rolled is preserved via a per-placer LoadModel so
// the default policies (kSpread/kPack) reproduce the historical choices
// bit-identically. Placement outcomes are published to the metric registry
// under "sched.*" (labeled by policy), so decisions and rejections land in
// exported Perfetto traces.
//
// kSpread and kPack keep a placement index instead of scanning the fleet:
// an ordered set of (key, SoC index) over the open SoCs, where the key is
// +Load or -Load without the penalty and "open" means placeable and, on a
// view with a slot pool, not full. The placer watches its view (see the
// change contracts in src/hw/soc.h and src/sched/capacity.h), records each
// changed SoC once, and re-keys those at the start of the next pick; a
// pick then walks the set in order and the first SoC that passes the
// filter and Fits wins, which is the lowest key with ties to the lowest
// index, as the scan picks. With a penalty installed, kSpread walks until a
// cached key passes the best penalized key (penalties only add load) and
// kPack walks every open SoC. kBestFit and kRandomOfK scan, since their
// key depends on the demand or on a draw, and so does a slot-free demand
// (or any PickWith) on a view with a slot pool, which the index would
// under-cover.

#ifndef SRC_SCHED_PLACER_H_
#define SRC_SCHED_PLACER_H_

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/request.h"
#include "src/sched/capacity.h"
#include "src/sched/placement.h"
#include "src/sim/simulator.h"

namespace soccluster {

// Weighted occupancy proxy scored by kSpread (minimize) and kPack /
// kRandomOfK tie-breaks (maximize / least-of-k). Each service keeps the
// load definition its policy historically ranked by.
struct LoadModel {
  double cpu_weight = 1.0;
  double gpu_weight = 0.0;
  double dsp_weight = 0.0;
  double memory_weight_per_gb = 0.0;
  double codec_session_weight = 0.0;
  double slot_weight = 0.0;
};

class Placer final : private SocObserver {
 public:
  struct Options {
    PlacementPolicy policy = PlacementPolicy::kSpread;
    LoadModel load;
    // When false, a failed pick is not counted as a rejection and emits no
    // trace instant. For callers that retry from a queue (dispatch loops),
    // where "nothing free right now" is back-pressure, not a rejection.
    bool count_rejections = true;
  };

  // Per-candidate demand, for services whose demand depends on the
  // candidate's spec (e.g. per-generation CPU cost of a transcode).
  using DemandFn = std::function<PlacementDemand(int soc_index)>;
  // Extra load-model units charged to a candidate on top of its weighted
  // occupancy (gray-failure suspicion penalties: suspect SoCs look busier
  // than they are, so load steers away without a hard exclusion). Never
  // negative, and read at each pick, so it may change without notice.
  using PenaltyFn = std::function<double(int soc_index)>;
  // Optional extra feasibility predicate (service-specific constraints the
  // capacity view cannot express, e.g. per-video hw-session limits).
  using Filter = std::function<bool(int soc_index)>;

  Placer(Simulator* sim, SocCapacityView* view, Options options);
  Placer(const Placer&) = delete;
  Placer& operator=(const Placer&) = delete;
  ~Placer();

  // Picks a SoC able to host `demand` under the policy, or -1. Does not
  // reserve — call the view's Reserve() on the returned SoC. When `ctx` is
  // given, a successful pick emits a "place" flow point continuing the
  // request's causal chain (using the category stamped at submit).
  int Pick(const PlacementDemand& demand, const Filter& filter = nullptr,
           RequestContext* ctx = nullptr);
  // As Pick, with demand evaluated per candidate.
  int PickWith(const DemandFn& demand_for, const Filter& filter = nullptr,
               RequestContext* ctx = nullptr);

  // LoadModel-weighted occupancy of one SoC (plus any penalty).
  double Load(int soc_index) const;

  // Installs (or clears, with nullptr) the per-SoC load penalty.
  void set_penalty(PenaltyFn penalty) { penalty_ = std::move(penalty); }

  // Orders `candidates` (SoC indices) by descending Load() — the order a
  // preemptor should visit hosts to relieve the hottest first. Stable:
  // ties keep the input order, so results are deterministic.
  std::vector<int> RankByLoadDescending(std::vector<int> candidates) const;

 private:
  using IndexEntry = std::pair<double, int>;  // (cached key, SoC index)
  using Index = std::set<IndexEntry>;

  void OnSocChanged(int soc_id) override;
  bool Feasible(int soc_index, const PlacementDemand& demand,
                const Filter& filter) const;
  // LoadModel-weighted occupancy without the penalty.
  double BaseLoad(int soc_index) const;
  // Post-placement utilization of the demand's most-stressed resource.
  double DominantUtil(int soc_index, const PlacementDemand& demand) const;
  // Pick and PickWith: the policy's pick, over the index when it covers
  // the demand.
  template <typename DemandOf>
  int PickFor(const DemandOf& demand_of, const Filter& filter,
              bool index_covers, RequestContext* ctx);
  // kSpread, kPack and kBestFit: the feasible SoC with the lowest key
  // (Load, -Load, -DominantUtil); ties go to the lowest index.
  template <typename DemandOf>
  int PickLowestKey(const DemandOf& demand_of, const Filter& filter);
  // kSpread and kPack over the index; the same choice as PickLowestKey.
  template <typename DemandOf>
  int PickIndexed(const DemandOf& demand_of, const Filter& filter);
  template <typename DemandOf>
  int PickRandomOfK(const DemandOf& demand_of, const Filter& filter);
  // Re-keys the SoCs changed since the last pick.
  void RefreshIndex();
  int Finish(int soc_index, int64_t checked);

  Simulator* sim_;
  SocCapacityView* view_;
  Options options_;
  PenaltyFn penalty_;
  Rng rng_;
  Counter* placements_metric_;
  Counter* rejections_metric_;
  Counter* evaluations_metric_;
  Counter* checked_metric_;
  // The placement index (kSpread and kPack only). `indexed_[i]` says
  // whether SoC i has an entry, with key `key_[i]`; `spare_` keeps the
  // nodes of SoCs that left, so steady-state picks allocate nothing.
  bool has_index_;
  Index index_;
  std::vector<Index::node_type> spare_;
  std::vector<double> key_;
  std::vector<char> indexed_;
  std::vector<int> dirty_;
  std::vector<char> is_dirty_;
};

}  // namespace soccluster

#endif  // SRC_SCHED_PLACER_H_

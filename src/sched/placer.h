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

#ifndef SRC_SCHED_PLACER_H_
#define SRC_SCHED_PLACER_H_

#include <functional>
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

class Placer {
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
  // than they are, so load steers away without a hard exclusion).
  using PenaltyFn = std::function<double(int soc_index)>;
  // Optional extra feasibility predicate (service-specific constraints the
  // capacity view cannot express, e.g. per-video hw-session limits).
  using Filter = std::function<bool(int soc_index)>;

  Placer(Simulator* sim, SocCapacityView* view, Options options);
  Placer(const Placer&) = delete;
  Placer& operator=(const Placer&) = delete;

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
  bool Feasible(int soc_index, const PlacementDemand& demand,
                const Filter& filter) const;
  // Post-placement utilization of the demand's most-stressed resource.
  double DominantUtil(int soc_index, const PlacementDemand& demand) const;
  // kSpread, kPack and kBestFit: the feasible SoC with the lowest key
  // (Load, -Load, -DominantUtil); ties go to the lowest index.
  int PickLowestKey(const DemandFn& demand_for, const Filter& filter);
  int PickRandomOfK(const DemandFn& demand_for, const Filter& filter);
  int Finish(int soc_index);

  Simulator* sim_;
  SocCapacityView* view_;
  Options options_;
  PenaltyFn penalty_;
  Rng rng_;
  Counter* placements_metric_;
  Counter* rejections_metric_;
  Counter* evaluations_metric_;
};

}  // namespace soccluster

#endif  // SRC_SCHED_PLACER_H_

// Placement vocabulary shared by every service that puts work onto SoCs
// (§1: "advanced software that can orchestrate multiple SoCs is urgently
// demanded"). A placement unit declares its multi-resource demand once; the
// policy decides which placeable SoC hosts it. Policies are pluggable so
// scheduling experiments (packing for energy proportionality, tail
// latency) swap strategies without touching any service. kSpread, kPack
// and kBestFit differ only in the key a pick minimizes (see Placer);
// there is one feasibility rule, the caller's filter plus
// SocCapacityView::Fits.

#ifndef SRC_SCHED_PLACEMENT_H_
#define SRC_SCHED_PLACEMENT_H_

namespace soccluster {

enum class PlacementPolicy {
  kSpread,     // Least-loaded usable SoC first (energy-proportional, paper
               // default).
  kPack,       // Fullest SoC that still fits (packing at admission; lets the
               // autoscaler power-gate the idle remainder).
  kBestFit,    // Tightest fit by dominant resource: the candidate whose
               // post-placement bottleneck utilization is highest. Packs
               // like kPack but by the resource the demand actually
               // stresses, not a fixed load proxy.
  kRandomOfK,  // Least-loaded of k feasible candidates sampled from a
               // seeded RNG (power-of-k-choices; deterministic per seed).
};

// Short lowercase name ("spread", "pack", "best_fit", "random_of_k") used
// in metric labels and bench report keys.
const char* PlacementPolicyName(PlacementPolicy policy);

// Multi-resource demand of one placement unit (replica, stream, instance,
// session, or dispatch slot). Unused dimensions stay zero.
struct PlacementDemand {
  double cpu_util = 0.0;   // Fraction of the 8-core CPU (after codec
                           // delegation daemons are charged).
  double memory_gb = 0.0;  // Resident memory, ledgered by SocCapacityView.
  double gpu_util = 0.0;
  double dsp_util = 0.0;
  int codec_sessions = 0;       // Hardware-codec sessions to open.
  double codec_pixel_rate = 0.0;  // Pixels/s per session (drives ASIC power).
  int slots = 0;  // Generic per-SoC slot pool (gaming sessions, dispatch).
};

}  // namespace soccluster

#endif  // SRC_SCHED_PLACEMENT_H_

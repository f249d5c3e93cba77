// Ablation: pack-vs-spread placement for live transcoding at partial load.
// Spreading wakes one SoC per stream (paying the per-SoC wake adder);
// packing concentrates streams and lets idle SoCs be powered off. The
// DESIGN.md energy-proportionality choice quantified. The bench checks that
// claim itself and exits 1 when it fails.

#include <cstdio>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/table.h"
#include "src/cluster/cluster.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"
#include "src/workload/video/live.h"

namespace soccluster {
namespace {

struct Outcome {
  double power_on_watts;      // All idle SoCs stay on.
  double power_gated_watts;   // Unused SoCs powered off.
  int socs_used;
};

// `obs_flags` is non-null for the showcase cell only.
Outcome Measure(PlacementPolicy policy, int streams,
                const ObsFlags* obs_flags) {
  Simulator sim(93);
  if (obs_flags != nullptr) {
    ApplyObsFlags(*obs_flags, &sim.obs());
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());
  LiveTranscodingService service(&sim, &cluster, policy);
  for (int i = 0; i < streams; ++i) {
    auto stream = service.StartStream(VbenchVideo::kV4Presentation,
                                      TranscodeBackend::kSocCpu);
    SOC_CHECK(stream.ok()) << stream.status().ToString();
  }
  Outcome outcome;
  outcome.socs_used = 0;
  for (int i = 0; i < cluster.num_socs(); ++i) {
    outcome.socs_used += service.StreamsOnSoc(i) > 0 ? 1 : 0;
  }
  outcome.power_on_watts = cluster.CurrentPower().watts();
  // Power-gate every idle SoC (what the autoscaler would do).
  for (int i = 0; i < cluster.num_socs(); ++i) {
    if (service.StreamsOnSoc(i) == 0) {
      status = cluster.soc(i).PowerOff();
      SOC_CHECK(status.ok());
    }
  }
  outcome.power_gated_watts = cluster.CurrentPower().watts();
  if (obs_flags != nullptr) {
    sim.obs().slos.Advance(sim.Now());
    SOC_CHECK(FlushObsFlags(*obs_flags, sim.obs(), sim.Now()).ok());
    StateDigest digest;
    sim.DigestState(digest);
    cluster.DigestState(digest);
    service.DigestState(digest);
    SOC_CHECK(FlushDigestFlag(*obs_flags, digest.value()).ok());
  }
  return outcome;
}

int Run(const ObsFlags& obs_flags) {
  std::printf("=== Ablation: placement policy x power gating "
              "(V4 live streams) ===\n\n");
  BenchReport report("ablation_placement");
  TextTable table({"streams", "policy", "SoCs used", "W (all on)",
                   "W (idle gated)"});
  for (int streams : {6, 18, 54, 180}) {
    int pack_socs = 0;
    int spread_socs = 0;
    for (PlacementPolicy policy :
         {PlacementPolicy::kSpread, PlacementPolicy::kPack,
          PlacementPolicy::kBestFit, PlacementPolicy::kRandomOfK}) {
      const bool showcase =
          streams == 180 && policy == PlacementPolicy::kRandomOfK;
      const Outcome outcome =
          Measure(policy, streams, showcase ? &obs_flags : nullptr);
      const std::string prefix = std::string(PlacementPolicyName(policy)) +
                                 "_" + std::to_string(streams) + "streams_";
      report.Add(prefix + "gated_watts", outcome.power_gated_watts, "W");
      report.Add(prefix + "socs_used",
                 static_cast<double>(outcome.socs_used), "socs");
      table.AddRow({std::to_string(streams), PlacementPolicyName(policy),
                    std::to_string(outcome.socs_used),
                    FormatDouble(outcome.power_on_watts, 1),
                    FormatDouble(outcome.power_gated_watts, 1)});
      report.Claim(outcome.power_gated_watts > 0.0 && outcome.socs_used > 0,
                   "%s at %d streams draws power (%.1f W) on SoCs (%d)",
                   PlacementPolicyName(policy), streams,
                   outcome.power_gated_watts, outcome.socs_used);
      if (policy == PlacementPolicy::kPack) {
        pack_socs = outcome.socs_used;
      } else if (policy == PlacementPolicy::kSpread) {
        spread_socs = outcome.socs_used;
      }
    }
    // At partial load packing must use no more SoCs than spreading: that
    // inequality is the point of the ablation.
    report.Claim(pack_socs <= spread_socs,
                 "pack uses no more SoCs than spread at %d streams (%d vs %d)",
                 streams, pack_socs, spread_socs);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Takeaway: with idle SoCs left on, the policies are nearly "
              "tied (the wake adder is small); once the autoscaler gates "
              "idle SoCs, packing wins decisively at partial load — the "
              "discrete-SoC design only pays off with consolidation + "
              "power management, the §5.2 mechanism. Best-fit tracks pack "
              "(it maximizes post-placement occupancy); random-of-2 sits "
              "between the extremes, trading placement quality for O(k) "
              "scoring.\n");
  return report.ExitCode();
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  return soccluster::Run(soccluster::ParseObsFlags(argc, argv));
}

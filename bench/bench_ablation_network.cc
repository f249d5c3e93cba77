// Ablation (§8 "Network infrastructure and topology"): how much would a
// faster intra-cluster fabric help collaborative inference? The paper
// notes the 1 Gbps SoC links are two orders of magnitude below
// InfiniBand/NVLink; this sweep upgrades the SoC NICs and PCB uplinks and
// re-runs the Figure 13 experiment at N = 5.

#include <cstdio>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/table.h"
#include "src/cluster/cluster.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"
#include "src/workload/dl/collab.h"

namespace soccluster {
namespace {

// `obs_flags` is non-null for the showcase cell only.
CollabResult RunAt(DataRate fabric, DnnModel model, bool pipelined,
                   const ObsFlags* obs_flags) {
  Simulator sim(91);
  ClusterChassisSpec chassis = DefaultChassisSpec();
  chassis.pcb_uplink = fabric;
  SocSpec soc = Snapdragon865Spec();
  soc.nic = fabric;
  SocCluster cluster(&sim, chassis, soc);
  if (obs_flags != nullptr) {
    ApplyObsFlags(*obs_flags, &sim.obs());
  }
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());
  CollaborativeInference collab(&sim, &cluster, model, /*num_socs=*/5,
                                pipelined);
  CollabResult result;
  collab.Run([&](const CollabResult& r) { result = r; });
  sim.Run();
  if (obs_flags != nullptr) {
    SOC_CHECK(FlushObsFlags(*obs_flags, sim.obs(), sim.Now()).ok());
    StateDigest digest;
    sim.DigestState(digest);
    cluster.DigestState(digest);
    SOC_CHECK(FlushDigestFlag(*obs_flags, digest.value()).ok());
  }
  return result;
}

void Run(const ObsFlags& obs_flags) {
  std::printf("=== Ablation: intra-cluster fabric bandwidth "
              "(collaborative ResNet-50, N=5) ===\n\n");
  BenchReport report("ablation_network");
  report.SetParam("num_socs", static_cast<int64_t>(5));
  TextTable table({"fabric", "seq total ms", "seq comm %", "pipe total ms",
                   "pipe comm %", "speedup vs 1 SoC (80 ms)"});
  for (double gbps : {1.0, 2.5, 10.0, 25.0, 100.0}) {
    const bool showcase = gbps == 100.0;
    const CollabResult seq =
        RunAt(DataRate::Gbps(gbps), DnnModel::kResNet50, false, nullptr);
    const CollabResult pipe =
        RunAt(DataRate::Gbps(gbps), DnnModel::kResNet50, true,
              showcase ? &obs_flags : nullptr);
    const std::string prefix = "fabric_" + FormatDouble(gbps, 1) + "gbps_";
    report.Add(prefix + "pipe_total_ms", pipe.total.ToMillis(), "ms");
    report.Add(prefix + "pipe_comm_share", pipe.CommShare(), "ratio");
    table.AddRow({FormatDouble(gbps, 1) + " Gbps",
                  FormatDouble(seq.total.ToMillis(), 1),
                  FormatDouble(seq.CommShare() * 100.0, 1) + "%",
                  FormatDouble(pipe.total.ToMillis(), 1),
                  FormatDouble(pipe.CommShare() * 100.0, 1) + "%",
                  FormatDouble(80.0 / pipe.total.ToMillis(), 2) + "x"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Takeaway: beyond ~10 Gbps the transfer time vanishes but the "
              "per-block RTT and partitioning overhead remain — bandwidth "
              "alone cannot reach the ideal 2.35x; §5.3's call for finer "
              "tensor partitioning (fewer sync points) stands.\n");
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  soccluster::Run(soccluster::ParseObsFlags(argc, argv));
  return 0;
}

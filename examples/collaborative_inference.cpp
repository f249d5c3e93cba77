// Collaborative inference across SoCs (§5.3): partition ResNet-50 across
// 1-5 SoCs with MNN-style width-wise tensor parallelism, with and without
// compute/communication pipelining, and watch where the time goes.

#include <cstdio>

#include "src/base/check.h"
#include "src/base/table.h"
#include "src/cluster/cluster.h"
#include "src/obs/flags.h"
#include "src/workload/dl/collab.h"

using namespace soccluster;

int main(int argc, char** argv) {
  const ObsFlags obs_flags = ParseObsFlags(argc, argv);
  Simulator sim(13);
  ApplyObsFlags(obs_flags, &sim.obs());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());

  std::printf("=== ResNet-50 tensor-parallel inference across SoCs ===\n\n");
  TextTable table({"SoCs", "mode", "total ms", "compute ms", "comm ms",
                   "comm share", "energy/inference J"});
  CollabResult baseline;
  for (int socs = 1; socs <= 5; ++socs) {
    for (bool pipelined : {false, true}) {
      if (socs == 1 && pipelined) {
        continue;  // Identical to sequential with one SoC.
      }
      CollaborativeInference collab(&sim, &cluster, DnnModel::kResNet50, socs,
                                    pipelined);
      const Energy e0 = cluster.TotalEnergy();
      CollabResult result;
      collab.Run([&](const CollabResult& r) { result = r; });
      sim.Run();
      const Energy spent = cluster.TotalEnergy() - e0;
      if (socs == 1) {
        baseline = result;
      }
      table.AddRow({std::to_string(socs),
                    pipelined ? "pipelined" : "sequential",
                    FormatDouble(result.total.ToMillis(), 1),
                    FormatDouble(result.compute.ToMillis(), 1),
                    FormatDouble(result.comm.ToMillis(), 1),
                    FormatDouble(result.CommShare() * 100.0, 1) + "%",
                    FormatDouble(spent.joules(), 2)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("takeaway (§5.3): five SoCs cut compute 80 -> ~34 ms, but "
              "per-block halo exchanges over the 1 Gbps fabric cap the "
              "end-to-end speedup near 1.4x; pipelining hides roughly half "
              "of the communication.\n");
  const Status obs_status = FlushObsFlags(obs_flags, sim.obs());
  SOC_CHECK(obs_status.ok()) << obs_status.ToString();
  return 0;
}

// Regenerates Figure 13: SoC-collaborative DL inference latency and its
// compute/communication breakdown for 1-5 SoCs, with MNN-style tensor
// parallelism (left) and computation/communication pipelining (right).
// Halo transfers run as real flows through the simulated PCB fabric.

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

CollabResult RunOnce(Simulator* sim, SocCluster* cluster, DnnModel model,
                     int num_socs, bool pipelined) {
  CollaborativeInference collab(sim, cluster, model, num_socs, pipelined);
  CollabResult result;
  collab.Run([&](const CollabResult& r) { result = r; });
  sim->Run();
  return result;
}

void Sweep(Simulator* sim, SocCluster* cluster, DnnModel model,
           const char* tag, BenchReport* report) {
  std::printf("--- %s (FP32, MNN tensor parallelism) ---\n",
              GetDnnModel(model).name.c_str());
  TextTable table({"SoCs", "seq total ms", "seq compute", "seq comm",
                   "seq comm %", "pipe total ms", "pipe comm %", "speedup"});
  CollabResult single;
  for (int socs = 1; socs <= 5; ++socs) {
    const CollabResult seq = RunOnce(sim, cluster, model, socs, false);
    const CollabResult pipe = RunOnce(sim, cluster, model, socs, true);
    if (socs == 1) {
      single = seq;
    }
    table.AddRow({std::to_string(socs), FormatDouble(seq.total.ToMillis(), 1),
                  FormatDouble(seq.compute.ToMillis(), 1),
                  FormatDouble(seq.comm.ToMillis(), 1),
                  FormatDouble(seq.CommShare() * 100.0, 1) + "%",
                  FormatDouble(pipe.total.ToMillis(), 1),
                  FormatDouble(pipe.CommShare() * 100.0, 1) + "%",
                  FormatDouble(seq.Speedup(single), 2) + "x"});
    if (socs == 5) {
      const std::string prefix = std::string(tag) + "_at_5socs_";
      report->Add(prefix + "seq_total_ms", seq.total.ToMillis(), "ms");
      report->Add(prefix + "seq_comm_share", seq.CommShare(), "ratio");
      report->Add(prefix + "pipe_comm_share", pipe.CommShare(), "ratio");
      report->Add(prefix + "speedup", seq.Speedup(single), "x");
    }
  }
  std::printf("%s\n", table.Render().c_str());
}

void Run(const ObsFlags& obs_flags) {
  std::printf("=== Figure 13: SoC-collaborative DL inference ===\n\n");
  Simulator sim(77);
  ApplyObsFlags(obs_flags, &sim.obs());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  const Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());
  BenchReport report("fig13_collab_inference");
  Sweep(&sim, &cluster, DnnModel::kResNet50, "r50", &report);
  Sweep(&sim, &cluster, DnnModel::kResNet152, "r152", &report);
  std::printf("(paper, ResNet-50: compute 80 -> 34 ms at N=5 but only a "
              "1.38x end-to-end speedup; communication is 41.5%% of latency, "
              "22.9%% with pipelining)\n");

  SOC_CHECK(FlushObsFlags(obs_flags, sim.obs(), sim.Now()).ok());
  StateDigest digest;
  sim.DigestState(digest);
  cluster.DigestState(digest);
  SOC_CHECK(FlushDigestFlag(obs_flags, digest.value()).ok());
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  soccluster::Run(soccluster::ParseObsFlags(argc, argv));
  return 0;
}

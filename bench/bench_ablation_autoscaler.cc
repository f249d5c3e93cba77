// Ablation: autoscaler warm-pool size and target utilization — the
// efficiency/latency trade governing the Figure 12 advantage. Each cell
// runs the full serving DES at a light ResNet-50 load.

#include <cstdio>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/stats.h"
#include "src/base/table.h"
#include "src/cluster/cluster.h"
#include "src/core/autoscaler.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"
#include "src/trace/loadgen.h"
#include "src/workload/dl/serving.h"

namespace soccluster {
namespace {

struct Outcome {
  double samples_per_joule;
  double p99_ms;
};

// `obs_flags` is non-null for the showcase cell only: that run carries
// the optional trace/metrics/SLO/digest outputs.
Outcome Measure(int warm_pool, double target_util, double rate,
                const ObsFlags* obs_flags) {
  Simulator sim(97);
  if (obs_flags != nullptr) {
    ApplyObsFlags(*obs_flags, &sim.obs());
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  AutoscalerConfig config;
  config.warm_pool = warm_pool;
  config.target_utilization = target_util;
  ClusterAutoscaler autoscaler(&sim, &cluster, &fleet, config);
  autoscaler.Start();
  OpenLoopSource source(&sim, rate, Duration::Seconds(150),
                        [&fleet] { fleet.Submit(); });
  source.Start();
  status = sim.RunFor(Duration::Seconds(30));  // Converge.
  SOC_CHECK(status.ok());
  auto soc_energy = [&cluster] {
    Energy total = Energy::Zero();
    for (int i = 0; i < cluster.num_socs(); ++i) {
      total += cluster.soc(i).TotalEnergy();
    }
    return total;
  };
  const Energy e0 = soc_energy();
  const int64_t done0 = fleet.completed();
  const size_t samples0 = fleet.latencies().count();
  status = sim.RunFor(Duration::Seconds(120));
  SOC_CHECK(status.ok());
  const Energy spent = soc_energy() - e0;
  SampleStats window;
  const auto& all = fleet.latencies().samples();
  for (size_t i = samples0; i < all.size(); ++i) {
    window.Add(all[i]);
  }
  if (obs_flags != nullptr) {
    sim.obs().slos.Advance(sim.Now());
    SOC_CHECK(FlushObsFlags(*obs_flags, sim.obs(), sim.Now()).ok());
    StateDigest digest;
    sim.DigestState(digest);
    cluster.DigestState(digest);
    fleet.DigestState(digest);
    SOC_CHECK(FlushDigestFlag(*obs_flags, digest.value()).ok());
  }
  return {(fleet.completed() - done0) / spent.joules(),
          window.count() > 0 ? window.Percentile(99) : 0.0};
}

void Run(const ObsFlags& obs_flags) {
  std::printf("=== Ablation: autoscaler policy at 20 req/s (ResNet-50, "
              "SoC GPU) ===\n\n");
  BenchReport report("ablation_autoscaler");
  report.SetParam("rate_per_s", 20.0);
  TextTable table({"warm pool", "target util", "samples/J", "p99 ms"});
  for (int warm : {0, 2, 6, 12}) {
    for (double util : {0.5, 0.85}) {
      const bool showcase = warm == 12 && util == 0.85;
      const Outcome outcome =
          Measure(warm, util, 20.0, showcase ? &obs_flags : nullptr);
      const std::string prefix = "warm" + std::to_string(warm) + "_util" +
                                 FormatDouble(util, 2) + "_";
      report.Add(prefix + "samples_per_joule", outcome.samples_per_joule,
                 "samples/J");
      report.Add(prefix + "p99_ms", outcome.p99_ms, "ms");
      table.AddRow({std::to_string(warm), FormatDouble(util, 2),
                    FormatDouble(outcome.samples_per_joule, 2),
                    FormatDouble(outcome.p99_ms, 1)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Takeaway: the warm pool buys burst headroom at ~1.3 W per "
              "idle SoC; tight packing (high target util) maximizes "
              "samples/J with a measurable tail-latency cost.\n");
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  soccluster::Run(soccluster::ParseObsFlags(argc, argv));
  return 0;
}

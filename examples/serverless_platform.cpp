// Serverless functions at SoC granularity (§8 "Killer applications"): a
// Zipf-popular function mix served by the cluster, showing warm/cold
// behaviour, per-SoC memory occupancy, and the energy cost of keep-alive.

#include <algorithm>
#include <cstdio>

#include "src/base/check.h"
#include "src/base/table.h"
#include "src/cluster/cluster.h"
#include "src/obs/flags.h"
#include "src/workload/serverless/serverless.h"

using namespace soccluster;

int main(int argc, char** argv) {
  const ObsFlags obs_flags = ParseObsFlags(argc, argv);
  Simulator sim(19);
  ApplyObsFlags(obs_flags, &sim.obs());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());

  ServerlessConfig config;
  config.keep_alive = Duration::Minutes(5);
  ServerlessPlatform platform(&sim, &cluster, config);
  ServerlessWorkload workload(&sim, &platform, /*num_functions=*/30,
                              /*total_rate_per_s=*/120.0, /*seed=*/9);
  status = workload.Start(Duration::Minutes(15));
  SOC_CHECK(status.ok());

  std::printf("=== 15 minutes of serverless on the SoC Cluster ===\n\n");
  TextTable table({"minute", "invocations", "cold-start rate", "warm fn1",
                   "warm fn10", "cluster W"});
  int64_t last_invocations = 0;
  for (int minute = 1; minute <= 15; minute += 2) {
    status = sim.RunFor(Duration::Minutes(2));
    SOC_CHECK(status.ok());
    const InvocationStats& stats = platform.stats();
    table.AddRow({std::to_string(minute + 1),
                  std::to_string(static_cast<long>(stats.invocations -
                                                   last_invocations)),
                  FormatDouble(stats.ColdStartRate() * 100.0, 1) + "%",
                  std::to_string(platform.WarmInstanceCount("fn1")),
                  std::to_string(platform.WarmInstanceCount("fn10")),
                  FormatDouble(cluster.CurrentPower().watts(), 0)});
    last_invocations = stats.invocations;
  }
  std::printf("%s\n", table.Render().c_str());

  const InvocationStats& stats = platform.stats();
  std::printf("totals: %lld invocations, %.1f%% cold, p50 %.0f ms, "
              "p99 %.0f ms, %lld shed\n",
              static_cast<long long>(stats.invocations),
              stats.ColdStartRate() * 100.0, stats.latency_ms.Median(),
              stats.latency_ms.Percentile(99),
              static_cast<long long>(stats.rejected));
  double peak_memory = 0.0;
  for (int i = 0; i < cluster.num_socs(); ++i) {
    peak_memory = std::max(peak_memory, platform.SocMemoryMb(i));
  }
  std::printf("max per-SoC function memory: %.0f MB of %.0f MB budget\n",
              peak_memory, ServerlessPlatform::kSocMemoryBudgetMb);
  const Status obs_status = FlushObsFlags(obs_flags, sim.obs());
  SOC_CHECK(obs_status.ok()) << obs_status.ToString();
  return 0;
}

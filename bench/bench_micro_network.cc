// Regenerates the §2.3 network micro-benchmarks: inter-SoC RTT (ping) and
// TCP/UDP goodput (iperf3-style bulk transfer) across the PCB fabric.

#include <cstdio>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/table.h"
#include "src/cluster/cluster.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"

namespace soccluster {
namespace {

void Run(const ObsFlags& obs_flags) {
  std::printf("=== §2.3 micro-benchmarks: inter-SoC network ===\n\n");
  Simulator sim(88);
  ApplyObsFlags(obs_flags, &sim.obs());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());

  // Ping: one RTT via SendMessage with an empty payload.
  SimTime echo_time;
  const Status ping = cluster.network().SendMessage(
      cluster.soc_node(0), cluster.soc_node(7), DataSize::Bytes(64),
      [&] { echo_time = sim.Now(); });
  SOC_CHECK(ping.ok()) << ping.ToString();
  sim.Run();
  std::printf("RTT soc0 -> soc7 (cross-PCB): %.2f ms   (paper: ~0.44 ms)\n",
              (echo_time - SimTime::Zero()).ToMillis());
  BenchReport report("micro_network");
  report.Add("rtt_cross_pcb_ms", (echo_time - SimTime::Zero()).ToMillis(),
             "ms");

  // iperf3: 1 GB bulk transfer between two SoCs, TCP- and UDP-capped.
  TextTable table({"protocol", "goodput Mbps"});
  for (const auto& [name, cap] :
       {std::pair<const char*, DataRate>{"TCP",
                                         Network::TcpGoodput(DataRate::Gbps(1.0))},
        std::pair<const char*, DataRate>{"UDP",
                                         Network::UdpGoodput(DataRate::Gbps(1.0))}}) {
    Simulator iperf_sim(89);
    SocCluster iperf_cluster(&iperf_sim, DefaultChassisSpec(),
                             Snapdragon865Spec());
    const SimTime start = iperf_sim.Now();
    SimTime end;
    auto flow = iperf_cluster.network().StartFlow(
        iperf_cluster.soc_node(0), iperf_cluster.soc_node(9),
        DataSize::Gigabytes(1.0), cap, [&] { end = iperf_sim.Now(); });
    SOC_CHECK(flow.ok());
    iperf_sim.Run();
    const double goodput_mbps =
        DataSize::Gigabytes(1.0).ToMegabits() / (end - start).ToSeconds();
    report.Add(std::string(name) + "_goodput_mbps", goodput_mbps, "Mbps");
    table.AddRow({name, FormatDouble(goodput_mbps, 0)});
  }
  std::printf("\n%s\n", table.Render().c_str());
  std::printf("(paper: ~903 Mbps TCP, ~895 Mbps UDP over the 1GE fabric)\n");

  // The flags attach to the ping sim; the digest additionally folds the
  // per-protocol iperf sims' goodput so a regression anywhere shows up.
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

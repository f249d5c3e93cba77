#include "src/net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace soccluster {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  Simulator sim_{1};
  Duration rtt_ = Duration::MicrosF(440.0);
};

TEST_F(NetworkTest, SingleFlowUsesFullLink) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  bool done = false;
  SimTime end;
  auto flow = net.StartFlow(a, b, DataSize::Megabytes(12.5),
                            DataRate::Zero(), [&] {
                              done = true;
                              end = sim_.Now();
                            });
  ASSERT_TRUE(flow.ok());
  EXPECT_DOUBLE_EQ(net.FlowRate(*flow)->ToMbps(), 100.0);
  sim_.Run();
  EXPECT_TRUE(done);
  // 12.5 MB = 100 Mbit at 100 Mbps -> 1 s.
  EXPECT_NEAR((end - SimTime::Zero()).ToSeconds(), 1.0, 1e-6);
}

TEST_F(NetworkTest, TwoFlowsShareFairly) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  auto f1 = net.StartFlow(a, b, DataSize::Megabytes(100.0), DataRate::Zero(),
                          nullptr);
  auto f2 = net.StartFlow(a, b, DataSize::Megabytes(100.0), DataRate::Zero(),
                          nullptr);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NEAR(net.FlowRate(*f1)->ToMbps(), 50.0, 1e-6);
  EXPECT_NEAR(net.FlowRate(*f2)->ToMbps(), 50.0, 1e-6);
}

TEST_F(NetworkTest, RateCapLeavesBandwidthForOthers) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  auto capped = net.StartFlow(a, b, DataSize::Megabytes(100.0),
                              DataRate::Mbps(10.0), nullptr);
  auto open = net.StartFlow(a, b, DataSize::Megabytes(100.0),
                            DataRate::Zero(), nullptr);
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE(open.ok());
  EXPECT_NEAR(net.FlowRate(*capped)->ToMbps(), 10.0, 1e-6);
  EXPECT_NEAR(net.FlowRate(*open)->ToMbps(), 90.0, 1e-6);
}

TEST_F(NetworkTest, FlowCompletionFreesBandwidth) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(80.0));
  // Short flow finishes first; long flow should then speed up.
  SimTime long_end;
  auto short_flow = net.StartFlow(a, b, DataSize::Megabytes(1.0),
                                  DataRate::Zero(), nullptr);
  auto long_flow = net.StartFlow(a, b, DataSize::Megabytes(10.0),
                                 DataRate::Zero(),
                                 [&] { long_end = sim_.Now(); });
  ASSERT_TRUE(short_flow.ok());
  ASSERT_TRUE(long_flow.ok());
  sim_.Run();
  // Phase 1: both at 40 Mbps until the 1 MB (8 Mbit) flow ends at t=0.2 s;
  // the long flow then runs at 80 Mbps. It moved 8 Mbit in phase 1, so
  // 72 Mbit remain -> 0.9 s more. Total 1.1 s.
  EXPECT_NEAR((long_end - SimTime::Zero()).ToSeconds(), 1.1, 1e-6);
}

TEST_F(NetworkTest, MultiHopBottleneck) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId m = net.AddNode("m");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, m, DataRate::Mbps(100.0));
  net.AddBidirectionalLink(m, b, DataRate::Mbps(10.0));
  auto flow = net.StartFlow(a, b, DataSize::Megabytes(100.0),
                            DataRate::Zero(), nullptr);
  ASSERT_TRUE(flow.ok());
  EXPECT_NEAR(net.FlowRate(*flow)->ToMbps(), 10.0, 1e-6);
}

TEST_F(NetworkTest, NoRouteFails) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");  // Isolated.
  auto flow = net.StartFlow(a, b, DataSize::Bytes(10), DataRate::Zero(),
                            nullptr);
  EXPECT_EQ(flow.status().code(), StatusCode::kNotFound);
}

TEST_F(NetworkTest, LocalFlowCompletesImmediately) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  bool done = false;
  auto flow = net.StartFlow(a, a, DataSize::Megabytes(10.0),
                            DataRate::Zero(), [&] { done = true; });
  ASSERT_TRUE(flow.ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.Now(), SimTime::Zero());
}

TEST_F(NetworkTest, ZeroSizeFlowCompletes) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(1.0));
  bool done = false;
  auto flow =
      net.StartFlow(a, b, DataSize::Zero(), DataRate::Zero(), [&] {
        done = true;
      });
  ASSERT_TRUE(flow.ok());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(NetworkTest, SendMessageAddsRtt) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  SimTime end;
  auto msg = net.SendMessage(a, b, DataSize::Megabytes(1.25),
                             [&] { end = sim_.Now(); });
  ASSERT_TRUE(msg.ok());
  sim_.Run();
  // 10 Mbit at 100 Mbps = 0.1 s, plus 0.44 ms RTT.
  EXPECT_NEAR((end - SimTime::Zero()).ToSeconds(), 0.10044, 1e-6);
}

TEST_F(NetworkTest, SendMessageWithoutRouteFailsAndSchedulesNothing) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");  // Isolated.
  bool done = false;
  const Status status =
      net.SendMessage(a, b, DataSize::Bytes(64), [&] { done = true; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(net.SendMessage(a, b + 1, DataSize::Bytes(64), nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim_.pending_events(), 0u);
  sim_.Run();
  EXPECT_FALSE(done);
  EXPECT_EQ(net.num_active_flows(), 0);
}

TEST_F(NetworkTest, ConstantLoadReducesFlowBandwidth) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  auto load = net.AddConstantLoad(a, b, DataRate::Mbps(60.0));
  ASSERT_TRUE(load.ok());
  auto flow = net.StartFlow(a, b, DataSize::Megabytes(100.0),
                            DataRate::Zero(), nullptr);
  ASSERT_TRUE(flow.ok());
  EXPECT_NEAR(net.FlowRate(*flow)->ToMbps(), 40.0, 1e-6);
  ASSERT_TRUE(net.RemoveConstantLoad(*load).ok());
  EXPECT_NEAR(net.FlowRate(*flow)->ToMbps(), 100.0, 1e-6);
}

TEST_F(NetworkTest, ConstantLoadMayOversubscribe) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const LinkId link = net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  ASSERT_TRUE(net.AddConstantLoad(a, b, DataRate::Mbps(150.0)).ok());
  EXPECT_NEAR(net.LinkUtilization(link), 1.5, 1e-9);
}

TEST_F(NetworkTest, RemoveUnknownLoadFails) {
  Network net(&sim_, rtt_);
  EXPECT_EQ(net.RemoveConstantLoad(999).code(), StatusCode::kNotFound);
}

TEST_F(NetworkTest, LinkUtilizationTracksOfferedRate) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const LinkId ab = net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  ASSERT_TRUE(net.AddConstantLoad(a, b, DataRate::Mbps(25.0)).ok());
  EXPECT_NEAR(net.LinkUtilization(ab), 0.25, 1e-9);
  // Reverse direction unaffected.
  EXPECT_NEAR(net.LinkUtilization(ab + 1), 0.0, 1e-9);
}

TEST_F(NetworkTest, LinkUtilizationRejectsUnknownLink) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const LinkId ab = net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  // Ids ab and ab + 1 exist; anything else must abort rather than read
  // past the link table.
  EXPECT_DEATH(net.LinkUtilization(ab + 2), "CHECK failed");
  EXPECT_DEATH(net.LinkUtilization(-1), "CHECK failed");
}

TEST_F(NetworkTest, LinkDegradationScalesCapacity) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const LinkId ab = net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  net.SetLinkDegradation(ab, 0.25);
  EXPECT_NEAR(net.LinkCapacityFactor(ab), 0.25, 1e-12);
  // The reverse link is a separate LinkState: unaffected.
  EXPECT_NEAR(net.LinkCapacityFactor(ab + 1), 1.0, 1e-12);
  auto flow = net.StartFlow(a, b, DataSize::Megabytes(100.0),
                            DataRate::Zero(), nullptr);
  ASSERT_TRUE(flow.ok());
  EXPECT_NEAR(net.FlowRate(*flow)->ToMbps(), 25.0, 1e-6);
  // Utilization is relative to the degraded capacity: the brownout link is
  // saturated, not at 25%.
  EXPECT_NEAR(net.LinkUtilization(ab), 1.0, 1e-9);
  net.SetLinkDegradation(ab, 1.0);
  EXPECT_NEAR(net.FlowRate(*flow)->ToMbps(), 100.0, 1e-6);
}

TEST_F(NetworkTest, DegradedLinkStretchesFlowCompletion) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const LinkId ab = net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  net.SetLinkDegradation(ab, 0.25);
  bool done = false;
  SimTime end;
  auto flow = net.StartFlow(a, b, DataSize::Megabytes(12.5),
                            DataRate::Zero(), [&] {
                              done = true;
                              end = sim_.Now();
                            });
  ASSERT_TRUE(flow.ok());
  sim_.Run();
  EXPECT_TRUE(done);
  // 100 Mbit at 25 Mbps -> 4 s (vs. 1 s healthy).
  EXPECT_NEAR((end - SimTime::Zero()).ToSeconds(), 4.0, 1e-6);
}

TEST_F(NetworkTest, TcpGoodputMatchesMeasuredEfficiency) {
  // §2.3: ~903 Mbps TCP and ~895 Mbps UDP over the 1GE fabric.
  EXPECT_NEAR(Network::TcpGoodput(DataRate::Gbps(1.0)).ToMbps(), 903.0, 0.1);
  EXPECT_NEAR(Network::UdpGoodput(DataRate::Gbps(1.0)).ToMbps(), 895.0, 0.1);
}

TEST_F(NetworkTest, CompletionCallbackCanStartNewFlow) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  int completed = 0;
  auto first = net.StartFlow(a, b, DataSize::Megabytes(1.0),
                             DataRate::Zero(), [&] {
                               ++completed;
                               auto second = net.StartFlow(
                                   b, a, DataSize::Megabytes(1.0),
                                   DataRate::Zero(), [&] { ++completed; });
                               ASSERT_TRUE(second.ok());
                             });
  ASSERT_TRUE(first.ok());
  sim_.Run();
  EXPECT_EQ(completed, 2);
}

TEST_F(NetworkTest, ManyParallelFlowsConserveBandwidth) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  std::vector<FlowId> flows;
  for (int i = 0; i < 10; ++i) {
    auto flow = net.StartFlow(a, b, DataSize::Megabytes(100.0),
                              DataRate::Zero(), nullptr);
    ASSERT_TRUE(flow.ok());
    flows.push_back(*flow);
  }
  double total = 0.0;
  for (FlowId flow : flows) {
    total += net.FlowRate(flow)->ToMbps();
  }
  EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST_F(NetworkTest, DisjointPathsDoNotInterfere) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const NetNodeId c = net.AddNode("c");
  const NetNodeId d = net.AddNode("d");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  net.AddBidirectionalLink(c, d, DataRate::Mbps(100.0));
  auto f1 = net.StartFlow(a, b, DataSize::Megabytes(100.0), DataRate::Zero(),
                          nullptr);
  auto f2 = net.StartFlow(c, d, DataSize::Megabytes(100.0), DataRate::Zero(),
                          nullptr);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NEAR(net.FlowRate(*f1)->ToMbps(), 100.0, 1e-6);
  EXPECT_NEAR(net.FlowRate(*f2)->ToMbps(), 100.0, 1e-6);
}

TEST_F(NetworkTest, RoundingResidueStallsInsteadOfAborting) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const LinkId ab = net.AddBidirectionalLink(a, b, DataRate::Gbps(20.0));
  std::vector<int64_t> loads;
  for (int i = 0; i < 9; ++i) {
    auto load = net.AddConstantLoad(a, b, DataRate::Gbps(20.0 / 9.0));
    ASSERT_TRUE(load.ok());
    loads.push_back(*load);
  }
  // The loads fill the link up to a floating-point residue that is above
  // the absolute rate epsilon (1e-6 bps) yet is no bandwidth at all.
  const double residue =
      net.LinkCapacity(ab).bps() - net.LinkConstantLoad(ab).bps();
  EXPECT_GT(residue, 1e-6);
  EXPECT_LT(residue, 1e-3);
  bool done = false;
  auto flow = net.StartFlow(a, b, DataSize::Megabytes(0.5), DataRate::Zero(),
                            [&] { done = true; });
  ASSERT_TRUE(flow.ok());
  // Handed the residue, the flow's ETA (~1e12 s) would overflow the clock;
  // instead it stalls as on a down link.
  EXPECT_EQ(net.FlowRate(*flow)->bps(), 0.0);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(1)).ok());
  EXPECT_FALSE(done);
  ASSERT_TRUE(net.RemoveConstantLoad(loads.back()).ok());
  EXPECT_NEAR(net.FlowRate(*flow)->ToGbps(), 20.0 / 9.0, 1e-9);
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(net.num_active_flows(), 0);
}

TEST_F(NetworkTest, CappedFlowsFillingALinkStillShareWithAnUncappedFlow) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Gbps(20.0));
  const DataRate cap = DataRate::Gbps(20.0 / 9.0);
  std::vector<FlowId> capped;
  int completed = 0;
  for (int i = 0; i < 9; ++i) {
    auto flow = net.StartFlow(a, b, DataSize::Megabytes(10.0), cap,
                              [&] { ++completed; });
    ASSERT_TRUE(flow.ok());
    capped.push_back(*flow);
  }
  for (FlowId flow : capped) {
    EXPECT_NEAR(net.FlowRate(flow)->ToGbps(), 20.0 / 9.0, 1e-9);
  }
  // The capped flows leave the same residue as the loads above, but a new
  // flow is owed a fair share, not the residue: all ten get 2 Gbps.
  SimTime uncapped_end;
  auto uncapped = net.StartFlow(a, b, DataSize::Megabytes(0.5),
                                DataRate::Zero(), [&] {
                                  ++completed;
                                  uncapped_end = sim_.Now();
                                });
  ASSERT_TRUE(uncapped.ok());
  EXPECT_NEAR(net.FlowRate(*uncapped)->ToGbps(), 2.0, 1e-9);
  for (FlowId flow : capped) {
    EXPECT_NEAR(net.FlowRate(flow)->ToGbps(), 2.0, 1e-9);
  }
  sim_.Run();
  EXPECT_EQ(completed, 10);
  // 4 Mbit at 2 Gbps.
  EXPECT_NEAR((uncapped_end - SimTime::Zero()).ToMillis(), 2.0, 1e-6);
}

TEST_F(NetworkTest, CompletionIsRescheduledOnlyWhenItsRateChanges) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  const NetNodeId c = net.AddNode("c");
  const NetNodeId d = net.AddNode("d");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  net.AddBidirectionalLink(c, d, DataRate::Mbps(100.0));
  Counter* wakes = sim_.metrics().GetCounter("net.wakes_scheduled");
  SimTime first_end;
  ASSERT_TRUE(net.StartFlow(a, b, DataSize::Megabytes(12.5), DataRate::Zero(),
                            [&] { first_end = sim_.Now(); })
                  .ok());
  EXPECT_EQ(wakes->value(), 1);
  // A disjoint flow leaves the first flow's rate alone, but it finishes
  // earlier (0.5 s against 1 s), so the wake moves exactly once.
  ASSERT_TRUE(net.StartFlow(c, d, DataSize::Megabytes(6.25), DataRate::Zero(),
                            nullptr)
                  .ok());
  EXPECT_EQ(wakes->value(), 2);
  EXPECT_EQ(sim_.events_cancelled(), 1);
  // A flow on the first link halves its rate: neither its finish nor the
  // new flow's is the earliest, so the wake stays where it is.
  ASSERT_TRUE(net.StartFlow(a, b, DataSize::Megabytes(12.5), DataRate::Zero(),
                            nullptr)
                  .ok());
  EXPECT_EQ(wakes->value(), 2);
  EXPECT_EQ(sim_.events_cancelled(), 1);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(1)).ok());
  // The disjoint flow's completion at 0.5 s changed no rate either.
  EXPECT_EQ(sim_.events_cancelled(), 1);
  sim_.Run();
  // 100 Mbit at 50 Mbps.
  EXPECT_NEAR((first_end - SimTime::Zero()).ToSeconds(), 2.0, 1e-6);
  EXPECT_EQ(sim_.events_cancelled(), 1);
}

// Flows finishing at the same instant complete in the order their finishes
// were projected, not in FlowId order, and tie-break perturbation cannot
// reorder them: the network holds one pending event.
TEST_F(NetworkTest, EqualInstantCompletionsFireInProjectionOrder) {
  for (uint64_t perturb_seed = 0; perturb_seed <= 8; ++perturb_seed) {
    Simulator sim(1);
    if (perturb_seed > 0) {
      sim.EnableTieBreakPerturbation(perturb_seed);
    }
    Network net(&sim, rtt_);
    const NetNodeId a = net.AddNode("a");
    const NetNodeId b = net.AddNode("b");
    const NetNodeId c = net.AddNode("c");
    const NetNodeId d = net.AddNode("d");
    const LinkId first_link = net.AddBidirectionalLink(a, b,
                                                       DataRate::Mbps(100.0));
    net.AddBidirectionalLink(c, d, DataRate::Mbps(100.0));
    std::vector<char> order;
    // 50 Mbit at 100 Mbps (0.5 s), and 100 Mbit at 100 Mbps (1 s).
    ASSERT_TRUE(net.StartFlow(a, b, DataSize::Megabytes(6.25),
                              DataRate::Zero(), [&] { order.push_back('A'); })
                    .ok());
    ASSERT_TRUE(net.StartFlow(c, d, DataSize::Megabytes(12.5),
                              DataRate::Zero(), [&] { order.push_back('B'); })
                    .ok());
    // Halving the first link re-projects A to 1 s, after B's projection.
    net.SetLinkDegradation(first_link, 0.5);
    sim.Run();
    EXPECT_EQ(sim.Now(), SimTime::Zero() + Duration::Seconds(1));
    EXPECT_EQ(order, (std::vector<char>{'B', 'A'}))
        << "perturbation seed " << perturb_seed;
  }
}

// 240 SoC->external flows of 0.5 MB on a 600-SoC fabric share the ESB
// uplink, so every start and every finish changes every flow's rate. The
// network still schedules at most one event per start and one per finish.
TEST_F(NetworkTest, SharedUplinkSchedulesAtMostTwoEventsPerFlow) {
  constexpr int kPcbs = 120;
  constexpr int kSocsPerPcb = 5;
  constexpr int kFlowsPerPcb = 2;
  Network net(&sim_, rtt_);
  const NetNodeId external = net.AddNode("external");
  const NetNodeId esb = net.AddNode("esb");
  net.AddBidirectionalLink(esb, external, DataRate::Gbps(20.0));
  std::vector<NetNodeId> senders;
  for (int pcb = 0; pcb < kPcbs; ++pcb) {
    const NetNodeId pcb_switch = net.AddNode("pcb" + std::to_string(pcb));
    net.AddBidirectionalLink(pcb_switch, esb, DataRate::Gbps(1.0));
    for (int slot = 0; slot < kSocsPerPcb; ++slot) {
      const NetNodeId soc = net.AddNode("soc" + std::to_string(pcb) + "." +
                                        std::to_string(slot));
      net.AddBidirectionalLink(soc, pcb_switch, DataRate::Gbps(1.0));
      if (slot < kFlowsPerPcb) {
        senders.push_back(soc);
      }
    }
  }
  int completed = 0;
  for (const NetNodeId soc : senders) {
    ASSERT_TRUE(net.StartFlow(soc, external, DataSize::Megabytes(0.5),
                              DataRate::Zero(), [&] { ++completed; })
                    .ok());
  }
  // 240 flows at 20/240 Gbps each: the ESB uplink is the bottleneck.
  EXPECT_NEAR(net.FlowRate(1)->ToGbps(), 20.0 / 240.0, 1e-9);
  sim_.Run();
  const int64_t flows = static_cast<int64_t>(senders.size());
  EXPECT_EQ(completed, flows);
  const int64_t scheduled =
      sim_.events_processed() + sim_.events_cancelled();
  EXPECT_EQ(scheduled,
            sim_.metrics().GetCounter("net.wakes_scheduled")->value());
  EXPECT_LE(scheduled, 2 * flows);
}

// net.fill_visits after five rounds of two flows from different PCBs to the
// external node, on a 60-SoC chassis-shaped fabric with `idle_links` extra
// idle ports on the ESB.
int64_t FillVisitsForTwoFlowChurn(int idle_links) {
  Simulator sim(1);
  Network net(&sim, Duration::MicrosF(440.0));
  const NetNodeId external = net.AddNode("external");
  const NetNodeId esb = net.AddNode("esb");
  net.AddBidirectionalLink(esb, external, DataRate::Gbps(20.0));
  std::vector<NetNodeId> socs;
  for (int pcb = 0; pcb < 12; ++pcb) {
    const NetNodeId pcb_switch = net.AddNode("pcb" + std::to_string(pcb));
    net.AddBidirectionalLink(pcb_switch, esb, DataRate::Gbps(1.0));
    for (int slot = 0; slot < 5; ++slot) {
      socs.push_back(net.AddNode("soc" + std::to_string(socs.size())));
      net.AddBidirectionalLink(socs.back(), pcb_switch, DataRate::Gbps(1.0));
    }
  }
  for (int i = 0; i < idle_links; ++i) {
    net.AddBidirectionalLink(net.AddNode("idle" + std::to_string(i)), esb,
                             DataRate::Gbps(1.0));
  }
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(net.StartFlow(socs[0], external, DataSize::Megabytes(0.5),
                              DataRate::Zero(), nullptr)
                    .ok());
    EXPECT_TRUE(net.StartFlow(socs[7], external, DataSize::Megabytes(1.0),
                              DataRate::Zero(), nullptr)
                    .ok());
    sim.Run();
  }
  return sim.metrics().GetCounter("net.fill_visits")->value();
}

TEST_F(NetworkTest, IdleLinksCostNothing) {
  const int64_t visits = FillVisitsForTwoFlowChurn(0);
  EXPECT_GT(visits, 0);
  EXPECT_EQ(FillVisitsForTwoFlowChurn(1000), visits);
}

TEST_F(NetworkTest, EveryNetworkEventIsLabeled) {
  Network net(&sim_, rtt_);
  const NetNodeId a = net.AddNode("a");
  const NetNodeId b = net.AddNode("b");
  net.AddBidirectionalLink(a, b, DataRate::Mbps(100.0));
  sim_.RecordFiredEvents(SimTime::Zero(), SimTime::Max());
  ASSERT_TRUE(net.StartFlow(a, b, DataSize::Megabytes(1.0), DataRate::Zero(),
                            nullptr)
                  .ok());
  ASSERT_TRUE(
      net.StartFlow(a, b, DataSize::Zero(), DataRate::Zero(), nullptr).ok());
  ASSERT_TRUE(net.StartFlow(a, a, DataSize::Megabytes(1.0), DataRate::Zero(),
                            nullptr)
                  .ok());
  ASSERT_TRUE(net.SendMessage(a, b, DataSize::Megabytes(1.0), nullptr).ok());
  sim_.Run();
  ASSERT_EQ(sim_.fired_events().size(), 5u);
  for (const Simulator::FiredEvent& event : sim_.fired_events()) {
    EXPECT_EQ(event.label.rfind("net.", 0), 0u) << event.label;
    // Short enough for the SSO buffer: recording the label never allocates.
    EXPECT_LE(event.label.size(), std::string().capacity()) << event.label;
  }
}

}  // namespace
}  // namespace soccluster

#include "src/net/network.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace soccluster

// Property tests for the fluid network: on random topologies with random
// flow workloads, (1) every link's allocation stays within capacity,
// (2) the allocation is max-min fair (every flow is either at its cap or
// crosses a saturated link), (3) every flow eventually completes, (4) runs
// are deterministic in the seed, and (5) under random churn, loads, flaps
// and brownouts the busy-link filling gives every flow exactly the rate of
// a global progressive-filling reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/net/network.h"

namespace soccluster {
namespace {

struct RandomNet {
  Simulator sim{1};
  std::unique_ptr<Network> net;
  std::vector<NetNodeId> nodes;

  explicit RandomNet(uint64_t seed) {
    Rng rng(seed);
    net = std::make_unique<Network>(&sim, Duration::MicrosF(440.0));
    const int num_nodes = static_cast<int>(rng.UniformInt(4, 10));
    for (int i = 0; i < num_nodes; ++i) {
      nodes.push_back(net->AddNode("n" + std::to_string(i)));
    }
    // A random tree keeps everything connected...
    for (int i = 1; i < num_nodes; ++i) {
      const int parent = static_cast<int>(rng.UniformInt(0, i - 1));
      net->AddBidirectionalLink(nodes[static_cast<size_t>(i)],
                                nodes[static_cast<size_t>(parent)],
                                DataRate::Mbps(rng.Uniform(50.0, 1000.0)));
    }
    // ...plus a few extra edges for path diversity.
    const int extras = static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < extras; ++e) {
      const int a = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
      const int b = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
      if (a != b) {
        net->AddBidirectionalLink(nodes[static_cast<size_t>(a)],
                                  nodes[static_cast<size_t>(b)],
                                  DataRate::Mbps(rng.Uniform(50.0, 1000.0)));
      }
    }
  }
};

// Global progressive filling, as Network::Reallocate ran it before it was
// restricted to busy links: every link is scanned in every round, and flows
// (`caps`, the active flows' rate caps) are visited in FlowId order. A share
// below 1e-9 of its link's capacity counts as zero, as in the library.
std::map<FlowId, double> ReferenceRates(
    const Network& net, const std::map<FlowId, DataRate>& caps) {
  constexpr double kRateEpsilonBps = 1e-6;
  constexpr double kResidueShare = 1e-9;
  struct RefFlow {
    std::vector<LinkId> path;
    double cap = 0.0;
    double rate = 0.0;
    bool frozen = false;
  };
  std::map<FlowId, RefFlow> flows;
  for (const auto& [id, cap] : caps) {
    flows[id] = RefFlow{*net.FlowPath(id), cap.bps()};
  }
  const size_t num_links = static_cast<size_t>(net.num_links());
  std::vector<double> available(num_links);
  std::vector<int> unfrozen(num_links, 0);
  for (size_t l = 0; l < num_links; ++l) {
    const LinkId link = static_cast<LinkId>(l);
    available[l] =
        net.LinkIsUp(link)
            ? std::max(0.0, net.LinkCapacity(link).bps() *
                                    net.LinkCapacityFactor(link) -
                                net.LinkConstantLoad(link).bps())
            : 0.0;
  }
  for (const auto& [id, flow] : flows) {
    for (LinkId link : flow.path) {
      ++unfrozen[static_cast<size_t>(link)];
    }
  }
  const auto share = [&](size_t l) {
    const double fair = available[l] / unfrozen[l];
    return fair < net.LinkCapacity(static_cast<LinkId>(l)).bps() * kResidueShare
               ? 0.0
               : fair;
  };
  size_t remaining = flows.size();
  const auto freeze = [&](RefFlow& flow, double rate) {
    flow.rate = rate;
    flow.frozen = true;
    --remaining;
    for (LinkId link : flow.path) {
      const size_t l = static_cast<size_t>(link);
      available[l] = std::max(0.0, available[l] - rate);
      --unfrozen[l];
    }
  };
  while (remaining > 0) {
    double bottleneck = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < num_links; ++l) {
      if (unfrozen[l] > 0) {
        bottleneck = std::min(bottleneck, share(l));
      }
    }
    bool froze_capped = false;
    for (auto& [id, flow] : flows) {
      if (!flow.frozen && flow.cap > 0.0 &&
          flow.cap <= bottleneck + kRateEpsilonBps) {
        freeze(flow, flow.cap);
        froze_capped = true;
      }
    }
    if (froze_capped) {
      continue;
    }
    for (auto& [id, flow] : flows) {
      if (flow.frozen) {
        continue;
      }
      for (LinkId link : flow.path) {
        const size_t l = static_cast<size_t>(link);
        if (unfrozen[l] > 0 && share(l) <= bottleneck + kRateEpsilonBps) {
          freeze(flow, bottleneck);
          break;
        }
      }
    }
  }
  std::map<FlowId, double> rates;
  for (const auto& [id, flow] : flows) {
    rates[id] = flow.rate;
  }
  return rates;
}

class NetworkProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetworkProperty, CapacityNeverExceeded) {
  RandomNet fixture(GetParam());
  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<FlowId> flows;
  const int num_flows = static_cast<int>(rng.UniformInt(5, 25));
  for (int f = 0; f < num_flows; ++f) {
    const size_t src = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
    const size_t dst = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
    const DataRate cap = rng.Bernoulli(0.3)
                             ? DataRate::Mbps(rng.Uniform(1.0, 200.0))
                             : DataRate::Zero();
    auto flow = fixture.net->StartFlow(
        fixture.nodes[src], fixture.nodes[dst],
        DataSize::Megabytes(rng.Uniform(0.1, 50.0)), cap, nullptr);
    ASSERT_TRUE(flow.ok());
    flows.push_back(*flow);
  }
  for (LinkId link = 0; link < fixture.net->num_links(); ++link) {
    EXPECT_LE(fixture.net->LinkOfferedRate(link).bps(),
              fixture.net->LinkCapacity(link).bps() * (1.0 + 1e-6))
        << "link " << link;
  }
}

TEST_P(NetworkProperty, AllocationIsMaxMinFair) {
  RandomNet fixture(GetParam());
  Rng rng(GetParam() ^ 0x123456);
  std::vector<FlowId> flows;
  std::map<FlowId, DataRate> caps;
  for (int f = 0; f < 15; ++f) {
    const size_t src = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
    const size_t dst = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
    if (src == dst) {
      continue;
    }
    const DataRate cap = rng.Bernoulli(0.3)
                             ? DataRate::Mbps(rng.Uniform(1.0, 100.0))
                             : DataRate::Zero();
    auto flow = fixture.net->StartFlow(fixture.nodes[src], fixture.nodes[dst],
                                       DataSize::Megabytes(1000.0), cap,
                                       nullptr);
    ASSERT_TRUE(flow.ok());
    flows.push_back(*flow);
    caps[*flow] = cap;
  }
  // Max-min: every flow is either at its own cap or crosses a saturated
  // link on its OWN path.
  for (FlowId flow : flows) {
    const DataRate rate = *fixture.net->FlowRate(flow);
    const DataRate cap = caps[flow];
    if (cap.bps() > 0.0 && rate.bps() >= cap.bps() * (1.0 - 1e-6)) {
      continue;  // Application-limited.
    }
    auto path = fixture.net->FlowPath(flow);
    ASSERT_TRUE(path.ok());
    bool bottlenecked = false;
    for (LinkId link : *path) {
      const double residual = fixture.net->LinkCapacity(link).bps() -
                              fixture.net->LinkOfferedRate(link).bps();
      if (residual <= fixture.net->LinkCapacity(link).bps() * 1e-6) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked)
        << "flow " << flow << " is below its cap with path headroom";
  }
}

TEST_P(NetworkProperty, EveryFlowCompletes) {
  RandomNet fixture(GetParam());
  Rng rng(GetParam() ^ 0x777);
  int completed = 0;
  int started = 0;
  for (int f = 0; f < 20; ++f) {
    const size_t src = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
    const size_t dst = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
    auto flow = fixture.net->StartFlow(
        fixture.nodes[src], fixture.nodes[dst],
        DataSize::Megabytes(rng.Uniform(0.01, 20.0)), DataRate::Zero(),
        [&completed] { ++completed; });
    ASSERT_TRUE(flow.ok());
    ++started;
  }
  fixture.sim.Run();
  EXPECT_EQ(completed, started);
  EXPECT_EQ(fixture.net->num_active_flows(), 0);
}

TEST_P(NetworkProperty, DeterministicInSeed) {
  auto run = [](uint64_t seed) {
    RandomNet fixture(seed);
    Rng rng(seed ^ 0x999);
    std::vector<double> completion_times;
    for (int f = 0; f < 10; ++f) {
      const size_t src = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
      const size_t dst = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(fixture.nodes.size()) - 1));
      auto flow = fixture.net->StartFlow(
          fixture.nodes[src], fixture.nodes[dst],
          DataSize::Megabytes(rng.Uniform(0.1, 5.0)), DataRate::Zero(),
          [&completion_times, &fixture] {
            completion_times.push_back(fixture.sim.Now().ToSeconds());
          });
      EXPECT_TRUE(flow.ok());
    }
    fixture.sim.Run();
    return completion_times;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

TEST_P(NetworkProperty, BusyLinkFillingMatchesGlobalReference) {
  Rng rng(GetParam() ^ 0x5eed);
  Simulator sim(1);
  Network net(&sim, Duration::MicrosF(440.0));
  std::vector<NetNodeId> nodes;
  const int num_nodes = static_cast<int>(rng.UniformInt(4, 10));
  for (int i = 0; i < num_nodes; ++i) {
    nodes.push_back(net.AddNode("n" + std::to_string(i)));
  }
  // A random tree plus a few extra edges; some links are 20 Gbps ESB-class
  // links, where nine 20/9 Gbps loads leave a rounding residue.
  std::vector<std::pair<NetNodeId, NetNodeId>> fast_tree_links;
  const auto random_node = [&] {
    return nodes[static_cast<size_t>(rng.UniformInt(0, num_nodes - 1))];
  };
  for (int i = 1; i < num_nodes; ++i) {
    const NetNodeId a = nodes[static_cast<size_t>(i)];
    const NetNodeId b = nodes[static_cast<size_t>(rng.UniformInt(0, i - 1))];
    if (rng.Bernoulli(0.3)) {
      net.AddBidirectionalLink(a, b, DataRate::Gbps(20.0));
      fast_tree_links.emplace_back(a, b);
    } else {
      net.AddBidirectionalLink(a, b, DataRate::Mbps(rng.Uniform(50.0, 1000.0)));
    }
  }
  const int extras = static_cast<int>(rng.UniformInt(0, 3));
  for (int e = 0; e < extras; ++e) {
    const NetNodeId a = random_node();
    const NetNodeId b = random_node();
    if (a != b) {
      net.AddBidirectionalLink(a, b, DataRate::Mbps(rng.Uniform(50.0, 1000.0)));
    }
  }
  const auto random_link = [&] {
    return static_cast<LinkId>(rng.UniformInt(0, net.num_links() - 1));
  };

  std::map<FlowId, DataRate> caps;  // Flows started and not yet finished.
  std::vector<int64_t> loads;
  for (int op = 0; op < 400; ++op) {
    switch (rng.UniformInt(0, 6)) {
      case 0:
      case 1: {
        DataRate cap = DataRate::Zero();
        if (rng.Bernoulli(0.3)) {
          cap = rng.Bernoulli(0.5) ? DataRate::Gbps(20.0 / 9.0)
                                   : DataRate::Mbps(rng.Uniform(1.0, 300.0));
        }
        auto flow = net.StartFlow(random_node(), random_node(),
                                  DataSize::Megabytes(rng.Uniform(0.01, 5.0)),
                                  cap, nullptr);
        ASSERT_TRUE(flow.ok());
        caps[*flow] = cap;
        break;
      }
      case 2: {
        // Either one random load, or nine 20/9 Gbps loads between the ends
        // of a 20 Gbps tree link (the only route between them).
        const bool fill = !fast_tree_links.empty() && rng.Bernoulli(0.3);
        const auto [src, dst] =
            fill ? fast_tree_links[static_cast<size_t>(rng.UniformInt(
                       0, static_cast<int64_t>(fast_tree_links.size()) - 1))]
                 : std::make_pair(random_node(), random_node());
        for (int i = 0; i < (fill ? 9 : 1); ++i) {
          auto load = net.AddConstantLoad(
              src, dst,
              fill ? DataRate::Gbps(20.0 / 9.0)
                   : DataRate::Mbps(rng.Uniform(1.0, 300.0)));
          ASSERT_TRUE(load.ok());
          loads.push_back(*load);
        }
        break;
      }
      case 3:
        if (!loads.empty()) {
          const size_t i = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(loads.size()) - 1));
          ASSERT_TRUE(net.RemoveConstantLoad(loads[i]).ok());
          loads.erase(loads.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 4: {
        const LinkId link = random_link();
        net.SetLinkUp(link, !net.LinkIsUp(link));
        break;
      }
      case 5:
        net.SetLinkDegradation(random_link(), rng.Bernoulli(0.4)
                                                  ? 1.0
                                                  : rng.Uniform(0.05, 1.0));
        break;
      default:
        ASSERT_TRUE(
            sim.RunFor(Duration::MillisF(rng.Uniform(0.0, 200.0))).ok());
        break;
    }
    // Local, empty and completed flows have left the network.
    std::erase_if(caps, [&net](const auto& entry) {
      return !net.FlowRate(entry.first).ok();
    });
    ASSERT_EQ(static_cast<int>(caps.size()), net.num_active_flows());
    const std::map<FlowId, double> expected = ReferenceRates(net, caps);
    for (const auto& [id, rate] : expected) {
      ASSERT_EQ(net.FlowRate(id)->bps(), rate)
          << "flow " << id << " after operation " << op;
    }
  }
  // With every fault and load gone, every flow finishes.
  for (LinkId link = 0; link < net.num_links(); ++link) {
    net.SetLinkUp(link, true);
    net.SetLinkDegradation(link, 1.0);
  }
  for (int64_t load : loads) {
    ASSERT_TRUE(net.RemoveConstantLoad(load).ok());
  }
  sim.Run();
  EXPECT_EQ(net.num_active_flows(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace soccluster

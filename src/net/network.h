// Fluid-flow network model with max-min fair bandwidth sharing.
//
// Nodes are connected by directed links with fixed capacity. Bulk transfers
// ("flows") receive max-min fair rates, recomputed on every flow arrival and
// departure (progressive filling with per-flow rate caps, which models both
// TCP sharing and application-limited senders). Constant-rate loads (live
// video streams, gaming sessions) occupy capacity without adapting.
//
// A recompute costs the links and path entries of the active flows only:
// idle links are never visited, the filling runs in member scratch buffers,
// and a flow's finish is re-projected only when its rate changes (bits are
// accounted lazily, at each rate change). A fair share below a tiny
// fraction of its link's capacity is floating-point residue, not
// bandwidth, and counts as zero: the flow stalls as on a down link.
//
// The network keeps one pending engine event, its wake, at the earliest
// projected finish over its active flows, not one event per flow. Each
// projection takes a fresh per-network stamp, and flows finishing at the
// same instant complete in stamp (projection) order, one per wake: that
// order is pinned, the way an anchor group pins order, so tie-break
// perturbation cannot reorder equal-instant completions. The wake is
// rescheduled only when the earliest (instant, stamp) pair changes
// (`net.wakes_scheduled` counts each scheduling). Every event the network
// schedules is labeled `net.*`.
//
// This reproduces TCP behaviour at the >=100 ms timescales the paper
// measures, and is exact for the bulk-transfer phases of collaborative
// inference (§5.3).

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/callback.h"
#include "src/base/result.h"
#include "src/base/units.h"
#include "src/sim/simulator.h"

namespace soccluster {

using NetNodeId = int;
using LinkId = int;
using FlowId = int64_t;

class Network {
 public:
  // `rtt` is the base round-trip time between any two nodes (the cluster
  // fabric measures ~0.44 ms SoC-to-SoC, §2.3).
  Network(Simulator* sim, Duration rtt);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Topology (build once, before starting traffic) ---
  NetNodeId AddNode(std::string name);
  // Adds a pair of directed links (one per direction), each with `capacity`.
  // Returns the id of the forward link; the reverse link is id+1.
  LinkId AddBidirectionalLink(NetNodeId a, NetNodeId b, DataRate capacity);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }
  Duration rtt() const { return rtt_; }
  const std::string& node_name(NetNodeId node) const;

  // --- Bulk flows (max-min fair) ---
  // Starts a transfer of `size` from src to dst. `rate_cap` bounds the
  // flow's rate (use DataRate::Zero() for uncapped). `on_complete` fires
  // when the last byte is delivered. Fails if no route exists.
  Result<FlowId> StartFlow(NetNodeId src, NetNodeId dst, DataSize size,
                           DataRate rate_cap, InlineCallback on_complete);
  // Current fair-share rate of an active flow.
  Result<DataRate> FlowRate(FlowId flow) const;
  // The links an active flow traverses (in order).
  Result<std::vector<LinkId>> FlowPath(FlowId flow) const;
  int num_active_flows() const { return static_cast<int>(flows_.size()); }

  // Convenience: a request/response-style message — one RTT of latency plus
  // the bulk transfer time. The route is resolved now (kInvalidArgument for
  // an unknown node, kNotFound when no route exists, and nothing is
  // scheduled); the flow starts one RTT later.
  Status SendMessage(NetNodeId src, NetNodeId dst, DataSize size,
                     InlineCallback on_complete);

  // --- Constant-rate loads (non-adaptive traffic) ---
  // Reserves `rate` along the path; reduces capacity seen by flows. The
  // load may oversubscribe a link (the model records utilization > 100%
  // rather than failing, matching the paper's Table 3 analysis).
  Result<int64_t> AddConstantLoad(NetNodeId src, NetNodeId dst, DataRate rate);
  Status RemoveConstantLoad(int64_t load_id);

  // --- Link state (fault injection) ---
  // Takes one directed link down or back up. While down the link carries
  // nothing: bulk flows crossing it stall at rate zero (they resume, with
  // no bytes lost, when the link returns) and constant-rate loads are
  // interrupted. Routing is unaffected — the fabric has a single path per
  // pair, so a downed uplink partitions its subtree, which is exactly the
  // ESB/PCB flap behaviour the resilience layer injects.
  void SetLinkUp(LinkId link, bool up);
  bool LinkIsUp(LinkId link) const;

  // Gray degradation: scales one directed link's usable capacity by
  // `factor` in (0, 1] without taking it down (brownout — a renegotiated
  // PHY rate or an overheating switch port). Flows re-share the reduced
  // capacity immediately; 1.0 restores full rate. Orthogonal to up/down:
  // a degraded link that flaps down and back up stays degraded.
  void SetLinkDegradation(LinkId link, double factor);
  double LinkCapacityFactor(LinkId link) const;

  // --- Introspection ---
  // Instantaneous offered rate on a link (flows + constant loads).
  DataRate LinkOfferedRate(LinkId link) const;
  DataRate LinkCapacity(LinkId link) const;
  // Sum of the constant-rate loads crossing a link.
  DataRate LinkConstantLoad(LinkId link) const;
  // Offered / capacity; may exceed 1.0 under constant-load oversubscription.
  double LinkUtilization(LinkId link) const;

  // Measured-goodput model: effective bulk rate cap for a protocol over a
  // raw link rate (§2.3: TCP reaches ~903 Mbps over 1GE).
  static DataRate TcpGoodput(DataRate raw) { return raw * 0.903; }
  static DataRate UdpGoodput(DataRate raw) { return raw * 0.895; }

 private:
  using Path = std::vector<LinkId>;

  struct LinkState {
    NetNodeId from = 0;
    NetNodeId to = 0;
    DataRate capacity;
    DataRate constant_load;
    bool up = true;
    // Usable fraction of `capacity` in (0, 1]; < 1.0 models brownout.
    double capacity_factor = 1.0;
  };
  struct FlowState {
    FlowId id = 0;
    const Path* path = nullptr;  // Owned by route_cache_.
    // Bits left as of `last_update`; advanced only when the rate changes.
    double bits_remaining = 0.0;
    DataRate rate;
    DataRate cap;
    SimTime start;
    SimTime last_update;
    // Projected completion at the current rate (SimTime::Max() while
    // stalled) and the stamp taken when it was projected; the earliest
    // (finish, stamp) pair over the active flows holds the wake.
    SimTime finish = SimTime::Max();
    uint64_t stamp = 0;
    InlineCallback on_complete;
    SpanId span = 0;  // Async "flow" span (category "net"), id = flow id.
    // Progressive-filling scratch (Reallocate).
    double fill_bps = 0.0;
    bool frozen = false;
  };
  struct ConstantLoad {
    const Path* path = nullptr;  // Owned by route_cache_.
    DataRate rate;
  };

  // BFS over links; cached per (src, dst). The returned path lives as long
  // as the network.
  Result<const Path*> Route(NetNodeId src, NetNodeId dst);
  // The active flow `id`, or nullptr.
  FlowState* FindFlow(FlowId id);
  const FlowState* FindFlow(FlowId id) const;
  // Recomputes max-min fair rates over the links the active flows cross;
  // a flow whose rate changed has its bits advanced to now and its finish
  // re-projected, and the wake moves if the earliest finish changed.
  void Reallocate();
  void CompleteFlow(FlowId flow);

  Simulator* sim_;
  Duration rtt_;
  std::vector<std::string> nodes_;
  std::vector<LinkState> links_;
  std::vector<std::vector<LinkId>> out_links_;  // Per node.
  std::vector<FlowState> flows_;  // Active flows, ascending FlowId.
  std::map<int64_t, ConstantLoad> constant_loads_;
  // Node-based, so the paths flows and loads point at never move.
  std::map<std::pair<NetNodeId, NetNodeId>, Path> route_cache_;
  FlowId next_flow_id_ = 1;
  int64_t next_load_id_ = 1;
  // The one pending completion event, scheduled at the finish of the flow
  // whose projection took `wake_stamp_` (0: no wake pending).
  EventHandle wake_;
  uint64_t wake_stamp_ = 0;
  uint64_t next_stamp_ = 1;
  // Reallocate scratch, indexed by LinkId and sized on first use: each busy
  // link's capacity left for unfrozen flows and their count, and the busy
  // links themselves. Every count is back at zero between calls.
  std::vector<double> available_;
  std::vector<int> unfrozen_;
  std::vector<LinkId> busy_links_;
  // Flow lifecycle published to the registry ("net.*").
  Counter* flows_started_;
  Counter* flows_completed_;
  HistogramMetric* flow_duration_ms_;
  HistogramMetric* flow_mbits_;
  // Link and path entries visited by Reallocate ("net.fill_visits") and
  // wakes scheduled ("net.wakes_scheduled"); registered on first use, so
  // building a network costs what it did.
  Counter* fill_visits_ = nullptr;
  Counter* wakes_scheduled_ = nullptr;
};

}  // namespace soccluster

#endif  // SRC_NET_NETWORK_H_

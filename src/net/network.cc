#include "src/net/network.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "src/base/check.h"

namespace soccluster {

namespace {
// Rates below this are treated as zero when freezing allocations.
constexpr double kRateEpsilonBps = 1e-6;
}  // namespace

Network::Network(Simulator* sim, Duration rtt) : sim_(sim), rtt_(rtt) {
  SOC_CHECK(sim_ != nullptr);
  MetricRegistry& metrics = sim_->metrics();
  flows_started_ = metrics.GetCounter("net.flows_started");
  flows_completed_ = metrics.GetCounter("net.flows_completed");
  flow_duration_ms_ = metrics.GetHistogram("net.flow_duration_ms");
  flow_mbits_ = metrics.GetHistogram("net.flow_mbits");
}

NetNodeId Network::AddNode(std::string name) {
  nodes_.push_back(std::move(name));
  out_links_.emplace_back();
  return static_cast<NetNodeId>(nodes_.size()) - 1;
}

LinkId Network::AddBidirectionalLink(NetNodeId a, NetNodeId b,
                                     DataRate capacity) {
  SOC_CHECK_GE(a, 0);
  SOC_CHECK_LT(a, num_nodes());
  SOC_CHECK_GE(b, 0);
  SOC_CHECK_LT(b, num_nodes());
  SOC_CHECK(flows_.empty() && constant_loads_.empty())
      << "topology must be built before traffic starts";
  const LinkId forward = static_cast<LinkId>(links_.size());
  links_.push_back(LinkState{a, b, capacity, DataRate::Zero(), true, {}});
  links_.push_back(LinkState{b, a, capacity, DataRate::Zero(), true, {}});
  out_links_[static_cast<size_t>(a)].push_back(forward);
  out_links_[static_cast<size_t>(b)].push_back(forward + 1);
  return forward;
}

const std::string& Network::node_name(NetNodeId node) const {
  SOC_CHECK_GE(node, 0);
  SOC_CHECK_LT(node, num_nodes());
  return nodes_[static_cast<size_t>(node)];
}

Result<std::vector<LinkId>> Network::Route(NetNodeId src, NetNodeId dst) {
  if (src < 0 || src >= num_nodes() || dst < 0 || dst >= num_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  if (src == dst) {
    return std::vector<LinkId>{};
  }
  const auto key = std::make_pair(src, dst);
  const auto cached = route_cache_.find(key);
  if (cached != route_cache_.end()) {
    return cached->second;
  }
  // BFS for the hop-shortest path.
  std::vector<LinkId> via(static_cast<size_t>(num_nodes()), -1);
  std::vector<bool> seen(static_cast<size_t>(num_nodes()), false);
  std::deque<NetNodeId> frontier{src};
  seen[static_cast<size_t>(src)] = true;
  while (!frontier.empty()) {
    const NetNodeId node = frontier.front();
    frontier.pop_front();
    if (node == dst) {
      break;
    }
    for (LinkId link : out_links_[static_cast<size_t>(node)]) {
      const NetNodeId next = links_[static_cast<size_t>(link)].to;
      if (!seen[static_cast<size_t>(next)]) {
        seen[static_cast<size_t>(next)] = true;
        via[static_cast<size_t>(next)] = link;
        frontier.push_back(next);
      }
    }
  }
  if (!seen[static_cast<size_t>(dst)]) {
    return Status::NotFound("no route from " + node_name(src) + " to " +
                            node_name(dst));
  }
  std::vector<LinkId> path;
  for (NetNodeId node = dst; node != src;) {
    const LinkId link = via[static_cast<size_t>(node)];
    path.push_back(link);
    node = links_[static_cast<size_t>(link)].from;
  }
  std::reverse(path.begin(), path.end());
  route_cache_[key] = path;
  return path;
}

Result<FlowId> Network::StartFlow(NetNodeId src, NetNodeId dst, DataSize size,
                                  DataRate rate_cap,
                                  std::function<void()> on_complete) {
  Result<std::vector<LinkId>> path = Route(src, dst);
  if (!path.ok()) {
    return path.status();
  }
  const FlowId id = next_flow_id_++;
  FlowState flow;
  flow.path = std::move(path.value());
  flow.bits_remaining = static_cast<double>(size.bits());
  flow.cap = rate_cap;
  flow.start = sim_->Now();
  flow.last_update = sim_->Now();
  flow.on_complete = std::move(on_complete);
  flows_started_->Increment();
  flow_mbits_->Observe(static_cast<double>(size.bits()) * 1e-6);
  Tracer& tracer = sim_->tracer();
  flow.span =
      tracer.BeginAsyncSpan("flow", "net", static_cast<uint64_t>(id));
  tracer.AddArg(flow.span, "src", node_name(src));
  tracer.AddArg(flow.span, "dst", node_name(dst));
  tracer.AddArg(flow.span, "mbits",
                static_cast<double>(size.bits()) * 1e-6);
  // Local (src == dst) or empty transfers complete immediately.
  if (flow.path.empty() || flow.bits_remaining <= 0.0) {
    auto cb = std::move(flow.on_complete);
    const SpanId span = flow.span;
    sim_->ScheduleAfter(Duration::Zero(), [this, cb = std::move(cb), span] {
      flows_completed_->Increment();
      flow_duration_ms_->Observe(0.0);
      sim_->tracer().EndSpan(span);
      if (cb) {
        cb();
      }
    });
    return id;
  }
  for (LinkId link : flow.path) {
    links_[static_cast<size_t>(link)].active_flows.push_back(id);
  }
  flows_.emplace(id, std::move(flow));
  Reallocate();
  return id;
}

Status Network::SendMessage(NetNodeId src, NetNodeId dst, DataSize size,
                            std::function<void()> on_complete) {
  if (Result<std::vector<LinkId>> path = Route(src, dst); !path.ok()) {
    return path.status();
  }
  // One RTT of handshake/latency, then the bulk transfer.
  auto deferred = [this, src, dst, size, cb = std::move(on_complete)]() mutable {
    Result<FlowId> flow = StartFlow(src, dst, size, DataRate::Zero(),
                                    std::move(cb));
    SOC_CHECK(flow.ok()) << flow.status().ToString();
  };
  sim_->ScheduleAfter(src == dst ? Duration::Zero() : rtt_,
                      std::move(deferred));
  return Status::Ok();
}

Result<DataRate> Network::FlowRate(FlowId flow) const {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) {
    return Status::NotFound("no such flow");
  }
  return it->second.rate;
}

Result<std::vector<LinkId>> Network::FlowPath(FlowId flow) const {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) {
    return Status::NotFound("no such flow");
  }
  return it->second.path;
}

Result<int64_t> Network::AddConstantLoad(NetNodeId src, NetNodeId dst,
                                         DataRate rate) {
  if (rate.bps() < 0.0) {
    return Status::InvalidArgument("negative load");
  }
  Result<std::vector<LinkId>> path = Route(src, dst);
  if (!path.ok()) {
    return path.status();
  }
  const int64_t id = next_load_id_++;
  for (LinkId link : path.value()) {
    links_[static_cast<size_t>(link)].constant_load += rate;
  }
  constant_loads_.emplace(id, ConstantLoad{std::move(path.value()), rate});
  Reallocate();
  return id;
}

Status Network::RemoveConstantLoad(int64_t load_id) {
  const auto it = constant_loads_.find(load_id);
  if (it == constant_loads_.end()) {
    return Status::NotFound("no such constant load");
  }
  for (LinkId link : it->second.path) {
    auto& load = links_[static_cast<size_t>(link)].constant_load;
    load = DataRate::Bps(std::max(0.0, load.bps() - it->second.rate.bps()));
  }
  constant_loads_.erase(it);
  Reallocate();
  return Status::Ok();
}

void Network::SetLinkUp(LinkId link, bool up) {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  LinkState& state = links_[static_cast<size_t>(link)];
  if (state.up == up) {
    return;
  }
  state.up = up;
  Reallocate();
}

bool Network::LinkIsUp(LinkId link) const {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  return links_[static_cast<size_t>(link)].up;
}

void Network::SetLinkDegradation(LinkId link, double factor) {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  SOC_CHECK_GT(factor, 0.0);
  SOC_CHECK_LE(factor, 1.0);
  LinkState& state = links_[static_cast<size_t>(link)];
  if (state.capacity_factor == factor) {
    return;
  }
  state.capacity_factor = factor;
  Reallocate();
}

double Network::LinkCapacityFactor(LinkId link) const {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  return links_[static_cast<size_t>(link)].capacity_factor;
}

DataRate Network::LinkOfferedRate(LinkId link) const {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  const LinkState& state = links_[static_cast<size_t>(link)];
  DataRate offered = state.constant_load;
  for (FlowId flow : state.active_flows) {
    offered += flows_.at(flow).rate;
  }
  return offered;
}

DataRate Network::LinkCapacity(LinkId link) const {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  return links_[static_cast<size_t>(link)].capacity;
}

double Network::LinkUtilization(LinkId link) const {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  const LinkState& state = links_[static_cast<size_t>(link)];
  const double effective_bps = state.capacity.bps() * state.capacity_factor;
  if (effective_bps <= 0.0 || !state.up) {
    return 0.0;
  }
  return LinkOfferedRate(link).bps() / effective_bps;
}

void Network::Reallocate() {
  const SimTime now = sim_->Now();
  // 1. Account bytes moved at the old rates and cancel completions.
  for (auto& [id, flow] : flows_) {
    flow.bits_remaining -= flow.rate.bps() * (now - flow.last_update).ToSeconds();
    if (flow.bits_remaining < 0.0) {
      flow.bits_remaining = 0.0;
    }
    flow.last_update = now;
    sim_->Cancel(flow.completion);
    flow.completion = EventHandle();
  }

  // 2. Progressive filling with per-flow caps.
  std::map<FlowId, bool> frozen;
  for (const auto& [id, flow] : flows_) {
    frozen[id] = false;
    (void)flow;
  }
  std::vector<double> available(links_.size());
  std::vector<int> unfrozen_count(links_.size(), 0);
  for (size_t l = 0; l < links_.size(); ++l) {
    available[l] =
        links_[l].up
            ? std::max(0.0, links_[l].capacity.bps() * links_[l].capacity_factor -
                                links_[l].constant_load.bps())
            : 0.0;
    unfrozen_count[l] = static_cast<int>(links_[l].active_flows.size());
  }
  int remaining = static_cast<int>(flows_.size());
  while (remaining > 0) {
    // Smallest per-link fair share among links carrying unfrozen flows.
    double bottleneck = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < links_.size(); ++l) {
      if (unfrozen_count[l] > 0) {
        bottleneck =
            std::min(bottleneck, available[l] / unfrozen_count[l]);
      }
    }
    SOC_CHECK(bottleneck < std::numeric_limits<double>::infinity());
    // Cap-limited flows below the bottleneck share freeze at their cap.
    bool froze_capped = false;
    for (auto& [id, flow] : flows_) {
      if (frozen[id]) {
        continue;
      }
      const double cap = flow.cap.bps();
      if (cap > 0.0 && cap <= bottleneck + kRateEpsilonBps) {
        flow.rate = flow.cap;
        frozen[id] = true;
        --remaining;
        froze_capped = true;
        for (LinkId link : flow.path) {
          available[static_cast<size_t>(link)] =
              std::max(0.0, available[static_cast<size_t>(link)] - cap);
          --unfrozen_count[static_cast<size_t>(link)];
        }
      }
    }
    if (froze_capped) {
      continue;  // Shares changed; recompute the bottleneck.
    }
    // Freeze every unfrozen flow that crosses a bottleneck link.
    for (auto& [id, flow] : flows_) {
      if (frozen[id]) {
        continue;
      }
      bool at_bottleneck = false;
      for (LinkId link : flow.path) {
        const size_t l = static_cast<size_t>(link);
        if (unfrozen_count[l] > 0 &&
            available[l] / unfrozen_count[l] <=
                bottleneck + kRateEpsilonBps) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) {
        continue;
      }
      flow.rate = DataRate::Bps(bottleneck);
      frozen[id] = true;
      --remaining;
      for (LinkId link : flow.path) {
        available[static_cast<size_t>(link)] = std::max(
            0.0, available[static_cast<size_t>(link)] - bottleneck);
        --unfrozen_count[static_cast<size_t>(link)];
      }
    }
  }

  // 3. Schedule completions at the new rates.
  for (auto& [id, flow] : flows_) {
    if (flow.bits_remaining <= 0.0) {
      const FlowId fid = id;
      flow.completion = sim_->ScheduleAfter(
          Duration::Zero(), [this, fid] { CompleteFlow(fid); });
      continue;
    }
    if (flow.rate.bps() <= kRateEpsilonBps) {
      continue;  // Stalled; will be rescheduled when capacity frees up.
    }
    const Duration eta =
        Duration::SecondsF(flow.bits_remaining / flow.rate.bps());
    const FlowId fid = id;
    flow.completion =
        sim_->ScheduleAfter(eta, [this, fid] { CompleteFlow(fid); });
  }
}

void Network::CompleteFlow(FlowId flow_id) {
  const auto it = flows_.find(flow_id);
  if (it == flows_.end()) {
    return;
  }
  std::function<void()> callback = std::move(it->second.on_complete);
  flows_completed_->Increment();
  flow_duration_ms_->Observe((sim_->Now() - it->second.start).ToMillis());
  sim_->tracer().EndSpan(it->second.span);
  for (LinkId link : it->second.path) {
    auto& active = links_[static_cast<size_t>(link)].active_flows;
    active.erase(std::remove(active.begin(), active.end(), flow_id),
                 active.end());
  }
  flows_.erase(it);
  Reallocate();
  if (callback) {
    callback();
  }
}

}  // namespace soccluster

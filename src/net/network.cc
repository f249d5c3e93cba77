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
// A fair share below this fraction of its link's capacity is rounding
// residue (nine 20/9 Gbps loads leave ~4e-6 bps of a 20 Gbps link), not
// bandwidth: it counts as zero, so the flow stalls instead of receiving a
// rate whose completion time overflows the clock.
constexpr double kResidueShare = 1e-9;
// Event labels; at most 15 characters, so copies stay in the SSO buffer.
constexpr char kFlowDoneLabel[] = "net.flow.done";
constexpr char kMessageStartLabel[] = "net.msg.start";
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
  links_.push_back(LinkState{a, b, capacity, DataRate::Zero()});
  links_.push_back(LinkState{b, a, capacity, DataRate::Zero()});
  out_links_[static_cast<size_t>(a)].push_back(forward);
  out_links_[static_cast<size_t>(b)].push_back(forward + 1);
  return forward;
}

const std::string& Network::node_name(NetNodeId node) const {
  SOC_CHECK_GE(node, 0);
  SOC_CHECK_LT(node, num_nodes());
  return nodes_[static_cast<size_t>(node)];
}

Result<const Network::Path*> Network::Route(NetNodeId src, NetNodeId dst) {
  if (src < 0 || src >= num_nodes() || dst < 0 || dst >= num_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  const auto key = std::make_pair(src, dst);
  const auto cached = route_cache_.find(key);
  if (cached != route_cache_.end()) {
    return &cached->second;
  }
  // BFS for the hop-shortest path (empty when src == dst).
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
  Path path;
  for (NetNodeId node = dst; node != src;) {
    const LinkId link = via[static_cast<size_t>(node)];
    path.push_back(link);
    node = links_[static_cast<size_t>(link)].from;
  }
  std::reverse(path.begin(), path.end());
  return &route_cache_.emplace(key, std::move(path)).first->second;
}

Network::FlowState* Network::FindFlow(FlowId id) {
  return const_cast<FlowState*>(std::as_const(*this).FindFlow(id));
}

const Network::FlowState* Network::FindFlow(FlowId id) const {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const FlowState& flow, FlowId key) { return flow.id < key; });
  return it != flows_.end() && it->id == id ? &*it : nullptr;
}

Result<FlowId> Network::StartFlow(NetNodeId src, NetNodeId dst, DataSize size,
                                  DataRate rate_cap,
                                  InlineCallback on_complete) {
  Result<const Path*> path = Route(src, dst);
  if (!path.ok()) {
    return path.status();
  }
  const FlowId id = next_flow_id_++;
  const double bits = static_cast<double>(size.bits());
  flows_started_->Increment();
  flow_mbits_->Observe(bits * 1e-6);
  Tracer& tracer = sim_->tracer();
  const SpanId span =
      tracer.BeginAsyncSpan("flow", "net", static_cast<uint64_t>(id));
  tracer.AddArg(span, "src", node_name(src));
  tracer.AddArg(span, "dst", node_name(dst));
  tracer.AddArg(span, "mbits", bits * 1e-6);
  // Local (src == dst) or empty transfers complete immediately.
  if ((*path)->empty() || bits <= 0.0) {
    sim_->ScheduleAfter(
        Duration::Zero(),
        [this, cb = std::move(on_complete), span]() mutable {
          flows_completed_->Increment();
          flow_duration_ms_->Observe(0.0);
          sim_->tracer().EndSpan(span);
          if (cb) {
            cb();
          }
        },
        kFlowDoneLabel);
    return id;
  }
  FlowState& flow = flows_.emplace_back();
  flow.id = id;
  flow.path = *path;
  flow.bits_remaining = bits;
  flow.cap = rate_cap;
  flow.start = sim_->Now();
  flow.last_update = sim_->Now();
  flow.on_complete = std::move(on_complete);
  flow.span = span;
  Reallocate();
  return id;
}

Status Network::SendMessage(NetNodeId src, NetNodeId dst, DataSize size,
                            InlineCallback on_complete) {
  if (Result<const Path*> path = Route(src, dst); !path.ok()) {
    return path.status();
  }
  // One RTT of handshake/latency, then the bulk transfer.
  sim_->ScheduleAfter(
      src == dst ? Duration::Zero() : rtt_,
      [this, src, dst, size, cb = std::move(on_complete)]() mutable {
        Result<FlowId> flow =
            StartFlow(src, dst, size, DataRate::Zero(), std::move(cb));
        SOC_CHECK(flow.ok()) << flow.status().ToString();
      },
      kMessageStartLabel);
  return Status::Ok();
}

Result<DataRate> Network::FlowRate(FlowId flow) const {
  const FlowState* state = FindFlow(flow);
  if (state == nullptr) {
    return Status::NotFound("no such flow");
  }
  return state->rate;
}

Result<std::vector<LinkId>> Network::FlowPath(FlowId flow) const {
  const FlowState* state = FindFlow(flow);
  if (state == nullptr) {
    return Status::NotFound("no such flow");
  }
  return *state->path;
}

Result<int64_t> Network::AddConstantLoad(NetNodeId src, NetNodeId dst,
                                         DataRate rate) {
  if (rate.bps() < 0.0) {
    return Status::InvalidArgument("negative load");
  }
  Result<const Path*> path = Route(src, dst);
  if (!path.ok()) {
    return path.status();
  }
  const int64_t id = next_load_id_++;
  for (LinkId link : **path) {
    links_[static_cast<size_t>(link)].constant_load += rate;
  }
  constant_loads_.emplace(id, ConstantLoad{*path, rate});
  Reallocate();
  return id;
}

Status Network::RemoveConstantLoad(int64_t load_id) {
  const auto it = constant_loads_.find(load_id);
  if (it == constant_loads_.end()) {
    return Status::NotFound("no such constant load");
  }
  for (LinkId link : *it->second.path) {
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
  DataRate offered = links_[static_cast<size_t>(link)].constant_load;
  for (const FlowState& flow : flows_) {
    if (std::find(flow.path->begin(), flow.path->end(), link) !=
        flow.path->end()) {
      offered += flow.rate;
    }
  }
  return offered;
}

DataRate Network::LinkCapacity(LinkId link) const {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  return links_[static_cast<size_t>(link)].capacity;
}

DataRate Network::LinkConstantLoad(LinkId link) const {
  SOC_CHECK_GE(link, 0);
  SOC_CHECK_LT(link, num_links());
  return links_[static_cast<size_t>(link)].constant_load;
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
  // Link and path entries visited, published as net.fill_visits.
  int64_t visits = 0;
  // The fair share of busy link `l` among its unfrozen flows.
  const auto share = [this](size_t l) {
    const double fair = available_[l] / unfrozen_[l];
    return fair < links_[l].capacity.bps() * kResidueShare ? 0.0 : fair;
  };

  // 1. Collect the busy links with their capacity left for flows.
  if (unfrozen_.size() != links_.size()) {
    available_.resize(links_.size());
    unfrozen_.resize(links_.size(), 0);
  }
  busy_links_.clear();
  for (FlowState& flow : flows_) {
    flow.frozen = false;
    visits += static_cast<int64_t>(flow.path->size());
    for (LinkId link : *flow.path) {
      const size_t l = static_cast<size_t>(link);
      if (unfrozen_[l]++ > 0) {
        continue;
      }
      busy_links_.push_back(link);
      const LinkState& state = links_[l];
      available_[l] =
          state.up ? std::max(0.0, state.capacity.bps() * state.capacity_factor -
                                       state.constant_load.bps())
                   : 0.0;
    }
  }

  // 2. Progressive filling with per-flow caps. Each round freezes every
  // flow held to the smallest fair share; freezing drains its links'
  // counts, so every count is zero again when the loop ends.
  size_t remaining = flows_.size();
  // Freezes `flow` at `rate`, taking it off its links' unfrozen counts.
  const auto freeze = [&](FlowState& flow, double rate) {
    flow.fill_bps = rate;
    flow.frozen = true;
    --remaining;
    visits += static_cast<int64_t>(flow.path->size());
    for (LinkId link : *flow.path) {
      const size_t l = static_cast<size_t>(link);
      available_[l] = std::max(0.0, available_[l] - rate);
      --unfrozen_[l];
    }
  };
  while (remaining > 0) {
    // Smallest per-link fair share among links carrying unfrozen flows;
    // links whose flows are all frozen leave the busy list.
    double bottleneck = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < busy_links_.size();) {
      ++visits;
      const size_t l = static_cast<size_t>(busy_links_[i]);
      if (unfrozen_[l] == 0) {
        busy_links_[i] = busy_links_.back();
        busy_links_.pop_back();
        continue;
      }
      bottleneck = std::min(bottleneck, share(l));
      ++i;
    }
    SOC_CHECK(bottleneck < std::numeric_limits<double>::infinity());
    // Cap-limited flows below the bottleneck share freeze at their cap.
    bool froze_capped = false;
    for (FlowState& flow : flows_) {
      const double cap = flow.cap.bps();
      if (!flow.frozen && cap > 0.0 && cap <= bottleneck + kRateEpsilonBps) {
        freeze(flow, cap);
        froze_capped = true;
      }
    }
    if (froze_capped) {
      continue;  // Shares changed; recompute the bottleneck.
    }
    // Freeze every unfrozen flow that crosses a bottleneck link.
    for (FlowState& flow : flows_) {
      if (flow.frozen) {
        continue;
      }
      for (LinkId link : *flow.path) {
        ++visits;
        const size_t l = static_cast<size_t>(link);
        if (unfrozen_[l] > 0 && share(l) <= bottleneck + kRateEpsilonBps) {
          freeze(flow, bottleneck);
          break;
        }
      }
    }
  }
  if (fill_visits_ == nullptr) {
    fill_visits_ = sim_->metrics().GetCounter("net.fill_visits");
  }
  fill_visits_->Add(visits);

  // 3. A flow whose rate changed has its bits advanced at the old rate and
  // its finish re-projected at the new one under a fresh stamp; the others
  // keep theirs. The same pass finds the earliest (finish, stamp) pair.
  const SimTime now = sim_->Now();
  const FlowState* earliest = nullptr;
  for (FlowState& flow : flows_) {
    if (flow.fill_bps != flow.rate.bps()) {
      flow.bits_remaining -=
          flow.rate.bps() * (now - flow.last_update).ToSeconds();
      if (flow.bits_remaining < 0.0) {
        flow.bits_remaining = 0.0;
      }
      flow.last_update = now;
      flow.rate = DataRate::Bps(flow.fill_bps);
      if (flow.bits_remaining <= 0.0) {
        flow.finish = now;
        flow.stamp = next_stamp_++;
      } else if (flow.rate.bps() <= kRateEpsilonBps) {
        flow.finish = SimTime::Max();  // Stalled until its rate changes.
      } else {
        flow.finish =
            now + Duration::SecondsF(flow.bits_remaining / flow.rate.bps());
        flow.stamp = next_stamp_++;
      }
    }
    if (flow.finish != SimTime::Max() &&
        (earliest == nullptr || flow.finish < earliest->finish ||
         (flow.finish == earliest->finish && flow.stamp < earliest->stamp))) {
      earliest = &flow;
    }
  }

  // 4. Move the wake only if the earliest pair changed. A stamp names one
  // projection, so it stands for the pair.
  const uint64_t stamp = earliest != nullptr ? earliest->stamp : 0;
  if (stamp == wake_stamp_) {
    return;
  }
  sim_->Cancel(wake_);
  wake_ = EventHandle();
  wake_stamp_ = stamp;
  if (earliest == nullptr) {
    return;
  }
  if (wakes_scheduled_ == nullptr) {
    wakes_scheduled_ = sim_->metrics().GetCounter("net.wakes_scheduled");
  }
  wakes_scheduled_->Increment();
  const FlowId id = earliest->id;
  wake_ = sim_->ScheduleAt(
      earliest->finish,
      [this, id] {
        wake_ = EventHandle();
        wake_stamp_ = 0;
        CompleteFlow(id);
      },
      kFlowDoneLabel);
}

void Network::CompleteFlow(FlowId flow_id) {
  FlowState* flow = FindFlow(flow_id);
  SOC_CHECK(flow != nullptr);
  InlineCallback callback = std::move(flow->on_complete);
  flows_completed_->Increment();
  flow_duration_ms_->Observe((sim_->Now() - flow->start).ToMillis());
  sim_->tracer().EndSpan(flow->span);
  flows_.erase(flows_.begin() + (flow - flows_.data()));
  Reallocate();
  if (callback) {
    callback();
  }
}

}  // namespace soccluster

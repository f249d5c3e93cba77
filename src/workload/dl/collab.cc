#include "src/workload/dl/collab.h"

#include <memory>
#include <utility>

#include "src/base/check.h"
#include "src/net/network.h"

namespace soccluster {

namespace {

// Halo activations travel at FP32.
constexpr Precision kPrecision = Precision::kFp32;
// Partitioning overhead: compute(N) = single * (1/N + c*(N-1)/N).
// c = 0.28 reproduces the paper's 80 ms -> 34 ms at N = 5.
constexpr double kPartitionOverhead = 0.28;
// Non-overlappable per-exchange serialization cost (tensor pack/unpack
// plus socket syscalls).
constexpr Duration kSerializeCost = Duration::MillisF(0.18);

// Single-SoC MNN compute latency (§5.3: 80 ms on ResNet-50 — MNN's CPU
// path, distinct from the TFLite serving anchor).
Duration SingleSocCompute(DnnModel model) {
  switch (model) {
    case DnnModel::kResNet50:
      return Duration::MillisF(80.0);  // §5.3 anchor.
    case DnnModel::kResNet152:
      return Duration::MillisF(258.0);
    case DnnModel::kYoloV5x:
      return Duration::MillisF(1100.0);
    case DnnModel::kBertBase:
      break;
  }
  SOC_CHECK(false) << "BERT does not width-partition (§5.3)";
  return Duration::Zero();
}

}  // namespace

CollaborativeInference::CollaborativeInference(Simulator* sim,
                                               SocCluster* cluster,
                                               DnnModel model, int num_socs,
                                               bool pipelined)
    : sim_(sim), cluster_(cluster), num_socs_(num_socs),
      pipelined_(pipelined), spec_(&GetDnnModel(model)),
      single_soc_compute_(SingleSocCompute(model)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK_GE(num_socs_, 1);
  SOC_CHECK_LE(num_socs_, cluster_->num_socs());
  SOC_CHECK(!spec_->blocks.empty())
      << spec_->name << " has no partitionable blocks";
  members_.reserve(static_cast<size_t>(num_socs_));
  for (int i = 0; i < num_socs_; ++i) {
    members_.push_back(i);
  }
}

Duration CollaborativeInference::TotalCompute() const {
  const double n = static_cast<double>(members_.size());
  const double scale = 1.0 / n + kPartitionOverhead * (n - 1.0) / n;
  return single_soc_compute_ * scale;
}

Duration CollaborativeInference::BlockCompute(int block_index) const {
  SOC_CHECK_GE(block_index, 0);
  SOC_CHECK_LT(block_index, static_cast<int>(spec_->blocks.size()));
  const double share =
      spec_->blocks[static_cast<size_t>(block_index)].gflops / spec_->gflops;
  return TotalCompute() * share;
}

void CollaborativeInference::Run(DoneCallback done) {
  SOC_CHECK(done_ == nullptr) << "a run is already in progress";
  done_ = std::move(done);
  run_start_ = sim_->Now();
  compute_accum_ = Duration::Zero();
  current_block_ = 0;
  prev_exchange_in_flight_ = false;
  waiting_on_prev_exchange_ = false;
  failovers_ = 0;
  members_.clear();
  for (int i = 0; i < num_socs_; ++i) {
    members_.push_back(i);
  }
  for (int i : members_) {
    SOC_CHECK(cluster_->soc(i).IsUsable()) << "SoC " << i << " not usable";
    const Status status = cluster_->soc(i).SetCpuUtil(1.0);
    SOC_CHECK(status.ok()) << status.ToString();
  }
  StartBlock(0);
}

bool CollaborativeInference::AllMembersUsable() const {
  for (int i : members_) {
    if (!cluster_->soc(i).IsUsable()) {
      return false;
    }
  }
  return true;
}

void CollaborativeInference::StartBlock(size_t block_index) {
  current_block_ = block_index;
  sim_->ScheduleAfter(BlockCompute(static_cast<int>(block_index)),
                      [this, block_index] { BlockComputeDone(block_index); },
                      "dl.collab.block");
}

void CollaborativeInference::BlockComputeDone(size_t block_index) {
  if (!AllMembersUsable()) {
    // A partition died mid-block: its width slice is gone, so the block
    // result is incomplete. Survivors re-partition and re-run it.
    HandleFailover(block_index);
    return;
  }
  compute_accum_ += BlockCompute(static_cast<int>(block_index));
  // The next block needs this block's halos; in pipelined mode the previous
  // exchange may still be draining the NICs.
  if (pipelined_ && prev_exchange_in_flight_) {
    waiting_on_prev_exchange_ = true;
    return;
  }
  ExchangeDone(block_index);  // Directly proceed to this block's exchange.
}

void CollaborativeInference::HandleFailover(size_t block_index) {
  ++failovers_;
  std::vector<int> survivors;
  survivors.reserve(members_.size());
  for (int i : members_) {
    if (cluster_->soc(i).IsUsable()) {
      survivors.push_back(i);
    }
  }
  members_ = std::move(survivors);
  if (members_.empty()) {
    Finish(/*completed=*/false);
    return;
  }
  sim_->ScheduleAfter(kFailoverPenalty, [this, block_index] {
    // Re-check at re-start: another member may have died during the
    // re-partitioning window.
    if (!AllMembersUsable()) {
      HandleFailover(block_index);
      return;
    }
    StartBlock(block_index);
  }, "dl.collab.fail");
}

void CollaborativeInference::ExchangeDone(size_t block_index) {
  // Reached when the pipeline is clear to handle `block_index`'s boundary.
  if (block_index + 1 >= spec_->blocks.size() || members_.size() == 1) {
    if (block_index + 1 >= spec_->blocks.size()) {
      Finish(/*completed=*/true);
      return;
    }
    StartBlock(block_index + 1);
    return;
  }
  // Blocking handshake: tensor pack/unpack plus one RTT.
  const Duration handshake = kSerializeCost + cluster_->network().rtt();
  sim_->ScheduleAfter(handshake, [this, block_index] {
    LaunchExchange(block_index, [this, block_index] {
      prev_exchange_in_flight_ = false;
      if (!pipelined_) {
        StartBlock(block_index + 1);
        return;
      }
      if (waiting_on_prev_exchange_) {
        waiting_on_prev_exchange_ = false;
        ExchangeDone(current_block_);
      }
    });
    prev_exchange_in_flight_ = true;
    if (pipelined_) {
      StartBlock(block_index + 1);
    }
  }, "dl.collab.xchg");
}

void CollaborativeInference::LaunchExchange(size_t block_index,
                                            InlineCallback on_all_done) {
  const DnnBlock& block = spec_->blocks[block_index];
  const DataSize halo = block.HaloBytes(kPrecision);
  Network& net = cluster_->network();
  // TCP goodput over whatever NIC this cluster generation ships.
  const DataRate cap = Network::TcpGoodput(cluster_->soc(0).spec().nic);

  // The last transfer to land runs `on_all_done`.
  struct ExchangeJoin {
    int flows_left = 0;
    InlineCallback on_all_done;
  };
  auto join = std::make_shared<ExchangeJoin>();
  join->on_all_done = std::move(on_all_done);
  auto flow_done = [join] {
    if (--join->flows_left == 0) {
      join->on_all_done();
    }
  };
  // Width partition: a chain of SoCs, each exchanging boundary columns with
  // its neighbours (both directions per adjacent pair).
  for (size_t i = 0; i + 1 < members_.size(); ++i) {
    for (int dir = 0; dir < 2; ++dir) {
      const int a = members_[i];
      const int b = members_[i + 1];
      const NetNodeId src = cluster_->soc_node(dir == 0 ? a : b);
      const NetNodeId dst = cluster_->soc_node(dir == 0 ? b : a);
      ++join->flows_left;
      Result<FlowId> flow = net.StartFlow(src, dst, halo, cap, flow_done);
      SOC_CHECK(flow.ok()) << flow.status().ToString();
    }
  }
  SOC_CHECK_GT(join->flows_left, 0);
}

void CollaborativeInference::Finish(bool completed) {
  for (int i : members_) {
    if (cluster_->soc(i).IsUsable()) {
      const Status status = cluster_->soc(i).SetCpuUtil(0.0);
      SOC_CHECK(status.ok()) << status.ToString();
    }
  }
  CollabResult result;
  result.num_socs = num_socs_;
  result.pipelined = pipelined_;
  result.total = sim_->Now() - run_start_;
  result.compute = compute_accum_;
  result.comm = result.total - result.compute;
  result.failovers = failovers_;
  result.surviving_socs = static_cast<int>(members_.size());
  result.completed = completed;
  DoneCallback done = std::move(done_);
  done_ = nullptr;
  done(result);
}

}  // namespace soccluster

// SoC-collaborative DL inference (§5.3): MNN-style tensor parallelism that
// partitions each block's activations along the width dimension across N
// SoCs, exchanging halo columns over TCP between blocks.
//
// Two variants, as in the paper:
//  - sequential: compute block b on all SoCs, then exchange halos, then b+1;
//  - pipelined ("transferring computation-required data first"): halo
//    transfers overlap the next block's compute; only the per-exchange
//    handshake (one RTT) and serialization cost stay on the critical path,
//    unless a transfer outlives the overlapping compute.
//
// Halo bytes travel as real flows through the cluster's PCB/ESB fabric, so
// link contention between participating SoCs is captured.

#ifndef SRC_WORKLOAD_DL_COLLAB_H_
#define SRC_WORKLOAD_DL_COLLAB_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/callback.h"
#include "src/cluster/cluster.h"
#include "src/workload/dl/model.h"

namespace soccluster {

struct CollabResult {
  int num_socs = 0;
  bool pipelined = false;
  Duration total;
  Duration compute;
  Duration comm;  // total - compute: the exposed communication time.
  // Mid-pipeline failovers survived: each one re-partitions the remaining
  // blocks over the surviving SoCs and re-runs the interrupted block.
  int failovers = 0;
  int surviving_socs = 0;
  // False when every participant died before the last block finished.
  bool completed = true;
  double CommShare() const {
    return total.IsZero() ? 0.0 : comm / total;
  }
  double Speedup(const CollabResult& single) const {
    return single.total / total;
  }
};

class CollaborativeInference {
 public:
  using DoneCallback = std::function<void(const CollabResult&)>;

  // Cost of a mid-run failover: survivors re-partition the layer widths and
  // reload the dropped SoC's weight slices before re-running the
  // interrupted block.
  static constexpr Duration kFailoverPenalty = Duration::MillisF(50.0);

  // Runs `model` (ResNet-50/152 or YOLOv5x; BERT does not width-partition)
  // on SoCs [0, num_socs) of the cluster, which the paper takes from one
  // PCB group. All must be usable.
  CollaborativeInference(Simulator* sim, SocCluster* cluster, DnnModel model,
                         int num_socs, bool pipelined);
  CollaborativeInference(const CollaborativeInference&) = delete;
  CollaborativeInference& operator=(const CollaborativeInference&) = delete;

  // Runs one inference; `done` fires with the latency breakdown. If a
  // participating SoC dies mid-run, the survivors re-partition and re-run
  // the interrupted block after kFailoverPenalty (tensor parallelism
  // has no partial results to salvage within a block); the run aborts
  // (result.completed = false) only when every participant is gone.
  void Run(DoneCallback done);

  // Expected per-block compute time under the current partitioning.
  Duration BlockCompute(int block_index) const;
  // Total compute time across blocks for the current membership.
  Duration TotalCompute() const;

  // SoCs currently participating (shrinks across failovers).
  int num_members() const { return static_cast<int>(members_.size()); }
  int failovers() const { return failovers_; }

 private:
  void StartBlock(size_t block_index);
  void BlockComputeDone(size_t block_index);
  void ExchangeDone(size_t block_index);
  // Drops dead members and re-runs `block_index` after the failover
  // penalty; aborts the run if nobody survives.
  void HandleFailover(size_t block_index);
  bool AllMembersUsable() const;
  void Finish(bool completed);
  // Launches the halo flows for `block_index`; `on_all_done` fires when
  // every pairwise transfer completes.
  void LaunchExchange(size_t block_index, InlineCallback on_all_done);

  Simulator* sim_;
  SocCluster* cluster_;
  int num_socs_;
  bool pipelined_;
  const DnnModelSpec* spec_;
  Duration single_soc_compute_;

  // Per-run state.
  DoneCallback done_;
  SimTime run_start_;
  Duration compute_accum_;
  size_t current_block_ = 0;
  bool prev_exchange_in_flight_ = false;
  bool waiting_on_prev_exchange_ = false;
  std::vector<int> members_;  // Surviving participant SoC indices.
  int failovers_ = 0;
};

}  // namespace soccluster

#endif  // SRC_WORKLOAD_DL_COLLAB_H_

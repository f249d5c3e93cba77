#include "src/workload/dl/training.h"

#include <memory>

#include "src/base/check.h"
#include "src/net/network.h"

namespace soccluster {

namespace {

constexpr DnnModel kModel = DnnModel::kResNet50;
constexpr int kMicroBatch = 8;  // Samples per SoC per step.
// Per-sample forward+backward time on one SoC at micro-batch granularity
// (≈3x the inference cost; MNN CPU path).
constexpr Duration kPerSampleFwdBwd = Duration::MillisF(240.0);

}  // namespace

CollaborativeTraining::CollaborativeTraining(Simulator* sim,
                                             SocCluster* cluster,
                                             TrainingConfig config)
    : sim_(sim), cluster_(cluster), config_(config),
      spec_(&GetDnnModel(kModel)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK_GE(config_.num_socs, 1);
  SOC_CHECK_LE(config_.num_socs, cluster_->num_socs());
}

DataSize CollaborativeTraining::PhaseBytes() const {
  // Ring all-reduce moves |gradients|/N per neighbor pair per phase.
  const double bytes_per_param =
      config_.gradient_precision == Precision::kFp32 ? 4.0 : 1.0;
  const double total_bytes = spec_->params_millions * 1e6 * bytes_per_param;
  return DataSize::Bytes(
      static_cast<int64_t>(total_bytes / config_.num_socs));
}

Duration CollaborativeTraining::ComputePerStep() const {
  return kPerSampleFwdBwd * kMicroBatch;
}

void CollaborativeTraining::Run(int steps, StepCallback on_step) {
  SOC_CHECK_GE(steps, 1);
  on_step_ = std::move(on_step);
  for (int i = 0; i < config_.num_socs; ++i) {
    SOC_CHECK(cluster_->soc(i).IsUsable()) << "SoC " << i << " not usable";
    const Status status = cluster_->soc(i).SetCpuUtil(1.0);
    SOC_CHECK(status.ok()) << status.ToString();
  }
  StartStep(steps);
}

void CollaborativeTraining::StartStep(int remaining) {
  const SimTime step_start = sim_->Now();
  sim_->ScheduleAfter(ComputePerStep(), [this, remaining, step_start] {
    const SimTime compute_end = sim_->Now();
    if (config_.num_socs == 1) {
      FinishStep(remaining, step_start, compute_end);
      return;
    }
    StartAllReducePhase(remaining, 0, step_start, compute_end);
  }, "dl.train.step");
}

void CollaborativeTraining::StartAllReducePhase(int remaining_steps, int phase,
                                                SimTime step_start,
                                                SimTime compute_end) {
  const int total_phases = 2 * (config_.num_socs - 1);
  if (phase >= total_phases) {
    FinishStep(remaining_steps, step_start, compute_end);
    return;
  }
  // Each phase: every SoC sends a gradient chunk to its ring successor,
  // all transfers concurrently through the fabric.
  Network& net = cluster_->network();
  const DataRate cap = Network::TcpGoodput(cluster_->soc(0).spec().nic);
  const DataSize chunk = PhaseBytes();
  // The last transfer to land starts the next phase. The shared join keeps
  // each flow's callback small enough to stay inline.
  struct PhaseJoin {
    int flows_left;
    int remaining_steps;
    int phase;
    SimTime step_start;
    SimTime compute_end;
  };
  auto join = std::make_shared<PhaseJoin>(PhaseJoin{
      config_.num_socs, remaining_steps, phase, step_start, compute_end});
  auto on_flow_done = [this, join] {
    if (--join->flows_left == 0) {
      StartAllReducePhase(join->remaining_steps, join->phase + 1,
                          join->step_start, join->compute_end);
    }
  };
  for (int i = 0; i < config_.num_socs; ++i) {
    const int next = (i + 1) % config_.num_socs;
    Result<FlowId> flow =
        net.StartFlow(cluster_->soc_node(i), cluster_->soc_node(next), chunk,
                      cap, on_flow_done);
    SOC_CHECK(flow.ok()) << flow.status().ToString();
  }
}

void CollaborativeTraining::FinishStep(int remaining_steps, SimTime step_start,
                                       SimTime compute_end) {
  TrainingStepResult result;
  result.step_time = sim_->Now() - step_start;
  result.compute = compute_end - step_start;
  result.allreduce = sim_->Now() - compute_end;
  result.samples_per_second =
      kMicroBatch * config_.num_socs / result.step_time.ToSeconds();
  if (on_step_) {
    on_step_(result);
  }
  if (remaining_steps > 1) {
    StartStep(remaining_steps - 1);
    return;
  }
  for (int i = 0; i < config_.num_socs; ++i) {
    if (cluster_->soc(i).IsUsable()) {
      const Status status = cluster_->soc(i).SetCpuUtil(0.0);
      SOC_CHECK(status.ok()) << status.ToString();
    }
  }
}

}  // namespace soccluster

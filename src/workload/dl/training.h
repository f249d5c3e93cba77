// Collaborative DL training across SoCs (§8: the 1 Gbps fabric "is not
// equipped for workloads requiring high-volume data exchanges across SoCs,
// such as collaborative DL training").
//
// Data-parallel SGD: every step, each of N SoCs computes forward+backward
// on its micro-batch, then the cohort ring-all-reduces the gradients
// (2(N-1) phases moving |params|/N per neighbor pair), with every transfer
// running as a real flow through the PCB/ESB fabric. On the stock 1 Gbps
// links a ResNet-50's 102 MB of FP32 gradients dominate the step — the
// quantitative version of the paper's observation.

#ifndef SRC_WORKLOAD_DL_TRAINING_H_
#define SRC_WORKLOAD_DL_TRAINING_H_

#include <functional>

#include "src/cluster/cluster.h"
#include "src/workload/dl/model.h"

namespace soccluster {

// The model is ResNet-50, 8 samples per SoC per step at 240 ms each
// (constants in training.cc).
struct TrainingConfig {
  int num_socs = 4;
  // Gradients are exchanged at this precision (FP32, or INT8 for
  // compressed/quantized gradients — a §8-style mitigation).
  Precision gradient_precision = Precision::kFp32;
};

struct TrainingStepResult {
  Duration step_time;
  Duration compute;
  Duration allreduce;
  double samples_per_second = 0.0;
  double CommShare() const {
    return step_time.IsZero() ? 0.0 : allreduce / step_time;
  }
};

class CollaborativeTraining {
 public:
  using StepCallback = std::function<void(const TrainingStepResult&)>;

  CollaborativeTraining(Simulator* sim, SocCluster* cluster,
                        TrainingConfig config);
  CollaborativeTraining(const CollaborativeTraining&) = delete;
  CollaborativeTraining& operator=(const CollaborativeTraining&) = delete;

  // Runs `steps` training steps; `on_step` fires after each with its
  // breakdown (may be null except for the last step's result delivery).
  void Run(int steps, StepCallback on_step);

  // Bytes each SoC sends per all-reduce phase.
  DataSize PhaseBytes() const;
  Duration ComputePerStep() const;

 private:
  void StartStep(int remaining);
  void StartAllReducePhase(int remaining_steps, int phase,
                           SimTime step_start, SimTime compute_end);
  void FinishStep(int remaining_steps, SimTime step_start,
                  SimTime compute_end);

  Simulator* sim_;
  SocCluster* cluster_;
  TrainingConfig config_;
  const DnnModelSpec* spec_;
  StepCallback on_step_;
};

}  // namespace soccluster

#endif  // SRC_WORKLOAD_DL_TRAINING_H_

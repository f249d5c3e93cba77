// Dynamic determinism analyzer: certifies that a scenario's results do not
// depend on the FIFO tie-break between equal-timestamp events.
//
// The Simulator's determinism contract (src/sim/simulator.h) promises that
// a seed reproduces a run bit-for-bit — but FIFO dispatch can *hide* an
// ordering race rather than prove its absence: two events that happen to
// collide on a timestamp may produce different results if dispatched the
// other way around, and ROADMAP item 1 (parallel DES) is only safe once no
// such race exists. The auditor makes the hidden ordering freedom visible:
// it runs a scenario once under FIFO and N more times under seeded
// tie-break permutations (Simulator::EnableTieBreakPerturbation), digesting
// all simulation-visible state at evenly spaced checkpoints. Equal digests
// across every permutation certify order-independence; a mismatch is
// bisected to the first divergent checkpoint window, then both runs are
// replayed with event recording over that window to name the event labels
// whose order flipped.
//
// Checkpoints are taken from *outside* the simulator, between RunUntil
// calls — never via in-sim events, which would join the perturbation
// batches and manufacture false divergences mid-batch.
//
// The sim layer knows nothing about workloads, so scenarios are opaque
// builder callbacks; the concrete fig05/fig07/fault/overload scenarios
// live in src/core/det_scenarios.h.

#ifndef SRC_SIM_DETERMINISM_H_
#define SRC_SIM_DETERMINISM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/sim/simulator.h"

namespace soccluster {

// What a scenario builder hands back: a digest hook covering every piece
// of result-bearing state the scenario owns (the auditor mixes the
// Simulator's own digest separately), the audit horizon, and an owner
// keeping the scenario objects alive while the auditor drives the run.
struct DetScenarioRun {
  std::function<uint64_t()> digest;
  SimTime end;
  std::shared_ptr<void> keepalive;
};

// Builds a scenario on a fresh Simulator (construct services, start
// sources; running build-phase events via RunUntil is allowed) and returns
// its run description. Must be deterministic given the simulator seed.
using DetScenario = std::function<DetScenarioRun(Simulator&)>;

// The auditor's verdict, JSON-serializable (bench_determinism_audit
// --report-out).
struct DivergenceReport {
  std::string scenario;
  bool diverged = false;
  // Permutations compared against the FIFO baseline (all of them when the
  // audit passes; the audit stops at the first divergent seed).
  int permutations_run = 0;
  // Digest at the final checkpoint of the FIFO baseline run.
  uint64_t baseline_digest = 0;

  // Populated only when diverged:
  uint64_t divergent_seed = 0;      // Perturbation seed that diverged.
  uint64_t fifo_digest = 0;         // Digests at the refined checkpoint.
  uint64_t perturbed_digest = 0;
  SimTime window_begin;             // State still agreed here...
  SimTime window_end;               // ...and first differed here.
  // Labels of the events implicated at the first order flip inside the
  // window ("(unlabeled)" for events scheduled without a label).
  std::vector<std::string> suspect_labels;
  std::string detail;               // Human-readable bisection narrative.
};

void WriteDivergenceReportJson(const DivergenceReport& report,
                               std::ostream& out);

class DeterminismAuditor {
 public:
  // Compares `permutations` seeded tie-break permutations against the FIFO
  // baseline.
  DeterminismAuditor(std::string scenario_name, DetScenario scenario,
                     int permutations);

  // FIFO baseline + N permuted runs; bisects and labels the first
  // divergence found, or certifies the scenario order-independent.
  DivergenceReport Run();

 private:
  struct RunResult {
    std::vector<uint64_t> digests;  // One per checkpoint.
  };

  // One full run digesting at each checkpoint time (ascending, all within
  // the audit horizon). `perturb` selects the seeded tie-break mode.
  RunResult RunOnce(bool perturb, uint64_t perturb_seed,
                    const std::vector<SimTime>& checkpoints);
  // One full run with event recording over [begin, end]; returns the
  // fired-event sequence in that window.
  std::vector<Simulator::FiredEvent> RunRecorded(bool perturb, uint64_t seed,
                                                 SimTime begin, SimTime end);
  // Evenly spaced times in (begin, end], last one exactly `end`.
  static std::vector<SimTime> Checkpoints(SimTime begin, SimTime end,
                                          int count);

  std::string name_;
  DetScenario scenario_;
  int permutations_;
  // Build-phase end and audit horizon, discovered on the first run.
  SimTime audit_begin_;
  SimTime audit_end_;
};

}  // namespace soccluster

#endif  // SRC_SIM_DETERMINISM_H_

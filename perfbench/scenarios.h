// The benchmark's four workloads, rebuilt through the library's public
// headers the same way bench/bench_metastable_rideout.cc,
// bench/bench_overload_storm.cc and bench/bench_gray_failure.cc build them.
// For the same seed each repetition reproduces those benches' simulated
// numbers exactly (test_perfbench.py checks this against their
// BENCH_*.json); the only addition is one stop event per timed horizon,
// which leaves every simulated outcome unchanged.
//
//   rideout_day        budgeted retries + brownout ladder, 1M users,
//                      60-minute compressed day, 40 serving SoCs
//   retry_storm        naive retries, 250k users, 20-minute day, 10 SoCs
//   service_mix_storm  four services, 0.5x..3x rated-source sweep
//   gray_storm         gray-failure storm with detection on, 11 SoCs

#ifndef PERFBENCH_SCENARIOS_H_
#define PERFBENCH_SCENARIOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/ledger.h"
#include "src/obs/flags.h"
#include "src/sim/simulator.h"

namespace perfbench {

// What a scenario needs from the runner: host clocks around its phases,
// the traced-run ledger (null when untraced) and optional obs export.
struct Harness {
  Ledger* ledger = nullptr;
  // When set, ApplyObsFlags/FlushObsFlags run with these flags and the
  // flush is timed as part of the horizon.
  const soccluster::ObsFlags* export_flags = nullptr;

  // Accumulated host seconds, over every simulator the repetition builds.
  double setup_s = 0.0;
  double wall_s = 0.0;
  // Stop each simulator right after set-up (set-up timing repetitions).
  bool setup_only = false;
  // Submit calls the runner made into the serving fleet: all of them, and
  // those made by the end of the last timed horizon (before any drain).
  int64_t submits = 0;
  int64_t timed_submits = 0;

  void BeginSetup() { setup_start_ns_ = HostNowNs(); }
  void EndSetup() {
    setup_s += static_cast<double>(HostNowNs() - setup_start_ns_) * 1e-9;
  }
  // Runs `sim` for `d` of simulated time as part of the timed horizon.
  void Advance(soccluster::Simulator* sim, soccluster::Duration d);
  // Writes the requested obs exports, timed as part of the horizon.
  void Flush(const soccluster::Simulator& sim);

 private:
  int64_t setup_start_ns_ = 0;
};

// One repetition of a workload: simulated results, host times, and the
// outcome of its correctness checks.
struct RepResult {
  uint64_t seed = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  int64_t issued = 0;  // Client requests (the benchmark's operations).
  int64_t good = 0;    // Answered good within the deadline.
  double mean_ms = 0.0;  // Served latency: mean, median, p99.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t latency_samples = 0;
  double crit_p99_ms = 0.0;
  int64_t crit_samples = 0;
  uint64_t digest = 0;
  // Failed checks, one line each; empty means the repetition is correct.
  std::vector<std::string> failures;
  // Values named and computed as the reference bench's BENCH_*.json.
  std::vector<std::pair<std::string, double>> bench;
  // Per-layer counts from the metric registry and the scenario.
  std::map<std::string, double> counts;
};

bool IsWorkload(std::string_view workload);
// Active serving SoCs (the fleet the placement kernel mirrors).
int ServingSocs(std::string_view workload);

// Runs one repetition. `control` adds the workload's untimed control run
// where it has one (gray_storm: the fault-free false-positive check).
RepResult RunWorkload(std::string_view workload, uint64_t seed,
                      Harness* harness, bool control);

}  // namespace perfbench

#endif  // PERFBENCH_SCENARIOS_H_

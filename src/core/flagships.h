// The three flagship resilience scenarios of the 60-SoC chassis (§2.2
// power budget, §8 operations), each built in exactly one place:
//
//   RideoutDay     a million-user session tier through a diurnal day with
//                  a flash crowd and a fault burst on the evening peak,
//                  under naive retries or under budgeted retries plus the
//                  brownout ladder (bench_metastable_rideout and the
//                  det_sessions_day audit scenario)
//   OverloadStorm  four services under the brownout ladder at a multiple
//                  of the rated serving load, with a thermal excursion and
//                  SoC faults mid-surge (bench_overload_storm and the
//                  det_overload_storm audit scenario)
//   GrayStorm      a fail-slow storm against the DL-serving fleet, with
//                  the gray-failure layer on or off (bench_gray_failure)
//
// A builder's constructor boots the chassis on the caller's Simulator and
// builds and starts every part in the scenario's fixed creation order, so
// a given seed reproduces the same run wherever it is built. The caller
// keeps the Simulator, runs the horizon itself and reads the outcome from
// the public members. Members are declared so that the cluster is
// destroyed last: SocCluster refuses to die while a placer still watches
// it.

#ifndef SRC_CORE_FLAGSHIPS_H_
#define SRC_CORE_FLAGSHIPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/priority.h"
#include "src/base/units.h"
#include "src/cluster/bmc.h"
#include "src/cluster/cluster.h"
#include "src/core/chaos.h"
#include "src/core/orchestrator.h"
#include "src/core/overload.h"
#include "src/qos/brownout.h"
#include "src/sim/simulator.h"
#include "src/trace/gaming_trace.h"
#include "src/trace/loadgen.h"
#include "src/trace/session.h"
#include "src/workload/dl/serving.h"
#include "src/workload/serverless/serverless.h"
#include "src/workload/video/live.h"

namespace soccluster {

// Deterministic 20/50/30 critical/standard/best-effort class mix keyed off
// a counter, so every run (and every sanitizer) sees the identical request
// sequence.
Priority MixedPriority(int64_t n);

// The brownout ladder's reverse-order walk-back promise, checked against
// the governor's event history: engagements only deepen forward through
// the rung list and every release undoes the most recent un-released
// engagement.
bool LadderOrderOk(const std::vector<BrownoutGovernor::LadderEvent>& events);

struct RideoutDayParams {
  uint64_t seed = 0;  // The session tier's draws.
  int64_t users = 0;
  int day_minutes = 0;  // The 24 h diurnal day, compressed.
  // Serving fleet size. Offered load is 0.95x its capacity; the fault
  // burst kills ~10% of it and the wall cap scales with it.
  int socs = 0;
  // False keeps latency memory O(sketch): the fleet keeps no exact
  // samples, and only the all-class registry histogram sees latency.
  bool exact_latency = true;
  // True: budgeted retries, a bounded queue with client-deadline purge and
  // the brownout ladder. False: the naive strawman — fixed-delay unbounded
  // retries into a deep FIFO queue, no ladder.
  bool rideout = false;
};

class RideoutDay {
 public:
  static constexpr Duration kClientTimeout = Duration::Seconds(1);
  static constexpr Duration kClientDeadline = Duration::Seconds(2);

  // Trigger timeline, derived from the (possibly compressed) day length.
  struct Trigger {
    SimTime flash_start;
    Duration ramp;
    Duration hold;
    Duration decay;
    SimTime clear;  // Flash decayed (2 time constants) and faults repaired.
  };
  static Trigger MakeTrigger(Duration day);

  RideoutDay(Simulator* sim, const RideoutDayParams& params);
  RideoutDay(const RideoutDay&) = delete;
  RideoutDay& operator=(const RideoutDay&) = delete;

  // Sessions arrive over 1.5 diurnal days: the full day plus the next
  // morning's ramp, so a post-trigger window sits inside generated traffic.
  Duration horizon() const { return day * 1.5; }

  std::unique_ptr<SocCluster> cluster;
  std::unique_ptr<SocServingFleet> fleet;
  std::unique_ptr<BmcModel> bmc;
  std::unique_ptr<ClusterOverloadManager> manager;
  std::unique_ptr<SessionTier> tier;
  std::unique_ptr<PeriodicTask> probe;
  const Duration day;
  const Trigger trigger;
  int peak_brownout = 0;  // Deepest governor level the probe saw.
};

struct OverloadStormParams {
  int serving_socs = 0;
  double multiplier = 0.0;  // Offered load over rated fleet throughput.
  Duration surge;           // How long the serving load arrives.
  int live_streams = 0;     // Background live streams (mixed classes).
  int functions = 0;        // Serverless functions and their total rate.
  double function_rps = 0.0;
  uint64_t function_seed = 0;
};

class OverloadStorm {
 public:
  static constexpr Duration kDeadline = Duration::Seconds(2);
  static constexpr double kWallCapWatts = 450.0;

  OverloadStorm(Simulator* sim, const OverloadStormParams& params);
  OverloadStorm(const OverloadStorm&) = delete;
  OverloadStorm& operator=(const OverloadStorm&) = delete;

  std::unique_ptr<SocCluster> cluster;
  std::unique_ptr<BmcModel> bmc;
  std::unique_ptr<SocServingFleet> fleet;
  std::unique_ptr<LiveTranscodingService> live;
  std::unique_ptr<ServerlessPlatform> serverless;
  std::unique_ptr<GamingWorkload> gaming;
  std::unique_ptr<Orchestrator> orchestrator;
  std::unique_ptr<ClusterOverloadManager> manager;
  std::unique_ptr<ServerlessWorkload> functions;
  std::unique_ptr<OpenLoopSource> source;
  std::unique_ptr<PeriodicTask> probe;
  int64_t submit_counter = 0;  // Serving requests the source submitted.
  // What the 1 s probe saw: the deepest governor level and the serving
  // fleet's trough.
  int peak_level = 0;
  int min_active = 0;
};

struct GrayStormParams {
  uint64_t seed = 0;  // Fault, heartbeat and detector draws.
  int minutes = 0;    // Storm and source length; run twice as long.
  bool detect = false;  // The gray-failure layer (scorer + quarantine).
  bool plant = false;   // False: a fault-free control run.
};

class GrayStorm {
 public:
  // SoCs 0..10 serve (PCBs 0-2); the planted faults all land inside the
  // active set so the storm hits the serving path, not idle boards. PCB 2
  // contributes a single active SoC (10), so the browned-out uplink runs
  // hot (~0.75 utilization) without tipping into an unbounded flow
  // pile-up.
  static constexpr int kActiveSocs = 11;
  static constexpr int kSlowSoc = 1;       // Deep throttle, 12x service time.
  static constexpr int kZombieSoc = 4;     // Beats fine, fails every request.
  static constexpr int kBrownoutSlot = 2;  // PCB 2 uplink at 15% capacity.
  static constexpr int kFlakySoc = 30;     // Outside the fleet: detector test.

  GrayStorm(Simulator* sim, const GrayStormParams& params);
  GrayStorm(const GrayStorm&) = delete;
  GrayStorm& operator=(const GrayStorm&) = delete;

  std::unique_ptr<SocCluster> cluster;
  std::unique_ptr<SocServingFleet> fleet;
  std::unique_ptr<ChaosRunner> chaos;
  std::unique_ptr<OpenLoopSource> source;
};

}  // namespace soccluster

#endif  // SRC_CORE_FLAGSHIPS_H_

// Cluster-wide overload control: one BrownoutGovernor coordinating a
// degradation ladder across every service the cluster runs, plus a
// circuit breaker per service. When the chassis draws more than its wall
// cap (§2.2's ~700 W supplies) the cheapest quality is surrendered first
// and SoC eviction becomes the last resort:
//
//   1. best_effort   — close admission to best-effort traffic everywhere
//                      (admission floors to kStandard; orchestrator
//                      preempts best-effort replicas and holds placement)
//   2. live_bitrate  — push live transcoding down the bitrate ladder,
//                      one rung per level
//   3. serverless_defer — park serverless cold starts (warm traffic flows)
//   4. gaming_cap    — freeze the gaming session count at its current value
//   5. serving_dispatch — halve the serving fleet's concurrent dispatch
//   6. evict_serving — walk serving SoCs down, 4 per level, never below 1
//
// Release unwinds in exact reverse order with hysteresis. Services are
// attach-as-available: absent services simply contribute no rungs. Every
// service's breaker runs CircuitBreaker's fixed thresholds.

#ifndef SRC_CORE_OVERLOAD_H_
#define SRC_CORE_OVERLOAD_H_

#include <memory>
#include <vector>

#include "src/cluster/bmc.h"
#include "src/cluster/cluster.h"
#include "src/core/orchestrator.h"
#include "src/qos/breaker.h"
#include "src/qos/brownout.h"
#include "src/trace/gaming_trace.h"
#include "src/workload/dl/serving.h"
#include "src/workload/serverless/serverless.h"
#include "src/workload/video/live.h"

namespace soccluster {

struct ClusterOverloadConfig {
  Power wall_cap = Power::Zero();  // Must be set: positive, above overhead.
};

class ClusterOverloadManager {
 public:
  // The governor's cap is `config.wall_cap`, checked here. The BMC does
  // not feed the governor; the unnamed parameter keeps the signature.
  ClusterOverloadManager(Simulator* sim, SocCluster* cluster, BmcModel*,
                         ClusterOverloadConfig config);
  ClusterOverloadManager(const ClusterOverloadManager&) = delete;
  ClusterOverloadManager& operator=(const ClusterOverloadManager&) = delete;

  // Attach services before Start(). Each is optional.
  void AttachServing(SocServingFleet* fleet);
  void AttachLive(LiveTranscodingService* live);
  void AttachServerless(ServerlessPlatform* serverless);
  void AttachGaming(GamingWorkload* gaming);
  void AttachOrchestrator(Orchestrator* orchestrator);

  // Builds the ladder from the attached services and starts the governor.
  void Start();
  void Stop();

  const BrownoutGovernor& governor() const { return governor_; }
  int brownout_level() const { return governor_.level(); }
  bool IsBrownedOut() const { return governor_.IsBrownedOut(); }

  // Null until the corresponding service is attached.
  CircuitBreaker* serving_breaker() { return serving_breaker_.get(); }
  CircuitBreaker* live_breaker() { return live_breaker_.get(); }
  CircuitBreaker* serverless_breaker() { return serverless_breaker_.get(); }

 private:
  void BuildLadder();
  std::unique_ptr<CircuitBreaker> MakeBreaker(const char* service);

  Simulator* sim_;
  BrownoutGovernor governor_;
  SocServingFleet* serving_ = nullptr;
  LiveTranscodingService* live_ = nullptr;
  ServerlessPlatform* serverless_ = nullptr;
  GamingWorkload* gaming_ = nullptr;
  Orchestrator* orchestrator_ = nullptr;
  std::unique_ptr<CircuitBreaker> serving_breaker_;
  std::unique_ptr<CircuitBreaker> live_breaker_;
  std::unique_ptr<CircuitBreaker> serverless_breaker_;
  // SoCs actually shed at each engaged evict_serving level, LIFO: a step
  // that bottoms out at the floor sheds fewer than a full step, and its
  // release restores exactly what it took.
  std::vector<int> shed_stack_;
  bool started_ = false;
};

}  // namespace soccluster

#endif  // SRC_CORE_OVERLOAD_H_

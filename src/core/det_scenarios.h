// Concrete determinism-audit scenarios (src/sim/determinism.h): scaled-down
// builds of the five flagship experiments, sized so a full audit (FIFO
// baseline + N tie-break permutations each) stays test-suite fast while
// still exercising the collision-rich machinery — periodic ticks (BMC
// sampling, brownout governor, telemetry, heartbeats, probes) landing on
// shared timestamps, scheduled experiment events colliding with ticks, and
// every service's admission/placement path.
//
//   det_fig05_gaming        diurnal cloud-gaming trace + telemetry capture
//   det_fig07_live          live-transcoding stream churn with failover
//   det_fault_availability  chaos run: faults, heartbeats, re-placement
//   det_overload_storm      four services under the brownout ladder (the
//                           OverloadStorm builder of src/core/flagships.h)
//   det_sessions_day        the RideoutDay builder in ride-out mode at audit
//                           size (DetSessionsDayParams): a compressed
//                           diurnal day with a flash crowd and a fault
//                           burst, budgeted retries, timeouts, and the
//                           brownout governor ticking
//
// Each scenario's digest folds every owned service's DigestState plus the
// result series the matching bench reports, so any order-dependent outcome
// registers at the next checkpoint.

#ifndef SRC_CORE_DET_SCENARIOS_H_
#define SRC_CORE_DET_SCENARIOS_H_

#include <vector>

#include "src/sim/determinism.h"

namespace soccluster {

struct RideoutDayParams;

// det_sessions_day's day: seed 77, 50k users, a 6-minute day, 8 SoCs.
RideoutDayParams DetSessionsDayParams();

DetScenario DetGamingTraceScenario();
DetScenario DetLiveStreamScenario();
DetScenario DetFaultAvailabilityScenario();
DetScenario DetOverloadStormScenario();
DetScenario DetSessionsDayScenario();

struct DetScenarioSpec {
  const char* name;
  DetScenario (*make)();
};

// All audit scenarios, in the order above.
std::vector<DetScenarioSpec> AllDetScenarios();

}  // namespace soccluster

#endif  // SRC_CORE_DET_SCENARIOS_H_

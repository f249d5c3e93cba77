// Energy accounting. `EnergyMeter` integrates a piecewise-constant power
// signal over simulated time, giving exact Joules (no sampling error). The
// BMC's sampled telemetry is layered on top of these meters.

#ifndef SRC_HW_POWER_H_
#define SRC_HW_POWER_H_

#include "src/base/stats.h"
#include "src/base/units.h"

namespace soccluster {

// Tracks the energy consumed by one component. Call SetPower() on every
// power-state edge; queries integrate up to the supplied `now`.
class EnergyMeter {
 public:
  // Records that the component draws `power` from `now` onwards.
  void SetPower(SimTime now, Power power);

  Power CurrentPower() const { return Power::Watts(stat_.CurrentValue()); }
  // Total energy consumed in [first update, now].
  Energy TotalEnergy(SimTime now);
  // Time-weighted average power over the observed window.
  Power AveragePower(SimTime now);
  // Length of the observed window ending at `now`.
  Duration Observed(SimTime now);

 private:
  TimeWeightedStat stat_;
};

}  // namespace soccluster

#endif  // SRC_HW_POWER_H_

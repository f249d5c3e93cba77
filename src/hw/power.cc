#include "src/hw/power.h"

namespace soccluster {

void EnergyMeter::SetPower(SimTime now, Power power) {
  stat_.Update(now, power.watts());
}

Energy EnergyMeter::TotalEnergy(SimTime now) {
  stat_.Update(now, stat_.CurrentValue());
  return Energy::Joules(stat_.Integral());
}

Power EnergyMeter::AveragePower(SimTime now) {
  stat_.Update(now, stat_.CurrentValue());
  return Power::Watts(stat_.Mean());
}

Duration EnergyMeter::Observed(SimTime now) {
  stat_.Update(now, stat_.CurrentValue());
  return stat_.Elapsed();
}

}  // namespace soccluster

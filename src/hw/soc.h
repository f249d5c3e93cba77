// Runtime model of one mobile SoC: power states, per-component utilization,
// and exact energy accounting. Workload models drive utilization; the SoC
// turns it into watts using its calibrated spec.
//
// Change contract: every change that can move placement (utilization,
// codec sessions, power state, quarantine) reaches the SoC's observer, so
// the placement index (src/sched/placer.h) never reads a stale key. All
// utilization and power-state mutators funnel through Recompute(), which
// notifies; SetQuarantined() notifies itself. A new mutator that can change
// SocCapacityView::Fits or Placer::Load must go through Recompute() or
// notify the observer the same way.

#ifndef SRC_HW_SOC_H_
#define SRC_HW_SOC_H_

#include <functional>
#include <string>

#include "src/base/digest.h"
#include "src/base/result.h"
#include "src/hw/power.h"
#include "src/hw/specs.h"
#include "src/sim/simulator.h"

namespace soccluster {

enum class SocPowerState {
  kOff,
  kBooting,   // PowerOn() in progress.
  kOn,
  kFailed,    // Fault-injected; unusable until Repair().
};

const char* SocPowerStateName(SocPowerState state);

// Told after each placement-relevant change of a SoC (see the contract
// above). SocCluster installs itself on every SoC it owns and fans the
// call out to its watchers; the callee must not mutate the SoC.
class SocObserver {
 public:
  virtual void OnSocChanged(int soc_id) = 0;

 protected:
  ~SocObserver() = default;
};

// One SoC. All mutators update the energy meter at the current sim time, so
// Joules are exact under the piecewise-constant power model.
class SocModel {
 public:
  SocModel(Simulator* sim, SocSpec spec, int id);
  SocModel(const SocModel&) = delete;
  SocModel& operator=(const SocModel&) = delete;

  int id() const { return id_; }
  const SocSpec& spec() const { return spec_; }
  SocPowerState state() const { return state_; }
  bool IsUsable() const { return state_ == SocPowerState::kOn; }

  // Power management. PowerOn() boots Android (spec boot latency) and then
  // invokes `on_ready` (may be null). PowerOff() is immediate-effect for
  // capacity purposes; callers must have drained work first.
  Status PowerOn(Duration boot_latency, std::function<void()> on_ready);
  Status PowerOff();

  // Fault injection (§8: a single subsystem failure renders the SoC
  // unusable). Repair() returns it to kOff.
  void Fail();
  void Repair();
  // Monotone count of Fail() transitions. Request-level code snapshots this
  // at dispatch to detect that the SoC died (and possibly rebooted) while
  // work was in flight — IsUsable() alone cannot distinguish that.
  int64_t fail_count() const { return fail_count_; }

  // Thermal-throttle excursions (§8: sustained full-speed operation trips
  // mobile thermal limits). The factor scales the effective service rate of
  // latency-sensitive work in (0, 1]; 1.0 means unthrottled. Admission
  // capacity and the power model are unaffected — a throttled SoC runs the
  // same load, slower. Fail() clears any excursion (the board power-cycles).
  void SetThrottleFactor(double factor);
  double throttle_factor() const { return throttle_factor_; }

  // Gray-failure states: the SoC keeps reporting kOn (heartbeats look
  // healthy) while misbehaving on the request path. Fail() clears all of
  // them — a power-cycle resets the misbehaving software stack.
  //
  // Zombie: heartbeats succeed but requests dispatched to this SoC fail.
  void SetZombie(bool zombie) { zombie_ = zombie; }
  bool zombie() const { return zombie_; }
  // Probability in [0, 1] that any single heartbeat from this SoC is lost
  // in flight (flaky management path). HealthMonitor draws against it.
  void SetHeartbeatLossProb(double prob);
  double heartbeat_loss_prob() const { return heartbeat_loss_prob_; }

  // Quarantine is control-plane state owned by GrayFailureManager: a
  // quarantined SoC stays kOn (in-flight work finishes, canary probes run)
  // but SocCapacityView::IsPlaceable excludes it from new placements.
  void SetQuarantined(bool quarantined);
  bool quarantined() const { return quarantined_; }

  // Installs the one observer of this SoC (its SocCluster).
  void set_observer(SocObserver* observer) { observer_ = observer; }

  // Component utilization, each in [0, 1]. Fails if the SoC is not usable
  // or the new value is out of range / over capacity.
  Status SetCpuUtil(double util);
  Status AddCpuUtil(double delta);
  Status SetGpuUtil(double util);
  Status SetDspUtil(double util);
  // Hardware-codec sessions (bounded by spec.max_codec_sessions). Each
  // session processes `pixel_rate` pixels/s (drives ASIC power) and charges
  // the delegation daemon's CPU share. Remove with the same pixel rate.
  Status AddCodecSession(double pixel_rate);
  Status RemoveCodecSession(double pixel_rate);

  double cpu_util() const { return cpu_util_; }
  double gpu_util() const { return gpu_util_; }
  double dsp_util() const { return dsp_util_; }
  int codec_sessions() const { return codec_sessions_; }
  double codec_pixel_rate() const { return codec_pixel_rate_; }
  // CPU headroom after the codec delegation daemons are charged.
  double CpuHeadroom() const;

  // Mixes power state, component utilization, codec sessions, and
  // fault/throttle state. Energy is integrated from these, so the meter
  // itself is not digested.
  void DigestState(StateDigest& digest) const;

  // Instantaneous wall power of this SoC (including board regulators).
  Power CurrentPower() const;
  Energy TotalEnergy() { return meter_.TotalEnergy(sim_->Now()); }
  Power AveragePower() { return meter_.AveragePower(sim_->Now()); }

 private:
  // Re-meters power and notifies the observer.
  void Recompute();
  void Notify();
  Power ComputePower() const;

  Simulator* sim_;
  SocSpec spec_;
  int id_;
  SocPowerState state_ = SocPowerState::kOff;
  double cpu_util_ = 0.0;
  double gpu_util_ = 0.0;
  double dsp_util_ = 0.0;
  int codec_sessions_ = 0;
  double codec_pixel_rate_ = 0.0;
  int64_t fail_count_ = 0;
  double throttle_factor_ = 1.0;
  bool zombie_ = false;
  double heartbeat_loss_prob_ = 0.0;
  bool quarantined_ = false;
  SocObserver* observer_ = nullptr;
  EventHandle boot_event_;
  EnergyMeter meter_;
};

}  // namespace soccluster

#endif  // SRC_HW_SOC_H_

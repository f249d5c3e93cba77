#include "src/base/check.h"
#include "src/hw/soc.h"

#include <utility>

namespace soccluster {

namespace {
// Wall power while Android boots: roughly a half-loaded CPU.
constexpr double kBootPowerWatts = 4.0;
// Utilization comparisons tolerate accumulated floating-point error.
constexpr double kUtilSlack = 1e-9;
}  // namespace

const char* SocPowerStateName(SocPowerState state) {
  switch (state) {
    case SocPowerState::kOff:
      return "off";
    case SocPowerState::kBooting:
      return "booting";
    case SocPowerState::kOn:
      return "on";
    case SocPowerState::kFailed:
      return "failed";
  }
  return "?";
}

SocModel::SocModel(Simulator* sim, SocSpec spec, int id)
    : sim_(sim), spec_(std::move(spec)), id_(id) {
  SOC_CHECK(sim_ != nullptr);
  meter_.SetPower(sim_->Now(), ComputePower());
}

Status SocModel::PowerOn(Duration boot_latency, std::function<void()> on_ready) {
  if (state_ == SocPowerState::kFailed) {
    return Status::FailedPrecondition("SoC has failed");
  }
  if (state_ != SocPowerState::kOff) {
    return Status::FailedPrecondition("SoC is not off");
  }
  state_ = SocPowerState::kBooting;
  Recompute();
  boot_event_ = sim_->ScheduleAfter(
      boot_latency, [this, cb = std::move(on_ready)] {
        if (state_ != SocPowerState::kBooting) {
          return;  // Failed or powered off mid-boot.
        }
        state_ = SocPowerState::kOn;
        Recompute();
        if (cb) {
          cb();
        }
      },
      "soc.boot");
  return Status::Ok();
}

Status SocModel::PowerOff() {
  if (state_ == SocPowerState::kFailed) {
    return Status::FailedPrecondition("SoC has failed");
  }
  if (state_ == SocPowerState::kOff) {
    return Status::FailedPrecondition("SoC is already off");
  }
  if (cpu_util_ > kUtilSlack || gpu_util_ > kUtilSlack ||
      dsp_util_ > kUtilSlack || codec_sessions_ > 0) {
    return Status::FailedPrecondition("SoC still has active work");
  }
  sim_->Cancel(boot_event_);
  state_ = SocPowerState::kOff;
  Recompute();
  return Status::Ok();
}

void SocModel::Fail() {
  sim_->Cancel(boot_event_);
  state_ = SocPowerState::kFailed;
  cpu_util_ = 0.0;
  gpu_util_ = 0.0;
  dsp_util_ = 0.0;
  codec_sessions_ = 0;
  codec_pixel_rate_ = 0.0;
  throttle_factor_ = 1.0;
  zombie_ = false;
  heartbeat_loss_prob_ = 0.0;
  ++fail_count_;
  Recompute();
}

void SocModel::SetThrottleFactor(double factor) {
  SOC_CHECK_GT(factor, 0.0);
  SOC_CHECK_LE(factor, 1.0);
  throttle_factor_ = factor;
}

void SocModel::SetQuarantined(bool quarantined) {
  quarantined_ = quarantined;
  Notify();
}

void SocModel::SetHeartbeatLossProb(double prob) {
  SOC_CHECK_GE(prob, 0.0);
  SOC_CHECK_LE(prob, 1.0);
  heartbeat_loss_prob_ = prob;
}

void SocModel::Repair() {
  if (state_ != SocPowerState::kFailed) {
    return;
  }
  state_ = SocPowerState::kOff;
  Recompute();
}

double SocModel::CpuHeadroom() const {
  const double codec_share =
      spec_.codec_cpu_share_per_session * codec_sessions_;
  const double headroom = 1.0 - cpu_util_ - codec_share;
  return headroom > 0.0 ? headroom : 0.0;
}

Status SocModel::SetCpuUtil(double util) {
  if (!IsUsable()) {
    return Status::FailedPrecondition("SoC not usable");
  }
  const double codec_share =
      spec_.codec_cpu_share_per_session * codec_sessions_;
  if (util < -kUtilSlack || util + codec_share > 1.0 + kUtilSlack) {
    return Status::OutOfRange("CPU utilization out of range");
  }
  cpu_util_ = util < 0.0 ? 0.0 : util;
  Recompute();
  return Status::Ok();
}

Status SocModel::AddCpuUtil(double delta) {
  return SetCpuUtil(cpu_util_ + delta);
}

Status SocModel::SetGpuUtil(double util) {
  if (!IsUsable()) {
    return Status::FailedPrecondition("SoC not usable");
  }
  if (util < -kUtilSlack || util > 1.0 + kUtilSlack) {
    return Status::OutOfRange("GPU utilization out of range");
  }
  gpu_util_ = util < 0.0 ? 0.0 : (util > 1.0 ? 1.0 : util);
  Recompute();
  return Status::Ok();
}

Status SocModel::SetDspUtil(double util) {
  if (!IsUsable()) {
    return Status::FailedPrecondition("SoC not usable");
  }
  if (util < -kUtilSlack || util > 1.0 + kUtilSlack) {
    return Status::OutOfRange("DSP utilization out of range");
  }
  dsp_util_ = util < 0.0 ? 0.0 : (util > 1.0 ? 1.0 : util);
  Recompute();
  return Status::Ok();
}

Status SocModel::AddCodecSession(double pixel_rate) {
  if (!IsUsable()) {
    return Status::FailedPrecondition("SoC not usable");
  }
  if (pixel_rate < 0.0) {
    return Status::InvalidArgument("negative pixel rate");
  }
  if (codec_sessions_ + 1 > spec_.max_codec_sessions) {
    return Status::ResourceExhausted("codec session limit");
  }
  const double codec_share =
      spec_.codec_cpu_share_per_session * (codec_sessions_ + 1);
  if (cpu_util_ + codec_share > 1.0 + kUtilSlack) {
    return Status::ResourceExhausted("codec daemon CPU share exceeds core");
  }
  ++codec_sessions_;
  codec_pixel_rate_ += pixel_rate;
  Recompute();
  return Status::Ok();
}

Status SocModel::RemoveCodecSession(double pixel_rate) {
  if (codec_sessions_ <= 0) {
    return Status::FailedPrecondition("no codec sessions active");
  }
  --codec_sessions_;
  codec_pixel_rate_ -= pixel_rate;
  if (codec_pixel_rate_ < 0.0) {
    codec_pixel_rate_ = 0.0;
  }
  Recompute();
  return Status::Ok();
}

Power SocModel::ComputePower() const {
  switch (state_) {
    case SocPowerState::kOff:
    case SocPowerState::kFailed:
      return spec_.power_off;
    case SocPowerState::kBooting:
      return Power::Watts(kBootPowerWatts);
    case SocPowerState::kOn:
      break;
  }
  const double codec_cpu =
      spec_.codec_cpu_share_per_session * codec_sessions_;
  const double effective_cpu = cpu_util_ + codec_cpu;
  Power power = spec_.power_idle;
  if (effective_cpu > kUtilSlack) {
    power += spec_.cpu_wake;
    power += spec_.cpu_dynamic_full * effective_cpu;
  }
  power += spec_.gpu_active_full * gpu_util_;
  power += spec_.dsp_active_full * dsp_util_;
  power += spec_.codec_session_base * codec_sessions_;
  power += Power::Watts(spec_.codec_watts_per_pixel_per_sec *
                        codec_pixel_rate_);
  return power;
}

Power SocModel::CurrentPower() const { return ComputePower(); }

void SocModel::Recompute() {
  meter_.SetPower(sim_->Now(), ComputePower());
  Notify();
}

void SocModel::Notify() {
  if (observer_ != nullptr) {
    observer_->OnSocChanged(id_);
  }
}

void SocModel::DigestState(StateDigest& digest) const {
  digest.Mix(static_cast<int>(state_));
  digest.Mix(cpu_util_);
  digest.Mix(gpu_util_);
  digest.Mix(dsp_util_);
  digest.Mix(codec_sessions_);
  digest.Mix(codec_pixel_rate_);
  digest.Mix(fail_count_);
  digest.Mix(throttle_factor_);
  digest.Mix(zombie_);
  digest.Mix(heartbeat_loss_prob_);
  digest.Mix(quarantined_);
}

}  // namespace soccluster

#include "src/qos/brownout.h"

#include <utility>

#include "src/base/check.h"

namespace soccluster {

namespace {
// Governor tick.
constexpr Duration kPeriod = Duration::Seconds(2);
// Consecutive comfortable ticks per released level.
constexpr int kReleaseHoldTicks = 1;
}  // namespace

BrownoutGovernor::BrownoutGovernor(Simulator* sim, SocCluster* cluster,
                                   Power wall_cap)
    : sim_(sim), cluster_(cluster), wall_cap_(wall_cap) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK_GT(wall_cap_.watts(), 0.0) << "brownout needs a wall cap";
  // Feasibility: a wall cap below the chassis overhead (fans + ESB + BMC)
  // can never be met by degrading workloads — the ladder would bottom out
  // and sit over the cap forever.
  SOC_CHECK_GE(wall_cap_.watts(), cluster_->OverheadPower().watts())
      << "wall cap below chassis overhead is infeasible";
  MetricRegistry& metrics = sim_->metrics();
  engagements_metric_ = metrics.GetCounter("qos.brownout.engagements");
  releases_metric_ = metrics.GetCounter("qos.brownout.releases");
  level_metric_ = metrics.GetGauge("qos.brownout.level");
  level_series_ = metrics.GetTimeSeries("qos.brownout.level_series");
  sim_->tracer().SetTrackName(kBrownoutTrack, "brownout");
  ticker_ = std::make_unique<PeriodicTask>(
      sim_, kPeriod, [this] { Tick(); }, "brownout.tick");
}

BrownoutGovernor::~BrownoutGovernor() = default;

void BrownoutGovernor::AddRung(std::string name, int levels, EngageFn engage,
                               ReleaseFn release) {
  SOC_CHECK(!ticker_->running()) << "rungs must be registered before Start()";
  SOC_CHECK_GE(levels, 1);
  SOC_CHECK(engage != nullptr);
  SOC_CHECK(release != nullptr);
  Rung rung;
  rung.name = std::move(name);
  rung.levels = levels;
  rung.engage = std::move(engage);
  rung.release = std::move(release);
  rungs_.push_back(std::move(rung));
}

void BrownoutGovernor::Start() { ticker_->Start(); }

void BrownoutGovernor::Stop() { ticker_->Stop(); }

int BrownoutGovernor::rung_level(int rung) const {
  SOC_CHECK_GE(rung, 0);
  SOC_CHECK_LT(rung, static_cast<int>(rungs_.size()));
  return rungs_[static_cast<size_t>(rung)].level;
}

void BrownoutGovernor::PublishLevel() {
  level_metric_->Set(static_cast<double>(total_level_));
  level_series_->Append(sim_->Now(), static_cast<double>(total_level_));
}

void BrownoutGovernor::Tick() {
  const Power draw = cluster_->CurrentPower();
  if (draw > wall_cap_) {
    comfortable_ticks_ = 0;
    EngageNext();
    return;
  }
  if (total_level_ > 0 &&
      draw.watts() < wall_cap_.watts() * kReleaseFraction) {
    if (++comfortable_ticks_ >= kReleaseHoldTicks) {
      comfortable_ticks_ = 0;
      ReleaseDeepest();
    }
    return;
  }
  // In the hysteresis band [kReleaseFraction * cap, cap]: hold.
  comfortable_ticks_ = 0;
}

void BrownoutGovernor::EngageNext() {
  for (size_t i = 0; i < rungs_.size(); ++i) {
    Rung& rung = rungs_[i];
    if (rung.level >= rung.levels) {
      continue;
    }
    ++rung.level;
    ++total_level_;
    ++engagements_;
    engagements_metric_->Increment();
    history_.push_back(LadderEvent{sim_->Now(), static_cast<int>(i),
                                   rung.level, /*engage=*/true});
    Tracer& tracer = sim_->tracer();
    const SpanId span = tracer.BeginSpan(
        rung.name + ":" + std::to_string(rung.level), "qos.brownout",
        kBrownoutTrack);
    tracer.AddArg(span, "total_level", static_cast<int64_t>(total_level_));
    level_spans_.push_back(span);
    rung.engage(rung.level);
    PublishLevel();
    return;
  }
  // Ladder exhausted: nothing left to degrade; the cap is infeasible for
  // the current load and the draw rides the floor.
}

void BrownoutGovernor::ReleaseDeepest() {
  for (size_t i = rungs_.size(); i-- > 0;) {
    Rung& rung = rungs_[i];
    if (rung.level == 0) {
      continue;
    }
    const int level = rung.level;
    --rung.level;
    --total_level_;
    ++releases_;
    releases_metric_->Increment();
    history_.push_back(
        LadderEvent{sim_->Now(), static_cast<int>(i), level, /*engage=*/false});
    rung.release(level);
    if (!level_spans_.empty()) {
      sim_->tracer().EndSpan(level_spans_.back());
      level_spans_.pop_back();
    }
    PublishLevel();
    return;
  }
}

void BrownoutGovernor::DigestState(StateDigest& digest) const {
  digest.Mix(total_level_);
  digest.Mix(comfortable_ticks_);
  digest.Mix(engagements_);
  digest.Mix(releases_);
  digest.Mix(static_cast<uint64_t>(rungs_.size()));
  for (const Rung& rung : rungs_) {
    digest.Mix(rung.level);
  }
  digest.Mix(static_cast<uint64_t>(history_.size()));
  for (const LadderEvent& ev : history_) {
    digest.Mix(ev.time.nanos());
    digest.Mix(ev.rung);
    digest.Mix(ev.level);
    digest.Mix(ev.engage);
  }
}

}  // namespace soccluster

#include "src/core/overload.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/base/check.h"

namespace soccluster {

namespace {
// The last-resort eviction rung sheds this many serving SoCs per level...
constexpr int kStepSocs = 4;
// ...never leaving fewer active than this.
constexpr int kMinActive = 1;
}  // namespace

ClusterOverloadManager::ClusterOverloadManager(Simulator* sim,
                                               SocCluster* cluster,
                                               BmcModel*,
                                               ClusterOverloadConfig config)
    : sim_(sim), governor_(sim, cluster, config.wall_cap) {}

std::unique_ptr<CircuitBreaker> ClusterOverloadManager::MakeBreaker(
    const char* service) {
  return std::make_unique<CircuitBreaker>(sim_, service);
}

void ClusterOverloadManager::AttachServing(SocServingFleet* fleet) {
  SOC_CHECK(!started_);
  SOC_CHECK(fleet != nullptr);
  serving_ = fleet;
  serving_breaker_ = MakeBreaker("dl.serving");
  serving_->SetBreaker(serving_breaker_.get());
}

void ClusterOverloadManager::AttachLive(LiveTranscodingService* live) {
  SOC_CHECK(!started_);
  SOC_CHECK(live != nullptr);
  live_ = live;
  live_breaker_ = MakeBreaker("video.live");
  live_->SetBreaker(live_breaker_.get());
}

void ClusterOverloadManager::AttachServerless(ServerlessPlatform* serverless) {
  SOC_CHECK(!started_);
  SOC_CHECK(serverless != nullptr);
  serverless_ = serverless;
  serverless_breaker_ = MakeBreaker("serverless");
  serverless_->SetBreaker(serverless_breaker_.get());
}

void ClusterOverloadManager::AttachGaming(GamingWorkload* gaming) {
  SOC_CHECK(!started_);
  SOC_CHECK(gaming != nullptr);
  gaming_ = gaming;
}

void ClusterOverloadManager::AttachOrchestrator(Orchestrator* orchestrator) {
  SOC_CHECK(!started_);
  SOC_CHECK(orchestrator != nullptr);
  orchestrator_ = orchestrator;
}

void ClusterOverloadManager::BuildLadder() {
  // Rung 1: stop admitting best-effort work anywhere, and reclaim what
  // best-effort replicas already hold.
  governor_.AddRung(
      "best_effort", 1,
      [this](int) {
        if (serving_ != nullptr) {
          serving_->admission().SetAdmitFloor(Priority::kStandard);
        }
        if (live_ != nullptr) {
          live_->SetAdmitFloor(Priority::kStandard);
        }
        if (serverless_ != nullptr) {
          serverless_->SetAdmitFloor(Priority::kStandard);
        }
        if (orchestrator_ != nullptr) {
          orchestrator_->SetPlacementHold(true);
          orchestrator_->PreemptBestEffort(std::numeric_limits<int>::max());
        }
      },
      [this](int) {
        if (orchestrator_ != nullptr) {
          orchestrator_->SetPlacementHold(false);
        }
        if (serverless_ != nullptr) {
          serverless_->SetAdmitFloor(Priority::kBestEffort);
        }
        if (live_ != nullptr) {
          live_->SetAdmitFloor(Priority::kBestEffort);
        }
        if (serving_ != nullptr) {
          serving_->admission().SetAdmitFloor(Priority::kBestEffort);
        }
      });

  // Rung 2: live transcoding walks the bitrate ladder one rung per level.
  if (live_ != nullptr) {
    governor_.AddRung(
        "live_bitrate", kNumBitrateRungs - 1,
        [this](int level) { live_->SetBrownoutRung(level); },
        [this](int level) { live_->SetBrownoutRung(level - 1); });
  }

  // Rung 3: serverless parks cold starts; warm invocations keep flowing.
  if (serverless_ != nullptr) {
    governor_.AddRung(
        "serverless_defer", 1,
        [this](int) { serverless_->SetDeferColdStarts(true); },
        [this](int) { serverless_->SetDeferColdStarts(false); });
  }

  // Rung 4: gaming freezes at its current session count (sessions drain
  // naturally; none join).
  if (gaming_ != nullptr) {
    governor_.AddRung(
        "gaming_cap", 1,
        [this](int) { gaming_->SetSessionCap(gaming_->active_sessions()); },
        [this](int) { gaming_->SetSessionCap(-1); });
  }

  // Rung 5: serving halves its concurrent dispatch (queueing grows, power
  // from inference drops, completions keep trickling).
  if (serving_ != nullptr) {
    governor_.AddRung(
        "serving_dispatch", 1,
        [this](int) {
          serving_->SetDispatchLimit(
              std::max(1, serving_->active_count() / 2));
        },
        [this](int) { serving_->SetDispatchLimit(0); });
  }

  // Rung 6, last resort: evict serving SoCs, exactly like the historical
  // power-cap controller.
  if (serving_ != nullptr) {
    // Enough levels to walk the Start()-time fleet down to kMinActive.
    const int socs = std::max(serving_->active_count(), kMinActive);
    const int levels =
        std::max(1, (socs - kMinActive + kStepSocs - 1) / kStepSocs);
    governor_.AddRung(
        "evict_serving", levels,
        [this](int) {
          const int current = serving_->active_count();
          const int next = std::max(kMinActive, current - kStepSocs);
          shed_stack_.push_back(current - next);
          if (next < current) {
            serving_->SetActiveCount(next);
          }
        },
        [this](int) {
          SOC_CHECK(!shed_stack_.empty());
          const int shed = shed_stack_.back();
          shed_stack_.pop_back();
          const int current = serving_->active_count();
          if (shed > 0) {
            serving_->SetActiveCount(current + shed);
          }
        });
  }
}

void ClusterOverloadManager::Start() {
  SOC_CHECK(!started_);
  started_ = true;
  BuildLadder();
  governor_.Start();
}

void ClusterOverloadManager::Stop() { governor_.Stop(); }

}  // namespace soccluster

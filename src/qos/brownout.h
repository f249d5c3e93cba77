// Coordinated brownout governor. Generalizes the serving-only power cap
// into a cluster-wide degradation ladder: when chassis draw exceeds the
// operator's wall cap (§2.2's ~700 W supplies), the governor engages
// degradation rungs one level per period, in registration order:
//
//   drop best-effort admission → push live transcoding down the bitrate
//   ladder → defer serverless cold starts → cap gaming sessions → shrink
//   serving dispatch → evict serving SoCs (last resort)
//
// every 2 s, and walks back with hysteresis in exact reverse order, one
// level per tick while draw stays below kReleaseFraction of the cap. Rung
// callbacks own the mechanism; the governor owns the ordering, pacing, and
// hysteresis. Because engagement always deepens the first non-maxed rung
// and release always unwinds the deepest engaged rung, engagements release
// LIFO — each engaged level is a synchronous span on the "brownout" trace
// track, nesting cleanly.

#ifndef SRC_QOS_BROWNOUT_H_
#define SRC_QOS_BROWNOUT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/digest.h"
#include "src/cluster/cluster.h"
#include "src/sim/simulator.h"

namespace soccluster {

class BrownoutGovernor {
 public:
  // Display track hosting the governor's rung spans.
  static constexpr int64_t kBrownoutTrack = 80;
  // Hysteresis: a level is released only while draw < cap * this.
  static constexpr double kReleaseFraction = 0.9;

  // Called with the level being engaged (1..levels) / released (same
  // level, in reverse). Engage(n) is only ever called with the rung
  // currently at n-1, and Release(n) with the rung at n.
  using EngageFn = std::function<void(int level)>;
  using ReleaseFn = std::function<void(int level)>;

  struct LadderEvent {
    SimTime time;
    int rung = 0;  // Index in registration order.
    int level = 0;
    bool engage = false;
  };

  // `wall_cap` is the hard wall-power cap: positive, and no lower than the
  // chassis overhead.
  BrownoutGovernor(Simulator* sim, SocCluster* cluster, Power wall_cap);
  ~BrownoutGovernor();
  BrownoutGovernor(const BrownoutGovernor&) = delete;
  BrownoutGovernor& operator=(const BrownoutGovernor&) = delete;

  // Registers the next rung of the ladder (engagement order == call
  // order). Must be called before Start().
  void AddRung(std::string name, int levels, EngageFn engage,
               ReleaseFn release);

  void Start();
  void Stop();

  // Total engaged levels across all rungs (0: no brownout).
  int level() const { return total_level_; }
  int rung_level(int rung) const;
  int num_rungs() const { return static_cast<int>(rungs_.size()); }
  bool IsBrownedOut() const { return total_level_ > 0; }
  int64_t engagements() const { return engagements_; }
  int64_t releases() const { return releases_; }
  // Every engage/release, in order — the ladder-order evidence used by
  // tests and bench validation.
  const std::vector<LadderEvent>& history() const { return history_; }

  // Mixes per-rung levels (in ladder order), hysteresis state, and the
  // engage/release history.
  void DigestState(StateDigest& digest) const;

 private:
  struct Rung {
    std::string name;
    int levels = 0;
    int level = 0;
    EngageFn engage;
    ReleaseFn release;
  };

  void Tick();
  void EngageNext();
  void ReleaseDeepest();
  void PublishLevel();

  Simulator* sim_;
  SocCluster* cluster_;
  Power wall_cap_;
  std::unique_ptr<PeriodicTask> ticker_;
  std::vector<Rung> rungs_;
  int total_level_ = 0;
  int comfortable_ticks_ = 0;
  int64_t engagements_ = 0;
  int64_t releases_ = 0;
  std::vector<LadderEvent> history_;
  // Open span per engaged level, LIFO (matches release order).
  std::vector<SpanId> level_spans_;
  Counter* engagements_metric_;
  Counter* releases_metric_;
  Gauge* level_metric_;
  TimeSeries* level_series_;
};

}  // namespace soccluster

#endif  // SRC_QOS_BROWNOUT_H_

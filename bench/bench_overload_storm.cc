// Overload storm against the full four-service cluster under the qos
// brownout ladder (§2.2 power budget, §8 cooling): sweep the offered
// serving load from half to 3x the rated fleet throughput while live
// transcoding, serverless, cloud gaming, and a best-effort batch workload
// share the chassis. Mid-surge a thermal excursion throttles a block of
// SoCs and a handful of SoC faults feed the serving circuit breaker, so
// every rung of the degradation ladder gets exercised. The claim under
// test: goodput degrades gracefully (monotonically, never a cliff),
// critical p99 stays under the deadline at 3x, and the ladder engages and
// releases in strict LIFO order. The bench checks these claims itself and
// exits 1 when one fails.
//
// The scenario itself is the OverloadStorm builder (src/core/flagships.h);
// this file sweeps it and reports.
//
// Flags: --seed=S (default 42), --surge-minutes=M (default 5),
//        --trace-out=PATH / --metrics-out=PATH / --slo-out=PATH (applied to
//        the 3x run; --slo-out writes the burn-rate alert timeline).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/stats.h"
#include "src/base/table.h"
#include "src/core/flagships.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"

namespace soccluster {
namespace {

constexpr double kMultipliers[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
constexpr int kServingSocs = 40;
constexpr Duration kDeadline = OverloadStorm::kDeadline;

struct StormOutcome {
  double multiplier = 0.0;
  int64_t generated = 0;
  int64_t completed = 0;
  double goodput = 0.0;  // Serving: completed / generated.
  double p99_ms[kNumPriorities] = {};
  int64_t shed[kNumPriorities] = {};
  int64_t expired = 0;
  int peak_level = 0;        // Deepest total governor level reached.
  int min_active = 0;        // Serving SoCs at the surge trough.
  int64_t breaker_opens = 0;
  int64_t breaker_rejected = 0;
  int64_t engagements = 0;
  int64_t releases = 0;
  int64_t live_demoted = 0;
  int64_t live_shed = 0;
  int64_t serverless_deferred = 0;
  int64_t serverless_shed = 0;
  int64_t gaming_capped = 0;
  int64_t replicas_preempted = 0;
  bool ladder_order_ok = false;
  bool released_clean = false;  // Ladder fully unwound after the drain.
  // Sketch-vs-exact agreement: serving p99 from the registry's DDSketch
  // histogram next to the exact per-request samples (a claim checks they
  // agree to the sketch's relative accuracy at 3x).
  double sketch_p99_ms = 0.0;
  double exact_p99_ms = 0.0;
  // Burn-rate alert timeline totals across every registered SLO.
  int64_t slo_fires = 0;
  int64_t slo_clears = 0;
  int64_t slo_firing_at_end = 0;  // Trackers still firing after the drain.
  // Shed order shows in the paging order: no service's critical class
  // fires before its best_effort class has.
  bool slo_page_order_ok = true;
};

StormOutcome RunStorm(double multiplier, uint64_t seed, int surge_minutes,
                      const ObsFlags* obs_flags) {
  Simulator sim(seed);
  if (obs_flags != nullptr) {
    ApplyObsFlags(*obs_flags, &sim.obs());
  }
  OverloadStormParams params;
  params.serving_socs = kServingSocs;
  params.multiplier = multiplier;
  params.surge = Duration::Minutes(surge_minutes);
  params.live_streams = 30;
  params.functions = 20;
  params.function_rps = 20.0 * multiplier;
  params.function_seed = seed + 3;
  OverloadStorm storm(&sim, params);
  SocServingFleet& fleet = *storm.fleet;
  ClusterOverloadManager& manager = *storm.manager;
  LiveTranscodingService& live = *storm.live;
  ServerlessPlatform& serverless = *storm.serverless;
  GamingWorkload& gaming = *storm.gaming;
  Orchestrator& orchestrator = *storm.orchestrator;

  Status status = sim.RunFor(params.surge);
  SOC_CHECK(status.ok());
  // Drain: arrivals stop, the backlog clears, the ladder walks back.
  status = sim.RunFor(Duration::Minutes(10));
  SOC_CHECK(status.ok());

  StormOutcome outcome;
  outcome.multiplier = multiplier;
  outcome.peak_level = storm.peak_level;
  outcome.min_active = storm.min_active;
  for (int c = 0; c < kNumPriorities; ++c) {
    const Priority p = static_cast<Priority>(c);
    outcome.completed += fleet.completed_of(p);
    outcome.shed[c] = fleet.shed_of(p);
    outcome.expired += fleet.expired_of(p);
    outcome.p99_ms[c] = fleet.latencies_of(p).count() > 0
                            ? fleet.latencies_of(p).Percentile(99)
                            : 0.0;
  }
  outcome.generated = storm.source->generated();
  outcome.goodput =
      outcome.generated > 0
          ? static_cast<double>(outcome.completed) /
                static_cast<double>(outcome.generated)
          : 0.0;
  const CircuitBreaker* breaker = manager.serving_breaker();
  SOC_CHECK(breaker != nullptr);
  outcome.breaker_opens = breaker->opens();
  outcome.breaker_rejected = breaker->rejected();
  outcome.engagements = manager.governor().engagements();
  outcome.releases = manager.governor().releases();
  outcome.live_demoted = live.brownout_demoted();
  outcome.live_shed = live.requests_shed();
  outcome.serverless_deferred = serverless.stats().deferred;
  outcome.serverless_shed = serverless.stats().qos_shed;
  outcome.gaming_capped = gaming.sessions_capped();
  outcome.replicas_preempted = orchestrator.replicas_preempted();
  outcome.ladder_order_ok = LadderOrderOk(manager.governor().history());
  // Final burn-rate evaluation at drain end: windows have emptied, so any
  // still-firing alert records its clear transition here.
  const SloAlertTally slo = sim.obs().slos.TallyAlerts(sim.Now());
  outcome.slo_fires = slo.fired;
  outcome.slo_clears = slo.cleared;
  outcome.slo_firing_at_end = slo.firing_at_end;
  std::map<std::string, SimTime> first_fire;  // By SLO name.
  for (const auto& tracker : sim.obs().slos.trackers()) {
    for (const SloAlert& alert : tracker->alerts()) {
      if (alert.firing) {
        first_fire.emplace(tracker->spec().name, alert.time);
      }
    }
  }
  for (const auto& tracker : sim.obs().slos.trackers()) {
    const std::string& service = tracker->spec().service;
    const auto crit = first_fire.find(
        service + "/" + PriorityName(Priority::kCritical));
    if (crit == first_fire.end()) {
      continue;
    }
    const auto best_effort = first_fire.find(
        service + "/" + PriorityName(Priority::kBestEffort));
    if (best_effort == first_fire.end() || best_effort->second > crit->second) {
      outcome.slo_page_order_ok = false;
    }
  }
  outcome.sketch_p99_ms =
      sim.metrics().GetHistogram("dl.serving.latency_ms")->Percentile(99);
  SampleStats exact;
  for (int c = 0; c < kNumPriorities; ++c) {
    for (const double sample :
         fleet.latencies_of(static_cast<Priority>(c)).samples()) {
      exact.Add(sample);
    }
  }
  outcome.exact_p99_ms = exact.count() > 0 ? exact.Percentile(99) : 0.0;
  outcome.released_clean =
      !manager.IsBrownedOut() && outcome.engagements == outcome.releases &&
      fleet.admission().admit_floor() == Priority::kBestEffort &&
      live.brownout_rung() == 0 && !serverless.defer_cold_starts() &&
      gaming.session_cap() == -1 && !orchestrator.placement_hold();

  if (obs_flags != nullptr) {
    SOC_CHECK(FlushObsFlags(*obs_flags, sim.obs(), sim.Now()).ok());
    StateDigest digest;
    sim.DigestState(digest);
    storm.cluster->DigestState(digest);
    fleet.DigestState(digest);
    live.DigestState(digest);
    serverless.DigestState(digest);
    gaming.DigestState(digest);
    orchestrator.DigestState(digest);
    SOC_CHECK(FlushDigestFlag(*obs_flags, digest.value()).ok());
  }
  return outcome;
}

std::string Tag(double multiplier, const char* metric) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "x%.1f.%s", multiplier, metric);
  return std::string(buffer);
}

int Run(uint64_t seed, int surge_minutes, const ObsFlags& obs_flags) {
  BenchReport report("overload_storm");
  report.SetParam("seed", static_cast<int64_t>(seed));
  report.SetParam("surge_minutes", static_cast<int64_t>(surge_minutes));
  report.SetParam("serving_socs", static_cast<int64_t>(kServingSocs));
  report.SetParam("deadline_ms", kDeadline.ToMillis());
  report.SetParam("wall_cap_w", OverloadStorm::kWallCapWatts);

  std::printf("=== Overload storm: four services under the brownout ladder "
              "(450 W cap, thermal excursion, SoC faults) ===\n\n");
  TextTable table({"load", "goodput", "crit p99 ms", "std p99 ms",
                   "be p99 ms", "shed be", "expired", "peak lvl", "min socs",
                   "brk opens", "ladder ok"});
  std::vector<StormOutcome> outcomes;
  for (const double multiplier : kMultipliers) {
    // The showcase 3x run carries the trace/metrics flags.
    const bool last = multiplier == kMultipliers[std::size(kMultipliers) - 1];
    outcomes.push_back(RunStorm(multiplier, seed, surge_minutes,
                                last ? &obs_flags : nullptr));
    const StormOutcome& o = outcomes.back();
    table.AddRow({FormatDouble(multiplier, 1) + "x",
                  FormatDouble(o.goodput, 4), FormatDouble(o.p99_ms[0], 0),
                  FormatDouble(o.p99_ms[1], 0), FormatDouble(o.p99_ms[2], 0),
                  std::to_string(o.shed[2]), std::to_string(o.expired),
                  std::to_string(o.peak_level), std::to_string(o.min_active),
                  std::to_string(o.breaker_opens),
                  o.ladder_order_ok ? "yes" : "NO"});

    report.Add(Tag(multiplier, "goodput"), o.goodput, "fraction");
    report.Add(Tag(multiplier, "generated"),
               static_cast<double>(o.generated), "count");
    report.Add(Tag(multiplier, "completed"),
               static_cast<double>(o.completed), "count");
    report.Add(Tag(multiplier, "critical_p99_ms"), o.p99_ms[0], "ms");
    report.Add(Tag(multiplier, "standard_p99_ms"), o.p99_ms[1], "ms");
    report.Add(Tag(multiplier, "besteffort_p99_ms"), o.p99_ms[2], "ms");
    report.Add(Tag(multiplier, "shed_critical"),
               static_cast<double>(o.shed[0]), "count");
    report.Add(Tag(multiplier, "shed_standard"),
               static_cast<double>(o.shed[1]), "count");
    report.Add(Tag(multiplier, "shed_besteffort"),
               static_cast<double>(o.shed[2]), "count");
    report.Add(Tag(multiplier, "deadline_expired"),
               static_cast<double>(o.expired), "count");
    report.Add(Tag(multiplier, "brownout_peak_level"),
               static_cast<double>(o.peak_level), "level");
    report.Add(Tag(multiplier, "min_active_socs"),
               static_cast<double>(o.min_active), "count");
    report.Add(Tag(multiplier, "breaker_opens"),
               static_cast<double>(o.breaker_opens), "count");
    report.Add(Tag(multiplier, "breaker_rejected"),
               static_cast<double>(o.breaker_rejected), "count");
    report.Add(Tag(multiplier, "ladder_engagements"),
               static_cast<double>(o.engagements), "count");
    report.Add(Tag(multiplier, "ladder_releases"),
               static_cast<double>(o.releases), "count");
    report.Add(Tag(multiplier, "live_demoted"),
               static_cast<double>(o.live_demoted), "count");
    report.Add(Tag(multiplier, "live_shed"),
               static_cast<double>(o.live_shed), "count");
    report.Add(Tag(multiplier, "serverless_deferred"),
               static_cast<double>(o.serverless_deferred), "count");
    report.Add(Tag(multiplier, "serverless_shed"),
               static_cast<double>(o.serverless_shed), "count");
    report.Add(Tag(multiplier, "gaming_capped"),
               static_cast<double>(o.gaming_capped), "count");
    report.Add(Tag(multiplier, "replicas_preempted"),
               static_cast<double>(o.replicas_preempted), "count");
    report.Add(Tag(multiplier, "ladder_order_ok"),
               o.ladder_order_ok ? 1.0 : 0.0, "bool");
    report.Add(Tag(multiplier, "released_clean"),
               o.released_clean ? 1.0 : 0.0, "bool");
    report.Add(Tag(multiplier, "sketch_p99_ms"), o.sketch_p99_ms, "ms");
    report.Add(Tag(multiplier, "exact_p99_ms"), o.exact_p99_ms, "ms");
    report.Add(Tag(multiplier, "slo_fires"),
               static_cast<double>(o.slo_fires), "count");
    report.Add(Tag(multiplier, "slo_clears"),
               static_cast<double>(o.slo_clears), "count");
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Takeaway: under the ladder the cluster sheds best-effort "
              "first, degrades live bitrate and parks cold starts next, and "
              "only evicts serving SoCs at the deepest rung — goodput falls "
              "smoothly with load, critical p99 holds under the %.0f ms "
              "deadline, and every degradation is walked back in reverse "
              "once the storm passes.\n",
              kDeadline.ToMillis());

  // Graceful degradation: overload sheds work instead of queueing it
  // without bound, critical traffic holds its deadline at 3x, goodput
  // falls monotonically instead of off a cliff, and every rung engages and
  // releases in LIFO order and is walked back once the storm drains.
  const StormOutcome& half = outcomes.front();
  const StormOutcome& triple = outcomes.back();
  int64_t shed_besteffort = 0;
  for (const StormOutcome& o : outcomes) {
    shed_besteffort += o.shed[static_cast<int>(Priority::kBestEffort)];
  }
  report.Claim(shed_besteffort > 0,
               "admission control sheds best-effort work over the sweep "
               "(%lld)",
               static_cast<long long>(shed_besteffort));
  report.Claim(triple.breaker_opens > 0,
               "SoC faults open the serving breaker at 3x (%lld opens)",
               static_cast<long long>(triple.breaker_opens));
  report.Claim(triple.p99_ms[0] < kDeadline.ToMillis(),
               "critical p99 at 3x (%.0f ms) < %.0f ms deadline",
               triple.p99_ms[0], kDeadline.ToMillis());
  for (size_t i = 1; i < outcomes.size(); ++i) {
    const StormOutcome& lower = outcomes[i - 1];
    const StormOutcome& o = outcomes[i];
    report.Claim(o.goodput <= lower.goodput + 0.02,
                 "goodput monotone within 0.02: %.4f at %.1fx after %.4f at "
                 "%.1fx",
                 o.goodput, o.multiplier, lower.goodput, lower.multiplier);
  }
  report.Claim(half.goodput > 0.95, "goodput at %.1fx (%.4f) > 0.95",
               half.multiplier, half.goodput);
  for (const StormOutcome& o : outcomes) {
    report.Claim(o.ladder_order_ok, "ladder order is LIFO at %.1fx",
                 o.multiplier);
    report.Claim(o.released_clean, "ladder fully released at %.1fx",
                 o.multiplier);
  }
  report.Claim(triple.peak_level > half.peak_level,
               "ladder deepens: peak level %d at 3x > %d at 0.5x",
               triple.peak_level, half.peak_level);
  // The 3x run drives the burn-rate alerts end to end, and the histogram
  // switch must not change the p99 an operator sees.
  report.Claim(triple.slo_fires >= 1, "an SLO fires at 3x (%lld)",
               static_cast<long long>(triple.slo_fires));
  report.Claim(triple.slo_clears >= 1, "an SLO clears at 3x (%lld)",
               static_cast<long long>(triple.slo_clears));
  report.Claim(triple.slo_firing_at_end == 0,
               "no SLO still firing after the 3x drain (%lld)",
               static_cast<long long>(triple.slo_firing_at_end));
  report.Claim(triple.slo_page_order_ok,
               "no service pages its critical class before best_effort at "
               "3x");
  report.Claim(std::abs(triple.sketch_p99_ms - triple.exact_p99_ms) /
                       triple.exact_p99_ms <
                   0.03,
               "sketch p99 (%.1f ms) within 3%% of exact (%.1f ms) at 3x",
               triple.sketch_p99_ms, triple.exact_p99_ms);
  return report.ExitCode();
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  uint64_t seed = 42;
  int surge_minutes = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--surge-minutes=", 16) == 0) {
      surge_minutes = std::atoi(argv[i] + 16);
    }
  }
  if (surge_minutes < 1) {
    surge_minutes = 1;
  }
  const soccluster::ObsFlags obs_flags =
      soccluster::ParseObsFlags(argc, argv);
  return soccluster::Run(seed, surge_minutes, obs_flags);
}

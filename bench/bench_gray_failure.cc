// Gray-failure resilience (§8 operations): a fail-slow storm against the
// DL-serving fleet — one SoC in a sustained deep-throttle excursion, one
// zombie (healthy heartbeats, every request fails), one browned-out PCB
// uplink, and one SoC with flaky heartbeats — measured with the
// gray-failure layer (DegradationScorer + quarantine) on vs. off. Every
// fault here is invisible to fixed-miss heartbeat detection: the boards
// keep beating while they wreck the tail, so only the request-path
// evidence loop can win back the p99.
//
// Four runs: storm with detection off, storm with detection on (the
// showcase — carries the obs flags), a same-seed repeat of the detection-on
// storm (digest must match bit-for-bit), and a fault-free run with
// detection on (must quarantine nothing).
//
// The storm itself is the GrayStorm builder (src/core/flagships.h); this
// file runs its four variants and reports.
//
// Flags: --minutes=N (storm length, default 8, at least 3),
//        --seed=S (default 42),
//        --trace-out/--metrics-out/--digest-out/--slo-out=PATH.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/table.h"
#include "src/core/flagships.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"

namespace soccluster {
namespace {

// Ceiling on the engine events the fabric schedules per completed flow
// (`net.wakes_scheduled` over `net.flows_completed`, summed over the four
// storms). One pending wake per network, moved only when the earliest
// projected finish changes, reads 1.5126-1.5130 at the defaults and at the
// claims arguments (seeds 42/1/2); an event per flow, rescheduled on every
// rate change, reads 3.267-3.280.
constexpr double kMaxNetEventsPerFlow = 1.52;

struct StormOutcome {
  int64_t generated = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  double p99_ms = 0.0;
  int64_t suspects = 0;
  int64_t quarantines = 0;
  int64_t reinstated = 0;
  int64_t escalated = 0;
  int64_t monitor_down_events = 0;
  int64_t slo_fired = 0;
  int64_t slo_firing_at_end = 0;
  int64_t slo_cleared = 0;
  int64_t net_wakes = 0;
  int64_t net_flows = 0;
  uint64_t digest = 0;
  double Goodput() const {
    return generated > 0
               ? static_cast<double>(completed) / static_cast<double>(generated)
               : 0.0;
  }
};

StormOutcome MeasureStorm(bool detect, bool plant, int minutes, uint64_t seed,
                          const ObsFlags* obs_flags) {
  Simulator sim(seed);
  if (obs_flags != nullptr) {
    ApplyObsFlags(*obs_flags, &sim.obs());
  }
  GrayStormParams params;
  params.seed = seed;
  params.minutes = minutes;
  params.detect = detect;
  params.plant = plant;
  GrayStorm storm(&sim, params);
  SocServingFleet& fleet = *storm.fleet;
  ChaosRunner& chaos = *storm.chaos;
  // Run well past the source: the undetected slow SoC accumulates a deep
  // backlog that must drain (and the SLO burn windows roll clear) before
  // the end-of-run alert state means anything.
  SOC_CHECK(sim.RunFor(Duration::Minutes(2 * minutes)).ok());

  StormOutcome outcome;
  outcome.generated = storm.source->generated();
  outcome.completed = fleet.completed();
  outcome.failed = fleet.failed();
  outcome.shed = fleet.shed();
  outcome.expired = fleet.deadline_expired();
  outcome.p99_ms =
      fleet.latencies().count() > 0 ? fleet.latencies().Percentile(99) : 0.0;
  outcome.monitor_down_events = chaos.monitor().down_events();
  if (chaos.gray() != nullptr) {
    outcome.suspects = chaos.gray()->suspects_total();
    outcome.quarantines = chaos.gray()->quarantines_total();
    outcome.reinstated = chaos.gray()->reinstated_total();
    outcome.escalated = chaos.gray()->escalated_total();
  }
  // Alert accounting: alerts() is a transition log (fired / cleared), and
  // firing() is the at-end state after the final Advance. A contained storm
  // never fires at all; an uncontained one fires mid-storm and only clears
  // once the drain rolls the burn windows past it.
  const SloAlertTally slo = sim.obs().slos.TallyAlerts(sim.Now());
  outcome.slo_fired = slo.fired;
  outcome.slo_cleared = slo.cleared;
  outcome.slo_firing_at_end = slo.firing_at_end;
  outcome.net_wakes =
      sim.metrics().GetCounter("net.wakes_scheduled")->value();
  outcome.net_flows =
      sim.metrics().GetCounter("net.flows_completed")->value();
  StateDigest digest;
  sim.DigestState(digest);
  storm.cluster->DigestState(digest);
  fleet.DigestState(digest);
  if (chaos.gray() != nullptr) {
    chaos.gray()->DigestState(digest);
  }
  outcome.digest = digest.value();
  if (obs_flags != nullptr) {
    SOC_CHECK(FlushObsFlags(*obs_flags, sim.obs(), sim.Now()).ok());
    SOC_CHECK(FlushDigestFlag(*obs_flags, digest.value()).ok());
  }
  return outcome;
}

int Run(int minutes, uint64_t seed, const ObsFlags& obs_flags) {
  BenchReport report("gray_failure");
  report.SetParam("minutes", static_cast<int64_t>(minutes));
  report.SetParam("seed", static_cast<int64_t>(seed));

  const StormOutcome off =
      MeasureStorm(/*detect=*/false, /*plant=*/true, minutes, seed, nullptr);
  const StormOutcome on =
      MeasureStorm(/*detect=*/true, /*plant=*/true, minutes, seed, &obs_flags);
  const StormOutcome repeat =
      MeasureStorm(/*detect=*/true, /*plant=*/true, minutes, seed, nullptr);
  const StormOutcome clean =
      MeasureStorm(/*detect=*/true, /*plant=*/false, minutes, seed, nullptr);

  std::printf("=== Gray-failure storm: slow SoC %d (12x), zombie SoC %d, PCB "
              "%d uplink at 15%%, flaky heartbeats on SoC %d (%d min, "
              "ResNet-50 on %d SoCs) ===\n\n",
              GrayStorm::kSlowSoc, GrayStorm::kZombieSoc,
              GrayStorm::kBrownoutSlot, GrayStorm::kFlakySoc, minutes,
              GrayStorm::kActiveSocs);
  TextTable table({"mode", "goodput", "p99 ms", "completed", "failed",
                   "expired", "suspects", "quarantines", "reinstated",
                   "escalated", "SLO alerts fired", "firing at end"});
  table.AddRow({"detection off", FormatDouble(off.Goodput(), 4),
                FormatDouble(off.p99_ms, 0), std::to_string(off.completed),
                std::to_string(off.failed), std::to_string(off.expired),
                "-", "-", "-", "-", std::to_string(off.slo_fired),
                std::to_string(off.slo_firing_at_end)});
  table.AddRow({"detection on", FormatDouble(on.Goodput(), 4),
                FormatDouble(on.p99_ms, 0), std::to_string(on.completed),
                std::to_string(on.failed), std::to_string(on.expired),
                std::to_string(on.suspects), std::to_string(on.quarantines),
                std::to_string(on.reinstated), std::to_string(on.escalated),
                std::to_string(on.slo_fired),
                std::to_string(on.slo_firing_at_end)});
  table.AddRow({"fault-free, detection on", FormatDouble(clean.Goodput(), 4),
                FormatDouble(clean.p99_ms, 0), std::to_string(clean.completed),
                std::to_string(clean.failed), std::to_string(clean.expired),
                std::to_string(clean.suspects),
                std::to_string(clean.quarantines),
                std::to_string(clean.reinstated),
                std::to_string(clean.escalated), std::to_string(clean.slo_fired),
                std::to_string(clean.slo_firing_at_end)});
  std::printf("%s\n", table.Render().c_str());
  std::printf("Same-seed digest repeat: %s (0x%016llx)\n",
              on.digest == repeat.digest ? "match" : "MISMATCH",
              static_cast<unsigned long long>(on.digest));
  std::printf("Takeaway: none of these faults miss a heartbeat, so without "
              "request-path evidence the fleet keeps feeding the stragglers "
              "and the zombie for the whole storm; the scorer spots them in "
              "a few windows, quarantine drains them, and probation either "
              "reinstates (brownout ends) or power-cycles (zombie, deep "
              "throttle).\n");

  report.Add("p99_ms_detection_off", off.p99_ms, "ms");
  report.Add("p99_ms_detection_on", on.p99_ms, "ms");
  report.Add("goodput_detection_off", off.Goodput(), "fraction");
  report.Add("goodput_detection_on", on.Goodput(), "fraction");
  report.Add("failed_detection_off", static_cast<double>(off.failed), "count");
  report.Add("failed_detection_on", static_cast<double>(on.failed), "count");
  report.Add("suspects", static_cast<double>(on.suspects), "count");
  report.Add("quarantines", static_cast<double>(on.quarantines), "count");
  report.Add("reinstated", static_cast<double>(on.reinstated), "count");
  report.Add("escalated", static_cast<double>(on.escalated), "count");
  report.Add("monitor_down_events",
             static_cast<double>(on.monitor_down_events), "count");
  report.Add("slo_fired_off", static_cast<double>(off.slo_fired), "count");
  report.Add("slo_fired_on", static_cast<double>(on.slo_fired), "count");
  report.Add("slo_firing_at_end_on",
             static_cast<double>(on.slo_firing_at_end), "count");
  report.Add("slo_firing_at_end_off",
             static_cast<double>(off.slo_firing_at_end), "count");
  report.Add("clean_quarantines", static_cast<double>(clean.quarantines),
             "count");
  report.Add("clean_suspects", static_cast<double>(clean.suspects), "count");
  report.Add("digest_match", on.digest == repeat.digest ? 1.0 : 0.0, "bool");
  // Fabric cost, counted rather than timed, so it repeats exactly per seed.
  const int64_t net_wakes =
      off.net_wakes + on.net_wakes + repeat.net_wakes + clean.net_wakes;
  const int64_t net_flows =
      off.net_flows + on.net_flows + repeat.net_flows + clean.net_flows;
  const double net_events_per_flow =
      net_flows > 0 ? static_cast<double>(net_wakes) /
                          static_cast<double>(net_flows)
                    : 0.0;
  report.Add("cost.net_events_per_flow", net_events_per_flow, "count");

  // The storm must walk the whole gray loop (suspect -> quarantine ->
  // probe -> escalate) and detection must pay off; matching p99s or a
  // quarantined clean fleet mean the layer is broken.
  report.Claim(on.quarantines > 0, "storm quarantined SoCs (%lld)",
               static_cast<long long>(on.quarantines));
  report.Claim(on.escalated >= 1, "probation escalated a SoC (%lld)",
               static_cast<long long>(on.escalated));
  report.Claim(2.0 * on.p99_ms <= off.p99_ms,
               "detection wins back the p99 tail: 2 x p99 on (%.1f ms) <= "
               "p99 off (%.1f ms)",
               on.p99_ms, off.p99_ms);
  report.Claim(on.Goodput() > off.Goodput(),
               "detection wins goodput (%.4f on vs %.4f off)", on.Goodput(),
               off.Goodput());
  report.Claim(on.slo_fired == 0, "no SLO alert fires under quarantine (%lld)",
               static_cast<long long>(on.slo_fired));
  report.Claim(off.slo_fired >= 1,
               "storm fires an SLO alert without detection (%lld)",
               static_cast<long long>(off.slo_fired));
  report.Claim(clean.quarantines == 0,
               "no quarantine on a healthy fleet (%lld)",
               static_cast<long long>(clean.quarantines));
  report.Claim(clean.suspects == 0, "no suspicion on a healthy fleet (%lld)",
               static_cast<long long>(clean.suspects));
  report.Claim(on.digest == repeat.digest, "same-seed digests match");
  report.Claim(net_events_per_flow <= kMaxNetEventsPerFlow,
               "fabric events per completed flow %.4f <= %.2f",
               net_events_per_flow, kMaxNetEventsPerFlow);
  return report.ExitCode();
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  int minutes = 8;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--minutes=", 10) == 0) {
      minutes = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    }
  }
  // The planted faults last two minutes less than the storm.
  if (minutes < 3) {
    std::fprintf(stderr,
                 "--minutes=%d is too short: the storm must be at least 3 "
                 "minutes to plant a fault window\n",
                 minutes);
    return 2;
  }
  const soccluster::ObsFlags obs_flags = soccluster::ParseObsFlags(argc, argv);
  return soccluster::Run(minutes, seed, obs_flags);
}

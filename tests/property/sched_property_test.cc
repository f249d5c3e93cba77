// Property tests for the unified placement layer.
//
// A randomized interleaving of admissions, evictions, failures, and
// recoveries across all four placement-driven services (orchestrator, live
// transcoding, serverless, gaming) must (a) never oversubscribe any SoC
// resource and (b) be bit-identical when replayed with the same seed. Seeds
// are chosen so every PlacementPolicy — including kBestFit and kRandomOfK —
// is exercised. A second run of the same interleaving adds reboots no
// service is told about.
//
// Below the services, a view-level interleaving of Reserve/Release/Fail/
// Repair+PowerOn checks the reservation rule itself: every usable SoC
// carries exactly the charges of its intact reservations, and the view's
// ledgers hold exactly those of its live reservations.
//
// A churn of the same steps plus quarantine and penalty changes checks the
// placement index: long-lived kSpread and kPack placers, which only learn
// of changes through the cluster's notifications, must pick what a
// brute-force scan of the current state picks after every step.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/core/orchestrator.h"
#include "src/hw/specs.h"
#include "src/sched/capacity.h"
#include "src/sched/placer.h"
#include "src/trace/gaming_trace.h"
#include "src/workload/serverless/serverless.h"
#include "src/workload/video/live.h"

namespace soccluster {
namespace {

constexpr int kNumSocs = 8;
constexpr int kNumOps = 120;

ClusterChassisSpec SmallChassis() {
  ClusterChassisSpec chassis = DefaultChassisSpec();
  chassis.num_socs = kNumSocs;
  chassis.num_pcbs = 2;
  chassis.socs_per_pcb = kNumSocs / 2;
  return chassis;
}

PlacementPolicy PolicyForSeed(uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return PlacementPolicy::kSpread;
    case 1:
      return PlacementPolicy::kPack;
    case 2:
      return PlacementPolicy::kBestFit;
    default:
      return PlacementPolicy::kRandomOfK;
  }
}

void Append(std::string* fingerprint, const char* tag, double value) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s=%.17g;", tag, value);
  *fingerprint += buffer;
}

void Append(std::string* fingerprint, const char* tag, int64_t value) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s=%lld;", tag,
                static_cast<long long>(value));
  *fingerprint += buffer;
}

// The invariant the capacity view exists to enforce: no dimension of any
// SoC is ever oversubscribed, no ledger ever goes negative.
void CheckNoOversubscription(const SocCluster& cluster,
                             const ServerlessPlatform& platform,
                             const GamingWorkload& gaming, int op) {
  for (int i = 0; i < cluster.num_socs(); ++i) {
    const SocModel& soc = cluster.soc(i);
    EXPECT_LE(soc.cpu_util(), 1.0 + 1e-9) << "op " << op << " soc " << i;
    EXPECT_GE(soc.cpu_util(), -1e-9) << "op " << op << " soc " << i;
    EXPECT_LE(soc.gpu_util(), 1.0 + 1e-9) << "op " << op << " soc " << i;
    EXPECT_GE(soc.gpu_util(), -1e-9) << "op " << op << " soc " << i;
    EXPECT_LE(soc.dsp_util(), 1.0 + 1e-9) << "op " << op << " soc " << i;
    EXPECT_GE(soc.dsp_util(), -1e-9) << "op " << op << " soc " << i;
    EXPECT_GE(soc.codec_sessions(), 0) << "op " << op << " soc " << i;
    EXPECT_LE(soc.codec_sessions(), soc.spec().max_codec_sessions)
        << "op " << op << " soc " << i;
    EXPECT_GE(platform.SocMemoryMb(i), -1e-6) << "op " << op << " soc " << i;
    EXPECT_LE(platform.SocMemoryMb(i),
              ServerlessPlatform::kSocMemoryBudgetMb + 1e-6)
        << "op " << op << " soc " << i;
    EXPECT_GE(gaming.SessionsOnSoc(i), 0) << "op " << op << " soc " << i;
    EXPECT_LE(gaming.SessionsOnSoc(i), GamingWorkload::kMaxSessionsPerSoc)
        << "op " << op << " soc " << i;
  }
}

// Fails, repairs and reboots one usable SoC without telling any service,
// as when the outage is shorter than the heartbeat detection window.
// Returns the victim, or -1 when too few SoCs are up to spare one.
int UnnoticedReboot(Simulator* sim, SocCluster* cluster, Rng* rng) {
  int usable = 0;
  for (int i = 0; i < cluster->num_socs(); ++i) {
    usable += cluster->soc(i).IsUsable() ? 1 : 0;
  }
  if (usable <= cluster->num_socs() / 2) {
    return -1;
  }
  int victim = static_cast<int>(rng->UniformInt(0, cluster->num_socs() - 1));
  while (!cluster->soc(victim).IsUsable()) {
    victim = (victim + 1) % cluster->num_socs();
  }
  SocModel& soc = cluster->soc(victim);
  soc.Fail();
  soc.Repair();
  SOC_CHECK(soc.PowerOn(Duration::Seconds(20), nullptr).ok());
  SOC_CHECK(sim->RunFor(Duration::Seconds(25)).ok());
  return victim;
}

// Drives one randomized scenario and returns a fingerprint of everything
// observable: per-op outcomes plus the full final per-SoC state. Two runs
// with the same seed must return byte-identical strings. With
// `unnoticed_reboots`, an eleventh op kind reboots a SoC behind the
// services' backs; without it the op stream is the original ten kinds.
std::string RunScenario(uint64_t seed, bool unnoticed_reboots) {
  const PlacementPolicy policy = PolicyForSeed(seed);
  Simulator sim(seed);
  SocCluster cluster(&sim, SmallChassis(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(30)).ok());

  Orchestrator orchestrator(&sim, &cluster, policy);
  ReplicaDemand service_a;
  service_a.cpu_util = 0.12;
  service_a.memory_gb = 1.0;
  service_a.gpu_util = 0.05;
  SOC_CHECK(orchestrator.RegisterWorkload("svc-a", service_a).ok());
  ReplicaDemand service_b;
  service_b.cpu_util = 0.2;
  service_b.memory_gb = 0.5;
  service_b.dsp_util = 0.1;
  SOC_CHECK(orchestrator.RegisterWorkload("svc-b", service_b).ok());

  LiveTranscodingService live(&sim, &cluster, policy);

  ServerlessPlatform platform(&sim, &cluster, ServerlessConfig{});
  FunctionSpec function;
  function.name = "probe";
  function.memory_mb = 512.0;
  function.cpu_util = 0.1;
  SOC_CHECK(platform.RegisterFunction(function).ok());

  GamingWorkload gaming(&sim, &cluster, GamingWorkloadConfig{});
  gaming.Start(Duration::Hours(12));

  Rng rng(seed * 31 + 7);
  std::vector<int64_t> stream_ids;
  std::vector<int> failed;
  std::string fingerprint;

  for (int op = 0; op < kNumOps; ++op) {
    const int64_t kind = rng.UniformInt(0, unnoticed_reboots ? 10 : 9);
    Append(&fingerprint, "op", kind);
    switch (kind) {
      case 0:
      case 1: {
        const int replicas = static_cast<int>(rng.UniformInt(0, 12));
        const Status status = orchestrator.ScaleTo("svc-a", replicas);
        Append(&fingerprint, "scale_a",
               static_cast<int64_t>(status.code()));
        break;
      }
      case 2: {
        const int replicas = static_cast<int>(rng.UniformInt(0, 8));
        const Status status = orchestrator.ScaleTo("svc-b", replicas);
        Append(&fingerprint, "scale_b",
               static_cast<int64_t>(status.code()));
        break;
      }
      case 3:
      case 4: {
        const VbenchVideo video = rng.Bernoulli(0.5)
                                      ? VbenchVideo::kV2Desktop
                                      : VbenchVideo::kV4Presentation;
        const TranscodeBackend backend = rng.Bernoulli(0.5)
                                             ? TranscodeBackend::kSocCpu
                                             : TranscodeBackend::kSocHwCodec;
        const Result<int64_t> stream = live.StartStream(video, backend);
        if (stream.ok()) {
          stream_ids.push_back(stream.value());
        }
        Append(&fingerprint, "stream",
               static_cast<int64_t>(stream.status().code()));
        break;
      }
      case 5: {
        if (!stream_ids.empty()) {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(stream_ids.size()) - 1));
          const int64_t id = stream_ids[pick];
          stream_ids.erase(stream_ids.begin() +
                           static_cast<ptrdiff_t>(pick));
          Append(&fingerprint, "stop",
                 static_cast<int64_t>(live.StopStream(id).code()));
        }
        break;
      }
      case 6: {
        for (int i = 0; i < 3; ++i) {
          SOC_CHECK(platform.Invoke("probe", nullptr).ok());
        }
        Append(&fingerprint, "invoked", platform.stats().invocations);
        break;
      }
      case 7: {
        // Fail one usable SoC, keeping a majority alive so the scenario
        // never wedges. Both failure-aware services are notified, exactly
        // as a HealthMonitor would.
        int usable = 0;
        for (int i = 0; i < cluster.num_socs(); ++i) {
          usable += cluster.soc(i).IsUsable() ? 1 : 0;
        }
        if (usable > kNumSocs / 2) {
          int victim = static_cast<int>(rng.UniformInt(0, kNumSocs - 1));
          while (!cluster.soc(victim).IsUsable()) {
            victim = (victim + 1) % kNumSocs;
          }
          cluster.soc(victim).Fail();
          orchestrator.OnSocFailure(victim);
          live.OnSocFailure(victim);
          failed.push_back(victim);
          Append(&fingerprint, "fail", static_cast<int64_t>(victim));
        }
        break;
      }
      case 8: {
        if (!failed.empty()) {
          const int index = failed.front();
          failed.erase(failed.begin());
          cluster.soc(index).Repair();
          SOC_CHECK(
              cluster.soc(index).PowerOn(Duration::Seconds(20), nullptr).ok());
          SOC_CHECK(sim.RunFor(Duration::Seconds(25)).ok());
          orchestrator.OnSocRecovered(index);
          Append(&fingerprint, "recover", static_cast<int64_t>(index));
        }
        break;
      }
      case 10: {
        Append(&fingerprint, "reboot",
               static_cast<int64_t>(UnnoticedReboot(&sim, &cluster, &rng)));
        break;
      }
      default: {
        const Duration step = Duration::Minutes(rng.UniformInt(1, 5));
        SOC_CHECK(sim.RunFor(step).ok());
        Append(&fingerprint, "ran_min", step.nanos());
        break;
      }
    }
    CheckNoOversubscription(cluster, platform, gaming, op);
  }

  // Final-state digest: any divergence in placement decisions, however it
  // happened, surfaces here.
  for (int i = 0; i < cluster.num_socs(); ++i) {
    const SocModel& soc = cluster.soc(i);
    Append(&fingerprint, "cpu", soc.cpu_util());
    Append(&fingerprint, "gpu", soc.gpu_util());
    Append(&fingerprint, "dsp", soc.dsp_util());
    Append(&fingerprint, "codec", static_cast<int64_t>(soc.codec_sessions()));
    Append(&fingerprint, "mem_mb", platform.SocMemoryMb(i));
    Append(&fingerprint, "slots",
           static_cast<int64_t>(gaming.SessionsOnSoc(i)));
  }
  Append(&fingerprint, "replicas",
         static_cast<int64_t>(orchestrator.TotalReplicas()));
  Append(&fingerprint, "pending", orchestrator.replicas_pending());
  Append(&fingerprint, "lost", orchestrator.replicas_lost());
  Append(&fingerprint, "recovered", orchestrator.replicas_recovered());
  Append(&fingerprint, "streams", static_cast<int64_t>(live.active_streams()));
  Append(&fingerprint, "degraded", live.streams_degraded());
  Append(&fingerprint, "dropped", live.streams_dropped());
  Append(&fingerprint, "invocations", platform.stats().invocations);
  Append(&fingerprint, "cold", platform.stats().cold_starts);
  Append(&fingerprint, "rejected", platform.stats().rejected);
  Append(&fingerprint, "sessions", gaming.sessions_started());
  Append(&fingerprint, "session_rejects", gaming.sessions_rejected());
  return fingerprint;
}

class SchedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Seeds 16/5/10/3 map to spread/pack/best-fit/random-of-k (seed % 4), so
// the sweep covers every policy, including both new ones.
INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedPropertyTest,
                         ::testing::Values(16u, 5u, 10u, 3u));

TEST_P(SchedPropertyTest, NeverOversubscribesAndReplaysBitIdentically) {
  const uint64_t seed = GetParam();
  const std::string first = RunScenario(seed, /*unnoticed_reboots=*/false);
  const std::string second = RunScenario(seed, /*unnoticed_reboots=*/false);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same seed must replay bit-identically "
                              "(policy: "
                           << PlacementPolicyName(PolicyForSeed(seed)) << ")";
}

TEST_P(SchedPropertyTest, UnnoticedRebootsNeverOversubscribeAndReplay) {
  const uint64_t seed = GetParam();
  const std::string first = RunScenario(seed, /*unnoticed_reboots=*/true);
  const std::string second = RunScenario(seed, /*unnoticed_reboots=*/true);
  EXPECT_NE(first.find("reboot="), std::string::npos);
  EXPECT_EQ(first, second) << "same seed must replay bit-identically "
                              "(policy: "
                           << PlacementPolicyName(PolicyForSeed(seed)) << ")";
}

// Every usable SoC carries exactly the SoC-side charges of the
// reservations still intact on it (same fail epoch), and the view's
// memory and slot ledgers hold exactly those of all live reservations.
void CheckReservationsAccountForCharges(const SocCapacityView& view,
                                        const std::vector<Reservation>& live,
                                        int step) {
  const SocCluster& cluster = view.cluster();
  for (int i = 0; i < cluster.num_socs(); ++i) {
    const SocModel& soc = cluster.soc(i);
    double cpu = 0.0;
    double gpu = 0.0;
    double dsp = 0.0;
    int codec = 0;
    double memory = 0.0;
    int slots = 0;
    for (const Reservation& r : live) {
      if (r.soc_index != i) {
        continue;
      }
      memory += r.demand.memory_gb;
      slots += r.demand.slots;
      if (r.fail_epoch == soc.fail_count()) {
        cpu += r.demand.cpu_util;
        gpu += r.demand.gpu_util;
        dsp += r.demand.dsp_util;
        codec += r.demand.codec_sessions;
      }
    }
    EXPECT_NEAR(view.MemoryUsedGb(i), memory, 1e-9)
        << "step " << step << " soc " << i;
    EXPECT_EQ(view.SlotsUsed(i), slots) << "step " << step << " soc " << i;
    if (!soc.IsUsable()) {
      continue;
    }
    EXPECT_NEAR(soc.cpu_util(), cpu, 1e-9) << "step " << step << " soc " << i;
    EXPECT_NEAR(soc.gpu_util(), gpu, 1e-9) << "step " << step << " soc " << i;
    EXPECT_NEAR(soc.dsp_util(), dsp, 1e-9) << "step " << step << " soc " << i;
    EXPECT_EQ(soc.codec_sessions(), codec) << "step " << step << " soc " << i;
  }
}

// One demand from a mix that touches every dimension the view charges.
PlacementDemand RandomDemand(Rng* rng) {
  PlacementDemand demand;
  switch (rng->UniformInt(0, 5)) {
    case 0:
      demand.cpu_util = 0.05 * static_cast<double>(rng->UniformInt(1, 6));
      break;
    case 1:
      demand.gpu_util = 0.1 * static_cast<double>(rng->UniformInt(1, 4));
      break;
    case 2:
      demand.dsp_util = 0.1 * static_cast<double>(rng->UniformInt(1, 4));
      break;
    case 3:
      demand.codec_sessions = static_cast<int>(rng->UniformInt(1, 2));
      demand.codec_pixel_rate = 1.0e6;
      break;
    case 4:
      demand.memory_gb = 0.5 * static_cast<double>(rng->UniformInt(1, 4));
      break;
    default:
      demand.slots = 1;
      break;
  }
  // Half the demands also carry CPU and memory, so one reservation mixes
  // SoC-side and ledgered dimensions.
  if (rng->Bernoulli(0.5)) {
    demand.cpu_util += 0.05;
    demand.memory_gb += 0.25;
  }
  return demand;
}

class ReservationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ReservationPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST_P(ReservationPropertyTest, ChargesMatchIntactReservations) {
  const uint64_t seed = GetParam();
  Simulator sim(seed);
  SocCluster cluster(&sim, SmallChassis(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(30)).ok());
  SocCapacityView::Options options;
  options.slot_capacity = 3;
  SocCapacityView view(&cluster, options);
  Rng rng(seed * 97 + 13);
  std::vector<Reservation> live;
  int reserves = 0;
  int wiped_releases = 0;
  for (int step = 0; step < 400; ++step) {
    const int64_t op = rng.UniformInt(0, 9);
    const int soc_index = static_cast<int>(rng.UniformInt(0, kNumSocs - 1));
    SocModel& soc = cluster.soc(soc_index);
    if (op <= 4) {
      const PlacementDemand demand = RandomDemand(&rng);
      if (view.Fits(soc_index, demand)) {
        live.push_back(view.Reserve(soc_index, demand));
        ++reserves;
      }
    } else if (op <= 7) {
      if (!live.empty()) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        wiped_releases += view.Release(live[pick]) ? 0 : 1;
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      }
    } else if (op == 8) {
      if (soc.IsUsable()) {
        soc.Fail();
      }
    } else if (soc.state() == SocPowerState::kFailed) {
      soc.Repair();
      SOC_CHECK(soc.PowerOn(Duration::Seconds(20), nullptr).ok());
      SOC_CHECK(sim.RunFor(Duration::Seconds(25)).ok());
    }
    CheckReservationsAccountForCharges(view, live, step);
  }
  for (const Reservation& r : live) {
    view.Release(r);
  }
  CheckReservationsAccountForCharges(view, {}, -1);
  // The interleaving must actually exercise both release paths.
  EXPECT_GT(reserves, 50);
  EXPECT_GT(wiped_releases, 0);
}

// The lowest key among SoCs that pass `allowed` and Fits, ties to the
// lowest index, with the key read from the placer's own Load().
int ReferencePick(const Placer& placer, PlacementPolicy policy,
                  const SocCapacityView& view, const PlacementDemand& demand,
                  const std::vector<bool>* allowed) {
  int best = -1;
  double best_key = std::numeric_limits<double>::infinity();
  for (int i = 0; i < view.num_socs(); ++i) {
    if ((allowed != nullptr && !(*allowed)[static_cast<size_t>(i)]) ||
        !view.Fits(i, demand)) {
      continue;
    }
    const double load = placer.Load(i);
    const double key = policy == PlacementPolicy::kPack ? -load : load;
    if (best < 0 || key < best_key) {
      best_key = key;
      best = i;
    }
  }
  return best;
}

class PlacementIndexPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementIndexPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST_P(PlacementIndexPropertyTest, ChurnedIndexPicksMatchBruteForce) {
  const uint64_t seed = GetParam();
  Simulator sim(seed);
  SocCluster cluster(&sim, SmallChassis(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(30)).ok());
  // The slotted view's placers pick slot demands, so their index leaves
  // out full pools; the second view has no pool and charges CPU too.
  SocCapacityView::Options slotted_options;
  slotted_options.slot_capacity = 2;
  SocCapacityView slotted(&cluster, slotted_options);
  SocCapacityView plain(&cluster);
  SocCapacityView* views[] = {&slotted, &plain};
  std::vector<double> penalty(static_cast<size_t>(kNumSocs), 0.0);

  struct Case {
    PlacementPolicy policy;
    SocCapacityView* view;
    std::unique_ptr<Placer> placer;
  };
  std::vector<Case> cases;
  for (const PlacementPolicy policy :
       {PlacementPolicy::kSpread, PlacementPolicy::kPack}) {
    for (SocCapacityView* view : views) {
      for (const bool penalized : {false, true}) {
        Placer::Options options;
        options.policy = policy;
        options.load.gpu_weight = 1.0;
        options.load.memory_weight_per_gb = 0.125;
        options.load.slot_weight = 0.25;
        auto placer = std::make_unique<Placer>(&sim, view, options);
        if (penalized) {
          placer->set_penalty(
              [&penalty](int i) { return penalty[static_cast<size_t>(i)]; });
        }
        cases.push_back(Case{policy, view, std::move(placer)});
      }
    }
  }

  Rng rng(seed * 131 + 7);
  std::vector<Reservation> live[2];
  int placed = 0;
  int refused = 0;
  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 11));
    const int soc_index = static_cast<int>(rng.UniformInt(0, kNumSocs - 1));
    SocModel& soc = cluster.soc(soc_index);
    const size_t v = static_cast<size_t>(rng.UniformInt(0, 1));
    if (op <= 3) {
      // Quarter steps, like the penalties, make exact key ties common.
      PlacementDemand demand;
      demand.cpu_util = 0.25 * static_cast<double>(rng.UniformInt(0, 2));
      demand.gpu_util = 0.25 * static_cast<double>(rng.UniformInt(0, 1));
      demand.memory_gb = static_cast<double>(rng.UniformInt(0, 2));
      demand.slots = views[v] == &slotted
                         ? static_cast<int>(rng.UniformInt(0, 1))
                         : 0;
      if (views[v]->Fits(soc_index, demand)) {
        live[v].push_back(views[v]->Reserve(soc_index, demand));
      }
    } else if (op <= 6) {
      if (!live[v].empty()) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live[v].size()) - 1));
        views[v]->Release(live[v][pick]);
        live[v].erase(live[v].begin() + static_cast<ptrdiff_t>(pick));
      }
    } else if (op == 7) {
      if (soc.IsUsable()) {
        soc.Fail();
      }
    } else if (op == 8) {
      // Boots finish at a later step's clock advance, so picks also see
      // booting SoCs.
      if (soc.state() == SocPowerState::kFailed) {
        soc.Repair();
        SOC_CHECK(soc.PowerOn(Duration::Seconds(20), nullptr).ok());
      }
      SOC_CHECK(sim.RunFor(Duration::Seconds(10)).ok());
    } else if (op == 9) {
      soc.SetQuarantined(!soc.quarantined());
    } else {
      penalty[static_cast<size_t>(soc_index)] =
          0.25 * static_cast<double>(rng.UniformInt(0, 2));
    }

    std::vector<bool> allowed(static_cast<size_t>(kNumSocs));
    for (int i = 0; i < kNumSocs; ++i) {
      allowed[static_cast<size_t>(i)] = rng.UniformInt(0, 3) != 0;
    }
    for (Case& c : cases) {
      PlacementDemand demand;
      demand.cpu_util = 0.25 * static_cast<double>(rng.UniformInt(0, 2));
      demand.memory_gb = static_cast<double>(rng.UniformInt(0, 2));
      demand.slots = c.view == &slotted ? 1 : 0;
      for (const bool filtered : {false, true}) {
        const int expected = ReferencePick(*c.placer, c.policy, *c.view,
                                           demand,
                                           filtered ? &allowed : nullptr);
        const int picked =
            filtered ? c.placer->Pick(demand,
                                      [&allowed](int i) {
                                        return allowed[static_cast<size_t>(i)];
                                      })
                     : c.placer->Pick(demand);
        ASSERT_EQ(picked, expected)
            << "step " << step << " op " << op << " "
            << PlacementPolicyName(c.policy)
            << (c.view == &slotted ? " slotted" : " plain")
            << (filtered ? " filtered" : "");
        (picked >= 0 ? placed : refused) += 1;
      }
    }
  }
  // Both outcomes must occur, or the churn proves little.
  EXPECT_GT(placed, 1000);
  EXPECT_GT(refused, 100);
}

}  // namespace
}  // namespace soccluster

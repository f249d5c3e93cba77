#include "src/workload/serverless/serverless.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/check.h"

namespace soccluster {

namespace {

constexpr double kMbPerGb = 1024.0;
constexpr uint64_t kSeed = 97;
// Brownout cold-start deferral: invocations that would cold-start wait in
// the qos admission queue (at most kDeferQueueCap of them, each for at most
// kDeferTimeout) instead of provisioning while power is scarce. Warm
// invocations keep flowing.
constexpr int kDeferQueueCap = 256;
constexpr Duration kDeferTimeout = Duration::Seconds(30);

SocCapacityView::Options ViewOptions() {
  SocCapacityView::Options options;
  // Function instances are charged against the platform's budget (the SoC
  // spec memory minus what Android keeps), not the raw spec memory.
  options.memory_capacity_gb =
      ServerlessPlatform::kSocMemoryBudgetMb / kMbPerGb;
  return options;
}

// Most-free-memory placement == spread by resident instance memory.
Placer::Options PlacerOptions() {
  Placer::Options options;
  options.policy = PlacementPolicy::kSpread;
  options.load.cpu_weight = 0.0;
  options.load.memory_weight_per_gb = 1.0;
  return options;
}

PlacementDemand InstanceDemand(double memory_mb) {
  PlacementDemand demand;
  demand.memory_gb = memory_mb / kMbPerGb;
  return demand;
}

}  // namespace

ServerlessPlatform::ServerlessPlatform(Simulator* sim, SocCluster* cluster,
                                       ServerlessConfig config)
    : sim_(sim), cluster_(cluster), config_(config), rng_(kSeed),
      view_(cluster, ViewOptions()),
      placer_(sim, &view_, PlacerOptions()),
      admission_(sim, "serverless"),
      ledger_(sim, {.service = "serverless",
                    .slo_threshold = Duration::Seconds(2),
                    .submitted = "serverless.invocations",
                    .completed = nullptr,
                    .shed = "serverless.qos_shed",
                    .expired = "serverless.qos_shed",
                    .failed = "serverless.failed",
                    .rejected = "serverless.rejected"}) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  MetricRegistry& metrics = sim_->metrics();
  cold_starts_metric_ = metrics.GetCounter("serverless.cold_starts");
  deferred_metric_ = metrics.GetCounter("serverless.deferred");
  latency_metric_ = metrics.GetHistogram("serverless.latency_ms");
  admission_.SetMaxQueue(kDeferQueueCap);
  admission_.set_on_drop(
      [this](const AdmissionQueue::Item& item,
             AdmissionQueue::DropReason reason) { OnAdmissionDrop(item, reason); });
}

void ServerlessPlatform::OnAdmissionDrop(const AdmissionQueue::Item& item,
                                         AdmissionQueue::DropReason reason) {
  Drop(InvocationRef::Unpack(item.handle), RequestLedger::FromDrop(reason),
       "qos_shed", AdmissionQueue::DropReasonName(reason));
}

void ServerlessPlatform::Drop(InvocationRef ref, RequestLedger::Cause cause,
                              const char* key, const char* value) {
  Invocation& invocation = invocations_[ref.index];
  Tracer& tracer = sim_->tracer();
  tracer.AddArg(invocation.span, key, value);
  ledger_.Finish(cause, View(invocation));
  tracer.EndSpan(invocation.span);
  invocations_.Free(ref.index);
}

void ServerlessPlatform::SetDeferColdStarts(bool defer) {
  if (defer == defer_cold_starts_) {
    return;
  }
  defer_cold_starts_ = defer;
  if (!defer_cold_starts_) {
    DrainDeferred();  // Parked cold starts may provision now.
  }
}

Status ServerlessPlatform::RegisterFunction(const FunctionSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("function name is empty");
  }
  if (functions_.contains(spec.name)) {
    return Status::AlreadyExists("function " + spec.name +
                                 " already registered");
  }
  if (spec.memory_mb <= 0.0 || spec.memory_mb > kSocMemoryBudgetMb ||
      spec.cpu_util <= 0.0 || spec.cpu_util > 1.0 ||
      spec.exec_median.nanos() <= 0) {
    return Status::InvalidArgument("invalid function spec");
  }
  functions_.emplace(spec.name, spec);
  return Status::Ok();
}

ServerlessPlatform::Instance* ServerlessPlatform::FindWarmInstance(
    const std::string& function) {
  for (auto& [id, instance] : instances_) {
    if (instance.function == function && !instance.busy &&
        view_.IsPlaceable(instance.memory.soc_index)) {
      return &instance;
    }
  }
  return nullptr;
}

Status ServerlessPlatform::Invoke(const std::string& function,
                                  Callback on_done, Priority priority,
                                  const ClientAttribution& client) {
  const auto it = functions_.find(function);
  if (it == functions_.end()) {
    return Status::NotFound("function " + function + " not registered");
  }
  ledger_.Submit(priority);
  if (priority > admission_.admit_floor()) {
    ledger_.Finish(RequestLedger::Cause::kAdmitFloor,
                   {priority, sim_->Now(), client});
    return Status::Ok();  // Shed by policy, not an API error.
  }
  if (!ledger_.BreakerAdmits(priority)) {
    ledger_.Finish(RequestLedger::Cause::kBreaker,
                   {priority, sim_->Now(), client});
    return Status::Ok();
  }
  const InvocationRef ref = invocations_.Allocate();
  Invocation& invocation = invocations_[ref.index];
  invocation.spec = &it->second;
  invocation.on_done = std::move(on_done);
  invocation.priority = priority;
  invocation.enqueue = sim_->Now();
  invocation.client = client;
  Tracer& tracer = sim_->tracer();
  invocation.ctx.id = next_invocation_id_++;
  invocation.span =
      tracer.BeginAsyncSpan("invocation", "serverless", invocation.ctx.id);
  tracer.AddArg(invocation.span, "function", function);
  TraceRequestSubmit(&tracer, &invocation.ctx, "serverless.request",
                     sim_->Now());

  if (Instance* warm = FindWarmInstance(function)) {
    sim_->Cancel(warm->eviction);
    warm->eviction = EventHandle();
    RunOn(warm, ref);
    return Status::Ok();
  }

  if (defer_cold_starts_) {
    // Brownout: park the cold start instead of provisioning while power
    // is scarce. The parked invocation runs when deferral releases, a
    // warm instance frees up, or its deferral deadline lapses (shed).
    tracer.AddArg(invocation.span, "deferred", "true");
    if (admission_.Offer(priority, kDeferTimeout, ref.Pack(),
                         &invocation.ctx)) {
      ++deferred_;
      deferred_metric_->Increment();
    }
    return Status::Ok();
  }

  ColdStart(ref);
  return Status::Ok();
}

void ServerlessPlatform::ColdStart(InvocationRef ref) {
  Invocation& invocation = invocations_[ref.index];
  const FunctionSpec& spec = *invocation.spec;
  const int soc_index = placer_.Pick(InstanceDemand(spec.memory_mb), nullptr,
                                     &invocation.ctx);
  if (soc_index < 0) {
    Drop(ref, RequestLedger::Cause::kNoCapacity, "rejected", "true");
    return;  // Shed, not an API error.
  }
  ++cold_starts_;
  cold_starts_metric_->Increment();
  invocation.phase_span = sim_->tracer().BeginAsyncSpan(
      "cold_start", "serverless", invocation.ctx.id, invocation.span);
  const Reservation memory =
      view_.Reserve(soc_index, InstanceDemand(spec.memory_mb));
  const int64_t id = next_instance_id_++;
  instances_.emplace(id, Instance{id, spec.name, memory, true, EventHandle()});
  invocation.instance_id = id;
  sim_->ScheduleAfter(spec.cold_start, [this, ref] {
    Invocation& provisioned = invocations_[ref.index];
    sim_->tracer().EndSpan(provisioned.phase_span);
    // A provisioning instance is busy, so it cannot have been evicted.
    const auto inst = instances_.find(provisioned.instance_id);
    SOC_CHECK(inst != instances_.end());
    RunOn(&inst->second, ref);
  }, "serverless.cold");
}

void ServerlessPlatform::DrainDeferred() {
  while (admission_.size() > 0) {
    std::optional<AdmissionQueue::Item> item = admission_.Pop();
    if (!item.has_value()) {
      return;  // Everything parked had timed out.
    }
    const InvocationRef ref = InvocationRef::Unpack(item->handle);
    if (Instance* warm =
            FindWarmInstance(invocations_[ref.index].spec->name)) {
      sim_->Cancel(warm->eviction);
      warm->eviction = EventHandle();
      RunOn(warm, ref);
      continue;
    }
    if (defer_cold_starts_) {
      // Still deferring and nothing warm for the head: keep waiting,
      // preserving FIFO order within the class.
      admission_.RestoreFront(std::move(*item));
      return;
    }
    ColdStart(ref);
  }
}

void ServerlessPlatform::RunOn(Instance* instance, InvocationRef ref) {
  Invocation& invocation = invocations_[ref.index];
  const FunctionSpec& spec = *invocation.spec;
  Tracer& tracer = sim_->tracer();
  const int soc_index = instance->memory.soc_index;
  const SocModel& soc = cluster_->soc(soc_index);
  // The SoC may have failed between provisioning and bring-up; shed the
  // invocation and reclaim the instance's memory.
  if (!view_.IsPlaceable(soc_index)) {
    Drop(ref, RequestLedger::Cause::kNoCapacity, "rejected", "true");
    instance->busy = false;
    Evict(instance->id);
    return;
  }
  instance->busy = true;
  TraceRequestStep(&tracer, &invocation.ctx, "dispatch");
  invocation.phase_span =
      tracer.BeginAsyncSpan("exec", "serverless", invocation.ctx.id,
                            invocation.span);
  tracer.AddArg(invocation.phase_span, "soc",
                static_cast<int64_t>(soc_index));
  // CPU may be saturated by co-resident invocations; clamp to headroom
  // (a real runtime would time-slice — the power model only needs the
  // aggregate utilization, which saturates the same way).
  PlacementDemand cpu;
  cpu.cpu_util = std::min(spec.cpu_util, soc.CpuHeadroom());
  invocation.grant = view_.Reserve(soc_index, cpu);
  // Thermally throttled SoCs execute functions proportionally slower —
  // this is the fail-slow signal the gray-failure scorer feeds on.
  invocation.exec = Duration::SecondsF(
      rng_.LogNormalMedian(spec.exec_median.ToSeconds(), spec.exec_sigma) /
      soc.throttle_factor());
  invocation.instance_id = instance->id;
  sim_->ScheduleAfter(
      invocation.exec, [this, ref] { FinishInvocation(ref); },
      "serverless.exec");
}

void ServerlessPlatform::FinishInvocation(InvocationRef ref) {
  Invocation& invocation = invocations_[ref.index];
  sim_->tracer().EndSpan(invocation.phase_span);
  // An executing instance is busy, so it cannot have been evicted.
  const auto it = instances_.find(invocation.instance_id);
  SOC_CHECK(it != instances_.end());
  // A fail/repair/reboot cycle before the execution ends leaves the SoC
  // usable but wiped the CPU grant (and the invocation with it).
  const int soc_index = invocation.grant.soc_index;
  const bool alive = view_.Release(invocation.grant);
  // Zombie hosts keep heartbeating but drop the work on the floor: the
  // invocation fails even though the SoC looks healthy to the monitor.
  const bool ok = alive && !cluster_->soc(soc_index).zombie();
  ledger_.ReportAttempt(soc_index, invocation.exec, ok);
  if (ok) {
    const double latency_ms = (sim_->Now() - invocation.enqueue).ToMillis();
    latency_ms_.Add(latency_ms);
    latency_metric_->Observe(latency_ms);
    ledger_.Complete(View(invocation));
  } else {
    sim_->tracer().AddArg(invocation.span, "failed", "true");
    ledger_.Finish(RequestLedger::Cause::kFailed, View(invocation));
  }
  sim_->tracer().EndSpan(invocation.span);
  Callback on_done = std::move(invocation.on_done);
  invocations_.Free(ref.index);
  it->second.busy = false;
  if (config_.keep_alive.IsZero()) {
    Evict(it->first);
  } else {
    ArmEviction(&it->second);
  }
  if (admission_.size() > 0) {
    DrainDeferred();  // The now-warm instance may serve a parked invocation.
  }
  if (on_done) {
    on_done();
  }
}

void ServerlessPlatform::ArmEviction(Instance* instance) {
  const int64_t id = instance->id;
  instance->eviction =
      sim_->ScheduleAfter(config_.keep_alive, [this, id] { Evict(id); },
                          "serverless.ttl");
}

void ServerlessPlatform::Evict(int64_t instance_id) {
  const auto it = instances_.find(instance_id);
  if (it == instances_.end() || it->second.busy) {
    return;
  }
  view_.Release(it->second.memory);
  sim_->Cancel(it->second.eviction);
  instances_.erase(it);
}

int ServerlessPlatform::InstanceCount(const std::string& function) const {
  int count = 0;
  for (const auto& [id, instance] : instances_) {
    if (instance.function == function) {
      ++count;
    }
  }
  return count;
}

int ServerlessPlatform::WarmInstanceCount(const std::string& function) const {
  int count = 0;
  for (const auto& [id, instance] : instances_) {
    if (instance.function == function && !instance.busy) {
      ++count;
    }
  }
  return count;
}

double ServerlessPlatform::SocMemoryMb(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, cluster_->num_socs());
  return view_.MemoryUsedGb(soc_index) * kMbPerGb;
}

ServerlessWorkload::ServerlessWorkload(Simulator* sim,
                                       ServerlessPlatform* platform,
                                       int num_functions,
                                       double total_rate_per_s, uint64_t seed)
    : sim_(sim), platform_(platform), num_functions_(num_functions),
      total_rate_(total_rate_per_s), rng_(seed) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(platform_ != nullptr);
  SOC_CHECK_GT(num_functions_, 0);
  SOC_CHECK_GT(total_rate_, 0.0);
}

Status ServerlessWorkload::Start(Duration duration) {
  // Zipf(1.1) popularity; execution profiles scale with rank (popular
  // functions are short and light, tail functions are heavier).
  double normalizer = 0.0;
  for (int rank = 1; rank <= num_functions_; ++rank) {
    normalizer += 1.0 / std::pow(rank, 1.1);
  }
  double cumulative = 0.0;
  for (int rank = 1; rank <= num_functions_; ++rank) {
    FunctionSpec spec;
    spec.name = "fn" + std::to_string(rank);
    spec.memory_mb = 128.0 + 64.0 * (rank % 5);
    spec.exec_median = Duration::MillisF(40.0 + 30.0 * (rank % 7));
    spec.exec_sigma = 0.6;
    spec.cpu_util = 0.10 + 0.04 * (rank % 4);
    SOC_RETURN_IF_ERROR(platform_->RegisterFunction(spec));
    names_.push_back(spec.name);
    cumulative += (1.0 / std::pow(rank, 1.1)) / normalizer;
    cumulative_popularity_.push_back(cumulative);
  }
  source_ = std::make_unique<OpenLoopSource>(
      sim_, total_rate_, duration, [this] { InvokeOne(); }, &rng_,
      "serverless.arrival");
  source_->Start();
  return Status::Ok();
}

void ServerlessWorkload::InvokeOne() {
  const double u = rng_.NextDouble();
  size_t pick = cumulative_popularity_.size() - 1;
  for (size_t i = 0; i < cumulative_popularity_.size(); ++i) {
    if (u < cumulative_popularity_[i]) {
      pick = i;
      break;
    }
  }
  const Status status = platform_->Invoke(names_[pick], nullptr);
  SOC_CHECK(status.ok()) << status.ToString();
}

void ServerlessPlatform::DigestState(StateDigest& digest) const {
  digest.Mix(rng_.StateFingerprint());
  view_.DigestState(digest);
  admission_.DigestState(digest);
  digest.Mix(static_cast<int>(admission_.admit_floor()));
  digest.Mix(defer_cold_starts_);
  digest.Mix(static_cast<uint64_t>(instances_.size()));
  for (const auto& [id, instance] : instances_) {
    digest.Mix(id);
    digest.Mix(std::string_view(instance.function));
    digest.Mix(instance.memory.soc_index);
    digest.Mix(instance.busy);
  }
  digest.Mix(next_instance_id_);
  digest.Mix(next_invocation_id_);
  digest.Mix(ledger_.submitted());
  digest.Mix(cold_starts_);
  digest.Mix(ledger_.CountOf(RequestLedger::Cause::kNoCapacity));
  digest.Mix(deferred_);
  digest.Mix(ledger_.policy_drops());
  digest.Mix(static_cast<uint64_t>(latency_ms_.count()));
  for (const double sample : latency_ms_.samples()) {
    digest.Mix(sample);
  }
}

}  // namespace soccluster

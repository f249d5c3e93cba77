// Tests for the observability layer: JSON writer, metrics registry, span
// tracer, exporters, example flag wiring — and the determinism contract
// that recording never changes a run's results.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/base/digest.h"
#include "src/cluster/cluster.h"
#include "src/obs/export.h"
#include "src/obs/flags.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/trace/loadgen.h"
#include "src/workload/dl/serving.h"

namespace soccluster {
namespace {

// ---------------------------------------------------------------------------
// JSON writer.

TEST(JsonWriterTest, WritesNestedDocument) {
  std::ostringstream out;
  JsonWriter w(&out);
  w.BeginObject();
  w.KeyValue("name", "demo");
  w.Key("values");
  w.BeginArray();
  w.Value(1);
  w.Value(2.5);
  w.Value(true);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.KeyValue("k", int64_t{-7});
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.depth(), 0u);
  EXPECT_EQ(out.str(),
            "{\"name\":\"demo\",\"values\":[1,2.5,true],\"nested\":{\"k\":-7}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(2.0), "2");
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricRegistryTest, InstrumentsAreStableAndCumulative) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("sub.count");
  c->Increment();
  c->Add(4);
  // Same name returns the same instrument.
  EXPECT_EQ(registry.GetCounter("sub.count"), c);
  EXPECT_EQ(c->value(), 5);

  Gauge* g = registry.GetGauge("sub.depth");
  g->Set(3.0);
  g->SetMax(1.0);  // Lower: no change.
  g->SetMax(9.0);
  EXPECT_DOUBLE_EQ(g->value(), 9.0);

  HistogramMetric* h = registry.GetHistogram("sub.latency_ms");
  h->Observe(10.0);
  h->Observe(30.0);
  EXPECT_EQ(h->count(), 2);
  EXPECT_DOUBLE_EQ(h->running().mean(), 20.0);

  TimeSeries* s = registry.GetTimeSeries("sub.power_watts");
  s->Append(SimTime::Zero(), 1.5);
  EXPECT_EQ(s->size(), 1u);
  EXPECT_EQ(registry.size(), 4u);
}

TEST(MetricRegistryTest, LabelsDistinguishInstruments) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("req", {{"soc", "0"}});
  Counter* b = registry.GetCounter("req", {{"soc", "1"}});
  EXPECT_NE(a, b);
  a->Increment();
  EXPECT_EQ(b->value(), 0);
  EXPECT_EQ(registry.GetCounter("req", {{"soc", "0"}}), a);
}

TEST(MetricRegistryTest, EntriesPreserveRegistrationOrder) {
  MetricRegistry registry;
  registry.GetCounter("z.first");
  registry.GetGauge("a.second");
  registry.GetHistogram("m.third");
  const auto entries = registry.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "z.first");
  EXPECT_NE(entries[0].counter, nullptr);
  EXPECT_EQ(entries[1].name, "a.second");
  EXPECT_NE(entries[1].gauge, nullptr);
  EXPECT_EQ(entries[2].name, "m.third");
  EXPECT_NE(entries[2].histogram, nullptr);
}

TEST(MetricRegistryTest, WriteJsonAndJsonlSnapshots) {
  MetricRegistry registry;
  registry.GetCounter("c")->Add(3);
  registry.GetHistogram("h")->Observe(1.0);
  registry.GetTimeSeries("s")->Append(SimTime::Zero() + Duration::Seconds(1),
                                      42.0);
  std::ostringstream json;
  registry.WriteJson(json);
  std::string doc = json.str();
  while (!doc.empty() && doc.back() == '\n') {
    doc.pop_back();
  }
  EXPECT_EQ(doc.front(), '[');
  EXPECT_EQ(doc.back(), ']');
  EXPECT_NE(doc.find("\"c\""), std::string::npos);
  EXPECT_NE(doc.find("42"), std::string::npos);

  std::ostringstream jsonl;
  registry.WriteJsonl(jsonl);
  const std::string lines = jsonl.str();
  // One line per instrument, each a JSON object.
  int newlines = 0;
  for (char ch : lines) {
    newlines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(newlines, 3);
  EXPECT_EQ(lines.front(), '{');
}

// ---------------------------------------------------------------------------
// Tracer.

TEST(TracerTest, DisabledTracerIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  const SpanId id = tracer.BeginSpan("work", "test");
  EXPECT_EQ(id, 0u);
  tracer.AddArg(id, "k", "v");  // No-ops on id 0.
  tracer.EndSpan(id);
  tracer.Instant("marker", "test");
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.instants().empty());
}

TEST(TracerTest, SpansStampSimulatedTime) {
  Simulator sim;
  Tracer& tracer = sim.tracer();
  tracer.Enable();
  SpanId id = 0;
  sim.ScheduleAfter(Duration::Seconds(1),
                    [&] { id = tracer.BeginSpan("work", "test", /*track=*/3); });
  sim.ScheduleAfter(Duration::Seconds(4), [&] { tracer.EndSpan(id); });
  sim.Run();
  ASSERT_EQ(tracer.spans().size(), 1u);
  const TraceSpan& span = tracer.spans().front();
  EXPECT_EQ(span.name, "work");
  EXPECT_EQ(span.track, 3);
  EXPECT_FALSE(span.open);
  EXPECT_DOUBLE_EQ((span.end - span.begin).ToSeconds(), 3.0);
}

TEST(TracerTest, AsyncSpansCarryGroupAndArgs) {
  Simulator sim;
  Tracer& tracer = sim.tracer();
  tracer.Enable();
  const SpanId request = tracer.BeginAsyncSpan("request", "svc", /*async_id=*/9);
  const SpanId child = tracer.BeginAsyncSpan("queue", "svc", 9, request);
  tracer.AddArg(request, "model", "resnet50");
  tracer.AddArg(request, "size", int64_t{64});
  tracer.AddArg(request, "util", 0.5);
  tracer.EndSpan(child);
  tracer.EndSpan(request);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].async_id, 9u);
  EXPECT_EQ(tracer.spans()[1].parent, request);
  ASSERT_EQ(tracer.spans()[0].args.size(), 3u);
  EXPECT_EQ(tracer.spans()[0].args[0].second, "resnet50");
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(TracerTest, SpanCapDropsAndCounts) {
  Simulator sim;
  Tracer& tracer = sim.tracer();
  tracer.Enable();
  tracer.set_max_spans(2);
  EXPECT_NE(tracer.BeginSpan("a", "t"), 0u);
  EXPECT_NE(tracer.BeginSpan("b", "t"), 0u);
  EXPECT_EQ(tracer.BeginSpan("c", "t"), 0u);
  tracer.Instant("d", "t");  // Shares the cap: dropped too.
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_TRUE(tracer.instants().empty());
  EXPECT_EQ(tracer.dropped_spans(), 2);
  tracer.Clear();
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_NE(tracer.BeginSpan("e", "t"), 0u);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ExportTest, ChromeTraceContainsAllEventKinds) {
  Simulator sim;
  sim.tracer().Enable();
  sim.tracer().SetTrackName(3, "soc03");
  SpanId sync = 0;
  sim.ScheduleAfter(Duration::Millis(1), [&] {
    sync = sim.tracer().BeginSpan("infer", "dl", /*track=*/3);
    sim.tracer().Instant("marker", "dl");
  });
  sim.ScheduleAfter(Duration::Millis(5), [&] { sim.tracer().EndSpan(sync); });
  const SpanId async = sim.tracer().BeginAsyncSpan("request", "dl", 1);
  sim.ScheduleAfter(Duration::Millis(6), [&] { sim.tracer().EndSpan(async); });
  sim.metrics().GetTimeSeries("cluster.power_watts")
      ->Append(SimTime::Zero(), 120.0);
  sim.Run();

  std::ostringstream out;
  WriteChromeTrace(sim.obs(), out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // Sync span.
  EXPECT_NE(trace.find("\"ph\":\"b\""), std::string::npos);  // Async begin.
  EXPECT_NE(trace.find("\"ph\":\"e\""), std::string::npos);  // Async end.
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);  // Instant.
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);  // Counter.
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);  // Metadata.
  EXPECT_NE(trace.find("soc03"), std::string::npos);
  EXPECT_NE(trace.find("cluster.power_watts"), std::string::npos);
}

TEST(ExportTest, FlagsRoundTripThroughFiles) {
  const std::string trace_path = "/tmp/obs_test_trace.json";
  const std::string metrics_path = "/tmp/obs_test_metrics.jsonl";
  const char* argv[] = {"prog", "--trace-out=/tmp/obs_test_trace.json",
                        "--metrics-out", "/tmp/obs_test_metrics.jsonl"};
  const ObsFlags flags = ParseObsFlags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.trace_out, trace_path);
  EXPECT_EQ(flags.metrics_out, metrics_path);

  Simulator sim;
  ApplyObsFlags(flags, &sim.obs());
  EXPECT_TRUE(sim.tracer().enabled());
  const SpanId span = sim.tracer().BeginSpan("work", "test");
  sim.tracer().EndSpan(span);
  sim.metrics().GetCounter("n")->Increment();
  ASSERT_TRUE(FlushObsFlags(flags, sim.obs()).ok());

  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace;
  trace << trace_in.rdbuf();
  EXPECT_NE(trace.str().find("\"work\""), std::string::npos);

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics;
  metrics << metrics_in.rdbuf();
  // The snapshot holds the simulator's own engine counters plus ours.
  EXPECT_NE(metrics.str().find("\"n\""), std::string::npos);
  EXPECT_NE(metrics.str().find("sim.events_processed"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(ExportTest, DigestFlagReportsFailedWrite) {
  // /dev/full opens fine and fails every write, so only a check after the
  // write catches it.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  ObsFlags flags;
  flags.digest_out = "/dev/full";
  EXPECT_FALSE(FlushDigestFlag(flags, 0x1234).ok());
}

TEST(ExportTest, EmptyObservabilityEmitsSelfDescribingTrace) {
  // Nothing recorded at all: the export is still a complete document with
  // the tracer-health metadata, so downstream tooling never special-cases
  // an empty run.
  Observability obs;
  std::ostringstream out;
  WriteChromeTrace(obs, out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"tracer_stats\""), std::string::npos);
  EXPECT_NE(trace.find("\"dropped_spans\":0"), std::string::npos);
  EXPECT_NE(trace.find("\"spans\":0"), std::string::npos);
  EXPECT_NE(trace.find("\"flows\":0"), std::string::npos);
  // No event payloads beyond metadata.
  EXPECT_EQ(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(trace.find("\"ph\":\"C\""), std::string::npos);

  std::ostringstream metrics;
  obs.metrics.WriteJson(metrics);
  std::string doc = metrics.str();
  while (!doc.empty() && doc.back() == '\n') {
    doc.pop_back();
  }
  EXPECT_EQ(doc, "[]");
}

TEST(ExportTest, SpanCapIsSurfacedInTraceMetadata) {
  // A truncated trace must say so in-band: the tracer_stats metadata event
  // carries the dropped count alongside what survived.
  Simulator sim;
  Tracer& tracer = sim.tracer();
  tracer.Enable();
  tracer.set_max_spans(2);
  const SpanId a = tracer.BeginSpan("a", "t");
  const SpanId b = tracer.BeginSpan("b", "t");
  tracer.EndSpan(a);
  tracer.EndSpan(b);
  tracer.BeginSpan("c", "t");   // Dropped.
  tracer.Instant("d", "t");     // Dropped.
  tracer.FlowBegin("e", "t", 1);  // Dropped: flows share the cap.
  std::ostringstream out;
  WriteChromeTrace(sim.obs(), out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"dropped_spans\":3"), std::string::npos);
  EXPECT_NE(trace.find("\"spans\":2"), std::string::npos);
  EXPECT_NE(trace.find("\"flows\":0"), std::string::npos);
  EXPECT_EQ(trace.find("\"name\":\"c\""), std::string::npos);
}

TEST(ExportTest, EscapesSpanNamesLabelsAndArgs) {
  // Hostile strings in names, track labels, and args must come out as
  // escaped JSON, never as raw quotes/newlines that break the document.
  Simulator sim;
  Tracer& tracer = sim.tracer();
  tracer.Enable();
  tracer.SetTrackName(1, "soc\"0\\1");
  const SpanId span = tracer.BeginSpan("sp\"an\n", "cat\\egory", /*track=*/1);
  tracer.AddArg(span, "mo\"del", "res\nnet");
  tracer.EndSpan(span);
  std::ostringstream out;
  WriteChromeTrace(sim.obs(), out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("sp\\\"an\\n"), std::string::npos);
  EXPECT_NE(trace.find("cat\\\\egory"), std::string::npos);
  EXPECT_NE(trace.find("soc\\\"0\\\\1"), std::string::npos);
  EXPECT_NE(trace.find("mo\\\"del"), std::string::npos);
  EXPECT_NE(trace.find("res\\nnet"), std::string::npos);
  // No raw newline escaped the writer (the document is one line).
  EXPECT_EQ(trace.find('\n'), trace.size() - 1);
}

TEST(ExportTest, FlowChainExportsPerfettoPhases) {
  Simulator sim;
  Tracer& tracer = sim.tracer();
  tracer.Enable();
  tracer.FlowBegin("submit", "dl.serving", /*flow_id=*/77, /*track=*/1);
  tracer.FlowStep("place", "dl.serving", 77, /*track=*/2);
  tracer.FlowEnd("complete", "dl.serving", 77, /*track=*/3);
  ASSERT_EQ(tracer.flows().size(), 3u);
  std::ostringstream out;
  WriteChromeTrace(sim.obs(), out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // Flow start.
  EXPECT_NE(trace.find("\"ph\":\"t\""), std::string::npos);  // Flow step.
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);  // Flow end.
  EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);  // End binding.
  EXPECT_NE(trace.find("\"id\":77"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"place\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TimeSeries memory bound.

TEST(TimeSeriesTest, DownsampleCapsMemoryAndCountsDrops) {
  MetricRegistry registry;
  TimeSeries* series = registry.GetTimeSeries("power_watts");
  series->set_max_points(8);
  for (int i = 0; i < 1000; ++i) {
    series->Append(SimTime::Zero() + Duration::Seconds(i),
                   static_cast<double>(i));
  }
  EXPECT_LE(series->size(), 8u);
  EXPECT_GT(series->stride(), 1);
  // Every appended point is accounted for: kept + dropped.
  EXPECT_EQ(static_cast<int64_t>(series->size()) + series->dropped_points(),
            1000);
  // Retained points stay in time order and span the run.
  const auto& points = series->points();
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].time, points[i].time);
  }
}

TEST(TimeSeriesTest, UncappedSeriesKeepsEverything) {
  MetricRegistry registry;
  TimeSeries* series = registry.GetTimeSeries("latency_ms");
  for (int i = 0; i < 100; ++i) {
    series->Append(SimTime::Zero() + Duration::Millis(i), 1.0);
  }
  EXPECT_EQ(series->size(), 100u);
  EXPECT_EQ(series->dropped_points(), 0);
  EXPECT_EQ(series->stride(), 1);
}

// ---------------------------------------------------------------------------
// Determinism: tracing on or off never changes a run's results.

struct FleetRunResult {
  int64_t completed = 0;
  int64_t events = 0;
  double latency_mean = 0.0;
  double energy_joules = 0.0;
  double end_seconds = 0.0;
};

FleetRunResult RunFleet(bool tracing) {
  Simulator sim(42);
  if (tracing) {
    sim.tracer().Enable();
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(4);
  fleet.SetResponseSize(DataSize::Kilobytes(64.0));
  OpenLoopSource source(&sim, /*rate_per_s=*/40.0, Duration::Seconds(20),
                        [&fleet] { fleet.Submit(); });
  source.Start();
  sim.Run();
  FleetRunResult result;
  result.completed = fleet.completed();
  result.events = sim.events_processed();
  result.latency_mean = fleet.latencies().Mean();
  result.energy_joules = cluster.TotalEnergy().joules();
  result.end_seconds = sim.Now().ToSeconds();
  return result;
}

TEST(DeterminismTest, TracingDoesNotPerturbTheSimulation) {
  const FleetRunResult off = RunFleet(false);
  const FleetRunResult on = RunFleet(true);
  EXPECT_GT(off.completed, 0);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.events, on.events);
  EXPECT_DOUBLE_EQ(off.latency_mean, on.latency_mean);
  EXPECT_DOUBLE_EQ(off.energy_joules, on.energy_joules);
  EXPECT_DOUBLE_EQ(off.end_seconds, on.end_seconds);
}

// The acceptance bar for the whole layer: not just equal summary numbers,
// but bit-identical state digests with every observability feature on.
uint64_t RunFleetDigest(bool obs_on) {
  Simulator sim(42);
  if (obs_on) {
    sim.tracer().Enable();
    // SLO evaluation on top of tracing.
    SloSpec spec;
    spec.name = "dl.serving/test";
    spec.service = "dl.serving";
    spec.class_name = "standard";
    sim.obs().slos.Register(spec);
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(30)).ok());
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(4);
  fleet.SetResponseSize(DataSize::Kilobytes(64.0));
  OpenLoopSource source(&sim, /*rate_per_s=*/40.0, Duration::Seconds(20),
                        [&fleet] { fleet.Submit(); });
  source.Start();
  sim.Run();
  StateDigest digest;
  sim.DigestState(digest);
  cluster.DigestState(digest);
  fleet.DigestState(digest);
  return digest.value();
}

TEST(DeterminismTest, StateDigestsIdenticalWithObservabilityOn) {
  const uint64_t off = RunFleetDigest(false);
  const uint64_t on = RunFleetDigest(true);
  EXPECT_EQ(off, on);
  // And the digest itself is reproducible run-to-run.
  EXPECT_EQ(off, RunFleetDigest(false));
}

TEST(DeterminismTest, TracedRunActuallyRecords) {
  Simulator sim(42);
  sim.tracer().Enable();
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(30));
  SOC_CHECK(status.ok());
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(2);
  fleet.Submit();
  sim.Run();
  bool saw_request = false;
  bool saw_infer = false;
  for (const TraceSpan& span : sim.tracer().spans()) {
    saw_request |= span.name == "request" && span.category == "dl.serving";
    saw_infer |= span.name == "infer" && !span.open;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_infer);
}

// ---------------------------------------------------------------------------
// Simulator engine counters in the registry.

TEST(SimulatorMetricsTest, EngineCountersReachTheRegistry) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAfter(Duration::Millis(i), [] {});
  }
  const EventHandle doomed = sim.ScheduleAfter(Duration::Seconds(1), [] {});
  EXPECT_TRUE(sim.Cancel(doomed));
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 10);
  EXPECT_EQ(sim.events_cancelled(), 1);
  EXPECT_GE(sim.max_pending_events(), 10);
  EXPECT_GE(sim.max_callback_depth(), 1);
  // The same counters are visible through the registry.
  EXPECT_EQ(sim.metrics().GetCounter("sim.events_processed")->value(), 10);
  EXPECT_EQ(sim.metrics().GetCounter("sim.events_cancelled")->value(), 1);
}

// ---------------------------------------------------------------------------
// PeriodicTask: Stop then Start re-arms cleanly.

TEST(PeriodicTaskTest, StopThenStartReArms) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, Duration::Seconds(1), [&fired] { ++fired; });
  task.Start();
  Status status = sim.RunFor(Duration::MillisF(3500.0));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(fired, 3);
  task.Stop();
  EXPECT_FALSE(task.running());
  status = sim.RunFor(Duration::Seconds(5));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(fired, 3);  // Stopped: no fires.
  task.Start();
  EXPECT_TRUE(task.running());
  // First fire after restart lands one full period later.
  status = sim.RunFor(Duration::MillisF(999.0));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(fired, 3);
  status = sim.RunFor(Duration::MillisF(2.0));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(fired, 4);
}

TEST(PeriodicTaskTest, RedundantStartAndStopAreSafe) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, Duration::Seconds(1), [&fired] { ++fired; });
  task.Start();
  task.Start();  // Idempotent: no double-arming.
  Status status = sim.RunFor(Duration::MillisF(1500.0));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(fired, 1);
  task.Stop();
  task.Stop();  // Idempotent.
  status = sim.RunFor(Duration::Seconds(2));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace soccluster

// TelemetrySampler, SpaceSavingSketch, SloEngine, DiagnoseTelemetry and the
// Perfetto counter tracks.
//
// The telemetry layer's contract (telemetry.h): fixed-cadence virtual-time
// windows closed purely from observation timestamps; bounded per-series rings
// that count what they evict; a Space-Saving sketch whose reported count
// overestimates the truth by at most its per-entry error; and — because the
// sampler is fed from the kernel's merged observation stream — a JSON export
// that is byte-identical at any shard count.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/eden/analysis.h"
#include "src/eden/json.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/random.h"
#include "src/eden/slo.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"
#include "src/eden/trace_export.h"
#include "src/filters/transforms.h"

namespace eden {
namespace {

ValueList MakeLines(int n, uint64_t seed = 83) {
  Rng rng(seed);
  ValueList items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line = rng.Chance(0.25) ? "C " : "      ";
    line += rng.Word(3, 10) + " = " + rng.Word(1, 6);
    items.push_back(Value(std::move(line)));
  }
  return items;
}

std::vector<TransformFactory> CopyChain(size_t n) {
  std::vector<TransformFactory> chain;
  for (size_t i = 0; i < n; ++i) {
    chain.push_back([] {
      return std::make_unique<LambdaTransform>(
          "copy",
          [](const Value& v, const Transform::EmitFn& emit) { emit(kChanOut, v); });
    });
  }
  return chain;
}

// The sharded_test workload: a read-only chain with every Eject on its own
// node, so shard counts > 1 really split the topology.
ValueList RunFig2(int shards, TelemetrySampler* telemetry) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  if (telemetry != nullptr) {
    kernel.set_telemetry(telemetry);
  }
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(80), CopyChain(4), options);
  if (telemetry != nullptr) {
    handle.LabelAll(*telemetry);
  }
  kernel.RunUntil([&handle] { return handle.done(); });
  EXPECT_TRUE(kernel.Run());
  return handle.output();
}

// The bench_overload scenario scaled down: a conventional pipeline whose
// consumer is ~10x slower than its producer, with tiny watermarks, so hiwat
// flow events and a long saturated phase are guaranteed.
ValueList RunOverload(int shards, TelemetrySampler* telemetry,
                      InvariantMonitor* monitor = nullptr,
                      TraceRecorder* trace = nullptr,
                      MetricsRegistry* metrics = nullptr) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  if (telemetry != nullptr) {
    kernel.set_telemetry(telemetry);
  }
  if (metrics != nullptr) {
    kernel.set_metrics(metrics);
  }
  if (monitor != nullptr) {
    kernel.set_monitor(monitor);
  }
  if (trace != nullptr) {
    kernel.set_tracer(trace->Hook());
  }
  PipelineOptions options;
  options.discipline = Discipline::kConventional;
  options.distinct_nodes = true;
  options.processing_cost = 2500;
  options.pipe_capacity = 4;
  options.acceptor_capacity = 4;
  options.work_ahead = 4;
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(48), CopyChain(1), options);
  if (telemetry != nullptr) {
    handle.LabelAll(*telemetry);
  }
  if (trace != nullptr) {
    handle.LabelAll(*trace);
  }
  kernel.RunUntil([&handle] { return handle.done(); });
  EXPECT_TRUE(kernel.Run());
  return handle.output();
}

TraceEvent Invoke(Tick at, Uid to, InvocationId id) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kInvoke;
  e.at = at;
  e.to = to;
  e.op = "Transfer";
  e.id = id;
  return e;
}

// ---------------------------------------------------------------- the sketch

TEST(SpaceSavingSketchTest, GuaranteesHeavyHittersWithinErrorBound) {
  // 60 hits on "hot" drowned in 40 singleton keys, capacity 4: the true
  // heavy hitter (count > total/4) must survive, and its reported count may
  // overestimate the truth by at most its per-entry error.
  SpaceSavingSketch<std::string> sketch(4);
  for (int i = 0; i < 100; ++i) {
    if (i % 5 != 0) {
      sketch.Hit("hot");
    } else {
      sketch.Hit("cold" + std::to_string(i));
    }
  }
  EXPECT_EQ(sketch.total(), 100u);
  std::vector<SpaceSavingSketch<std::string>::Entry> top = sketch.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().key, "hot");
  const uint64_t kTrueHot = 80;
  EXPECT_GE(top.front().count, kTrueHot);  // never undercounts
  EXPECT_LE(top.front().count - top.front().error, kTrueHot);
  EXPECT_LE(top.front().error, sketch.total() / sketch.capacity());
  EXPECT_LE(top.size(), 4u);
}

TEST(SpaceSavingSketchTest, EvictsSmallestKeyAmongTiedMinima) {
  SpaceSavingSketch<std::string> sketch(2);
  sketch.Hit("a");
  sketch.Hit("b");  // both count 1; table full
  sketch.Hit("c");  // evicts "a" (smallest key among the tie), inherits 1
  std::vector<SpaceSavingSketch<std::string>::Entry> top = sketch.TopK();
  ASSERT_EQ(top.size(), 2u);
  // Ties sort ascending by key: "b" (1, exact) then "c" (2 = floor+1, err 1).
  EXPECT_EQ(top.front().key, "c");
  EXPECT_EQ(top.front().count, 2u);
  EXPECT_EQ(top.front().error, 1u);
  EXPECT_EQ(top.back().key, "b");
  EXPECT_EQ(top.back().error, 0u);
}

// ------------------------------------------------------------ window closing

TEST(TelemetrySamplerTest, ClosesWindowsFromObservationTimestamps) {
  TelemetrySampler::Options options;
  options.cadence = 100;
  TelemetrySampler sampler(options);
  Uid stage(7, 1);
  sampler.Label(stage, "filter1");

  sampler.OnTraceEvent(Invoke(10, stage, 1));
  sampler.OnTraceEvent(Invoke(50, stage, 2));
  EXPECT_EQ(sampler.windows_closed(), 0);  // window 0 still open

  // An observation at t=250 closes windows 0 and 1; window 2 is open.
  sampler.OnTraceEvent(Invoke(250, stage, 3));
  EXPECT_EQ(sampler.windows_closed(), 2);
  EXPECT_EQ(sampler.open_window(), 2);

  std::vector<TelemetrySampler::CounterView> counters = sampler.CounterSeries();
  const TelemetrySampler::CounterView& inv = counters[TelemetrySampler::kInvoke];
  EXPECT_EQ(inv.name, "invoke");
  EXPECT_EQ(inv.total, 3u);
  ASSERT_EQ(inv.windows.size(), 2u);
  EXPECT_EQ(inv.windows[0], 2u);  // the two invokes before t=100
  EXPECT_EQ(inv.windows[1], 0u);  // the quiet gap window
  EXPECT_EQ(inv.open, 1u);        // the t=250 invoke, not yet closed

  // The sketch saw every hit regardless of windowing.
  std::vector<TelemetrySampler::TopEntry> top = sampler.TopInvocations();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top.front().name, "filter1");
  EXPECT_EQ(top.front().count, 3u);
}

TEST(TelemetrySamplerTest, RingWrapCountsEvictions) {
  TelemetrySampler::Options options;
  options.cadence = 100;
  options.ring_capacity = 4;
  TelemetrySampler sampler(options);
  Uid stage(7, 1);

  // One invoke in each of windows 0..9, then one at t=1000 to close window 9.
  for (Tick w = 0; w < 10; ++w) {
    sampler.OnTraceEvent(Invoke(w * 100 + 5, stage, static_cast<InvocationId>(w + 1)));
  }
  sampler.OnTraceEvent(Invoke(1000, stage, 11));
  EXPECT_EQ(sampler.windows_closed(), 10);

  std::vector<TelemetrySampler::CounterView> counters = sampler.CounterSeries();
  const TelemetrySampler::CounterView& inv = counters[TelemetrySampler::kInvoke];
  // The ring holds the most recent 4 closed windows; the 6 evicted ones are
  // counted and the cumulative total never stopped.
  ASSERT_EQ(inv.windows.size(), 4u);
  EXPECT_EQ(inv.evicted, 6u);
  EXPECT_EQ(inv.first_window, 6);
  EXPECT_EQ(inv.total, 11u);
  for (uint64_t delta : inv.windows) {
    EXPECT_EQ(delta, 1u);
  }
}

TEST(TelemetrySamplerTest, QueueSeriesCarriesDepthForwardThroughQuietWindows) {
  TelemetrySampler::Options options;
  options.cadence = 100;
  TelemetrySampler sampler(options);
  Uid owner(9, 2);
  sampler.Label(owner, "pipe0");

  sampler.OnQueueDepth(QueueComponent::kPipe, owner, 10, 3);
  sampler.OnQueueDepth(QueueComponent::kPipe, owner, 20, 5);
  sampler.OnFlowEvent(QueueComponent::kPipe, owner, 25, FlowEvent::kHiwatHit);
  // Nothing happens in windows 1 and 2; t=350 closes 0..2.
  sampler.OnQueueDepth(QueueComponent::kPipe, owner, 350, 0);

  std::vector<TelemetrySampler::QueueView> queues = sampler.QueueSeries();
  ASSERT_EQ(queues.size(), 1u);
  const TelemetrySampler::QueueView& q = queues[0];
  EXPECT_EQ(q.component, "pipe");
  EXPECT_EQ(q.name, "pipe0");
  ASSERT_EQ(q.windows.size(), 3u);
  EXPECT_EQ(q.windows[0].max, 5u);
  EXPECT_EQ(q.windows[0].last, 5u);
  EXPECT_EQ(q.windows[0].hiwat, 1u);
  // Quiet windows carry the last depth forward with no new extremes.
  EXPECT_EQ(q.windows[1].last, 5u);
  EXPECT_EQ(q.windows[1].max, 5u);
  EXPECT_EQ(q.windows[1].hiwat, 0u);
  EXPECT_EQ(q.hiwat_total, 1u);
  EXPECT_EQ(q.first_hiwat_at, 25);
  EXPECT_EQ(q.first_hiwat_window, 0);
  EXPECT_EQ(q.last_zero_at, 350);
  EXPECT_EQ(q.last_depth, 0u);
}

TEST(TelemetrySamplerTest, WindowValueGrammar) {
  TelemetrySampler::Options options;
  options.cadence = 100;
  TelemetrySampler sampler(options);
  Uid stage(7, 1);
  Uid owner(9, 2);
  sampler.Label(owner, "pipe0");

  sampler.OnTraceEvent(Invoke(10, stage, 1));
  sampler.OnTraceEvent(Invoke(20, stage, 2));
  sampler.OnQueueDepth(QueueComponent::kPipe, owner, 30, 6);
  sampler.OnQueueDepth(QueueComponent::kPipe, owner, 40, 2);
  sampler.OnQueueDepth(QueueComponent::kPipe, owner, 150, 1);  // closes window 0

  EXPECT_EQ(sampler.WindowValue("count:invoke"), std::optional<double>(2.0));
  // rate = delta * 1e6 / cadence = 2 * 1e6 / 100.
  EXPECT_EQ(sampler.WindowValue("rate:invoke"), std::optional<double>(20000.0));
  EXPECT_EQ(sampler.WindowValue("queue:pipe/pipe0"), std::optional<double>(2.0));
  EXPECT_EQ(sampler.WindowValue("queue_max:pipe/pipe0"),
            std::optional<double>(6.0));
  EXPECT_EQ(sampler.WindowValue("count:nonsense"), std::nullopt);
  EXPECT_EQ(sampler.WindowValue("queue:pipe/unknown"), std::nullopt);
  EXPECT_EQ(sampler.WindowValue("bogus:invoke"), std::nullopt);
}

// ------------------------------------------------------------------ the SLO

TEST(SloEngineTest, ParsesSpecsAndRejectsMalformedOnes) {
  SloEngine slo;
  ASSERT_TRUE(slo.Add("overload rate:invoke > 5000 for 3").ok());
  ASSERT_TRUE(slo.Add("backlog queue:server/filter1 >= 8").ok());
  ASSERT_EQ(slo.rules().size(), 2u);
  EXPECT_EQ(slo.rules()[0].name, "overload");
  EXPECT_EQ(slo.rules()[0].sustain, 3);
  EXPECT_EQ(slo.rules()[1].sustain, 1);
  EXPECT_EQ(slo.rules()[1].cmp, SloEngine::Cmp::kGe);

  EXPECT_FALSE(slo.Add("").ok());
  EXPECT_FALSE(slo.Add("name only").ok());
  EXPECT_FALSE(slo.Add("r count:drop !! 3").ok());       // bad comparator
  EXPECT_FALSE(slo.Add("r count:drop > notanum").ok());  // bad threshold
  EXPECT_FALSE(slo.Add("r count:drop > 3 for 0").ok());  // sustain < 1
  EXPECT_FALSE(slo.Add("r count:drop > 3 four 2").ok()); // not "for"
  EXPECT_EQ(slo.rules().size(), 2u);
}

TEST(SloEngineTest, SustainedBreachFiresOnceAndRearmsAfterCleanWindow) {
  TelemetrySampler::Options options;
  options.cadence = 100;
  TelemetrySampler sampler(options);
  SloEngine slo;
  ASSERT_TRUE(slo.Add("busy count:invoke >= 2 for 2").ok());
  sampler.set_slo(&slo);
  Uid stage(7, 1);

  InvocationId id = 1;
  auto window_with = [&](Tick start, int invokes) {
    for (int i = 0; i < invokes; ++i) {
      sampler.OnTraceEvent(Invoke(start + i, stage, id++));
    }
  };
  window_with(0, 2);    // breach, streak 1
  window_with(100, 3);  // breach, streak 2 -> fires when window 1 closes
  window_with(200, 4);  // still breaching: edge-triggered, no second firing
  window_with(300, 0);  // clean: re-arms
  window_with(400, 2);  // breach, streak 1
  window_with(500, 2);  // breach, streak 2 -> second firing
  sampler.OnTraceEvent(Invoke(600, stage, id++));  // closes window 5

  ASSERT_EQ(slo.firings().size(), 2u);
  const SloEngine::Firing& first = slo.firings()[0];
  EXPECT_EQ(first.rule, "busy");
  EXPECT_EQ(first.series, "count:invoke");
  EXPECT_EQ(first.window, 1);
  EXPECT_EQ(first.at, 200);
  EXPECT_EQ(first.value, 3.0);
  EXPECT_EQ(slo.firings()[1].window, 5);
  EXPECT_NE(slo.ToString().find("(fired 2x)"), std::string::npos);

  std::string error;
  EXPECT_TRUE(JsonValidate(ValueToJson(slo.ToValue()), &error)) << error;
}

TEST(SloEngineTest, FiringsReachTraceSinkAndMonitor) {
  TelemetrySampler::Options options;
  options.cadence = 100;
  TelemetrySampler sampler(options);
  TraceRecorder trace;
  InvariantMonitor monitor;
  SloEngine slo;
  ASSERT_TRUE(slo.Add("any count:invoke >= 1").ok());
  slo.set_trace_sink(trace.Hook());
  slo.set_monitor(&monitor);
  sampler.set_slo(&slo);

  Uid stage(7, 1);
  sampler.OnTraceEvent(Invoke(10, stage, 1));
  sampler.OnTraceEvent(Invoke(150, stage, 2));  // closes window 0 -> firing

  ASSERT_EQ(slo.firings().size(), 1u);
  bool saw_violation_event = false;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEvent::Kind::kViolation) {
      saw_violation_event = true;
      EXPECT_NE(event.op.find("any"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_violation_event);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_NE(monitor.violations()[0].detail.find("any"), std::string::npos);
}

// ------------------------------------------------------- kernel integration

TEST(TelemetryDeterminismTest, Fig2JsonByteIdenticalAcrossShardCounts) {
  std::string json_by_shards[2];
  int shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    TelemetrySampler telemetry;
    ValueList output = RunFig2(shard_counts[i], &telemetry);
    ASSERT_EQ(output.size(), 80u);
    json_by_shards[i] = telemetry.ToJson();
    std::string error;
    ASSERT_TRUE(JsonValidate(json_by_shards[i], &error)) << error;
  }
  EXPECT_EQ(json_by_shards[0], json_by_shards[1]);
}

TEST(TelemetryDeterminismTest, OverloadSeriesByteIdenticalAtEveryShardCount) {
  // The acceptance scenario: a sustained rate mismatch, observed at shards
  // {1, 2, 4, 8}. The windowed series must show the hiwat crossing, the
  // sketch must name a stage, and every byte must match the 1-shard run.
  std::string baseline;
  for (int shards : {1, 2, 4, 8}) {
    TelemetrySampler telemetry;
    ValueList output = RunOverload(shards, &telemetry);
    ASSERT_EQ(output.size(), 48u) << shards << " shards";

    std::vector<TelemetrySampler::CounterView> counters =
        telemetry.CounterSeries();
    EXPECT_GT(counters[TelemetrySampler::kHiwat].total, 0u);
    std::vector<TelemetrySampler::QueueView> queues = telemetry.QueueSeries();
    bool crossed = false;
    for (const TelemetrySampler::QueueView& q : queues) {
      crossed = crossed || q.first_hiwat_at >= 0;
    }
    EXPECT_TRUE(crossed);
    EXPECT_FALSE(telemetry.TopInvocations().empty());

    std::string json = telemetry.ToJson();
    if (shards == 1) {
      baseline = json;
      std::string error;
      ASSERT_TRUE(JsonValidate(json, &error)) << error;
    } else {
      EXPECT_EQ(json, baseline) << "telemetry diverged at " << shards
                                << " shards";
    }
  }
}

TEST(TelemetryDeterminismTest, SamplingPreservesSimulationOutput) {
  TelemetrySampler telemetry;
  ValueList sampled = RunOverload(4, &telemetry);
  ValueList plain = RunOverload(4, nullptr);
  EXPECT_EQ(sampled, plain);
}

// ------------------------------------------------------------- the verdict

// Queue depths and flow events reach metrics and telemetry through one
// kernel feed, so the two must agree, and installing telemetry must not
// change what metrics records. Metrics on with telemetry off is the case a
// wrong feed gate would silently empty.
TEST(TelemetryDeterminismTest, MetricsAndTelemetryAgreeOnQueueFacts) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    MetricsRegistry metrics_only;
    RunOverload(shards, nullptr, nullptr, nullptr, &metrics_only);
    TelemetrySampler telemetry_only;
    RunOverload(shards, &telemetry_only);
    MetricsRegistry metrics_both;
    TelemetrySampler telemetry_both;
    RunOverload(shards, &telemetry_both, nullptr, nullptr, &metrics_both);

    const Value alone = metrics_only.Snapshot();
    const Value both = metrics_both.Snapshot();
    const ValueMap* flow = alone.Field("flow").AsMap();
    ASSERT_NE(flow, nullptr) << "metrics-only run counted no flow events";
    EXPECT_EQ(ValueToJson(alone.Field("flow")), ValueToJson(both.Field("flow")));
    const ValueMap* queues = alone.Field("queues").AsMap();
    ASSERT_NE(queues, nullptr);
    ASSERT_FALSE(queues->empty()) << "metrics-only run sampled no queue";
    ASSERT_NE(both.Field("queues").AsMap(), nullptr);
    EXPECT_EQ(queues->size(), both.Field("queues").AsMap()->size());
    for (const auto& [queue, gauge] : *queues) {
      EXPECT_EQ(gauge.Field("high_water").IntOr(-1),
                both.Field("queues").Field(queue).Field("high_water").IntOr(-2))
          << queue;
    }

    uint64_t hiwat = 0, putbacks = 0, overtakes = 0;
    for (const auto& [queue, counters] : *flow) {
      hiwat += static_cast<uint64_t>(counters.Field("hiwat_hits").IntOr(0));
      putbacks += static_cast<uint64_t>(counters.Field("putbacks").IntOr(0));
      overtakes +=
          static_cast<uint64_t>(counters.Field("band_overtakes").IntOr(0));
    }
    EXPECT_GT(hiwat, 0u);
    for (const TelemetrySampler* telemetry : {&telemetry_only, &telemetry_both}) {
      std::vector<TelemetrySampler::CounterView> counters =
          telemetry->CounterSeries();
      EXPECT_EQ(counters[TelemetrySampler::kHiwat].total, hiwat);
      EXPECT_EQ(counters[TelemetrySampler::kPutBack].total, putbacks);
      EXPECT_EQ(counters[TelemetrySampler::kOvertake].total, overtakes);
    }
    EXPECT_EQ(telemetry_only.ToJson(), telemetry_both.ToJson());
  }
}

TEST(DiagnoseTelemetryTest, FindsPeakWindowHotStageAndRamp) {
  TelemetrySampler telemetry;
  RunOverload(1, &telemetry);

  TelemetryVerdict verdict = DiagnoseTelemetry(telemetry);
  ASSERT_TRUE(verdict.valid);
  EXPECT_GT(verdict.windows, 0);
  EXPECT_GT(verdict.invocations, 0u);
  EXPECT_GE(verdict.peak_window, 0);
  EXPECT_GT(verdict.peak_rate, 0.0);
  EXPECT_FALSE(verdict.hot_stage.empty());
  // The overload never drains mid-run windows at these watermarks, so the
  // ramp sentence names a queue and dates the crossing.
  EXPECT_NE(verdict.ramp.find("crossed hiwat at t="), std::string::npos);
  EXPECT_NE(verdict.ToLine().find("telemetry: peak"), std::string::npos);

  std::string error;
  EXPECT_TRUE(JsonValidate(ValueToJson(verdict.ToValue()), &error)) << error;
}

TEST(DiagnoseTelemetryTest, DoctorAppendsTimeAxisAndSloFirings) {
  // Coarse cadence: the whole run fits in the time axis' last-16-row table,
  // so the peak marker is guaranteed to be on a printed row.
  TelemetrySampler::Options coarse;
  coarse.cadence = 20'000;
  TelemetrySampler telemetry(coarse);
  TraceRecorder trace;
  SloEngine slo;
  ASSERT_TRUE(slo.Add("backlog count:hiwat >= 1").ok());
  telemetry.set_slo(&slo);
  slo.set_trace_sink(trace.Hook());
  RunOverload(1, &telemetry, nullptr, &trace);

  ASSERT_FALSE(slo.firings().empty());
  Diagnosis d = PipelineDoctor(trace, nullptr, nullptr, &telemetry).Diagnose();
  ASSERT_TRUE(d.telemetry.valid);
  EXPECT_GT(d.telemetry.slo_fired, 0u);
  EXPECT_NE(d.verdict.find("telemetry: peak"), std::string::npos);
  EXPECT_NE(d.verdict.find("slo:"), std::string::npos);
  std::string report = d.ToString();
  EXPECT_NE(report.find("time axis (cadence"), std::string::npos);
  EXPECT_NE(report.find("<- peak"), std::string::npos);
  EXPECT_NE(report.find("slo fired:"), std::string::npos);

  // Without a sampler the verdict line is unchanged.
  Diagnosis plain = PipelineDoctor(trace).Diagnose();
  EXPECT_FALSE(plain.telemetry.valid);
  EXPECT_EQ(plain.verdict.find("telemetry:"), std::string::npos);
}

// ------------------------------------------------------------ the exporter

TEST(ChromeTraceExporterTest, CounterTracksRideAlongWithSpans) {
  TelemetrySampler telemetry;
  TraceRecorder trace;
  RunOverload(1, &telemetry, nullptr, &trace);

  ChromeTraceExporter exporter(trace);
  exporter.set_telemetry(&telemetry);
  std::string json = exporter.Export();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("telemetry:invoke"), std::string::npos);
  EXPECT_NE(json.find("telemetry:queue "), std::string::npos);

  // Without the sampler attached, no counter events are emitted.
  std::string plain = ChromeTraceExporter(trace).Export();
  EXPECT_EQ(plain.find("\"ph\":\"C\""), std::string::npos);
}

}  // namespace
}  // namespace eden

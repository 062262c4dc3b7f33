// MetricsRegistry, Log2Histogram, JSON emission and the ChromeTraceExporter
// acceptance criteria (Fig. 2 pipeline: valid trace JSON, one span per
// invocation, n+1 spans per datum).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "src/core/endpoints.h"
#include "src/core/pipeline.h"
#include "src/eden/fault.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/trace.h"
#include "src/eden/trace_export.h"

namespace eden {
namespace {

std::vector<TransformFactory> Copies(size_t n) {
  std::vector<TransformFactory> chain;
  for (size_t i = 0; i < n; ++i) {
    chain.push_back([] {
      return std::make_unique<LambdaTransform>(
          "copy", [](const Value& v, const Transform::EmitFn& emit) {
            emit(kChanOut, v);
          });
    });
  }
  return chain;
}

// ---------------------------------------------------------------- histogram

TEST(Log2HistogramTest, BucketGeometry) {
  EXPECT_EQ(Log2Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Log2Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Log2Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Log2Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Log2Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Log2Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Log2Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Log2Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Log2Histogram::BucketOf(1024), 11u);
  // The last bucket absorbs everything huge.
  EXPECT_EQ(Log2Histogram::BucketOf(UINT64_MAX), Log2Histogram::kBucketCount - 1);

  // Low/high bounds tile the value space: bucket b = [2^(b-1), 2^b - 1].
  EXPECT_EQ(Log2Histogram::BucketLow(0), 0u);
  EXPECT_EQ(Log2Histogram::BucketHigh(0), 0u);
  for (size_t b = 1; b + 1 < Log2Histogram::kBucketCount; ++b) {
    EXPECT_EQ(Log2Histogram::BucketLow(b), uint64_t{1} << (b - 1));
    EXPECT_EQ(Log2Histogram::BucketHigh(b), (uint64_t{1} << b) - 1);
    EXPECT_EQ(Log2Histogram::BucketLow(b + 1), Log2Histogram::BucketHigh(b) + 1);
    EXPECT_EQ(Log2Histogram::BucketOf(Log2Histogram::BucketLow(b)), b);
    EXPECT_EQ(Log2Histogram::BucketOf(Log2Histogram::BucketHigh(b)), b);
  }
}

TEST(Log2HistogramTest, CountsSumMinMaxMean) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_EQ(h.bucket(Log2Histogram::BucketOf(10)), 1u);
}

TEST(Log2HistogramTest, PercentilesAreClampedToObservedRange) {
  Log2Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  // Estimates interpolate within buckets, so allow bucket-sized slack, but
  // order and clamping must hold exactly.
  EXPECT_GE(h.Percentile(0), h.min());
  EXPECT_LE(h.Percentile(100), h.max());
  EXPECT_EQ(h.Percentile(100), 100u);
  uint64_t p50 = h.Percentile(50);
  uint64_t p90 = h.Percentile(90);
  uint64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 32u);  // true p50 = 50, bucket [32,63]
  EXPECT_LE(p50, 63u);
  EXPECT_GE(p90, 64u);  // true p90 = 90, bucket [64,100] after clamp
  EXPECT_LE(p99, 100u);
}

TEST(Log2HistogramTest, SingleValueHistogramIsExact) {
  Log2Histogram h;
  h.Record(42);
  EXPECT_EQ(h.Percentile(0), 42u);
  EXPECT_EQ(h.Percentile(50), 42u);
  EXPECT_EQ(h.Percentile(100), 42u);
}

TEST(Log2HistogramTest, RepeatedValueIsExactAtEveryPercentile) {
  // All samples in one bucket with min == max: no interpolation slack.
  Log2Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(100);
  }
  EXPECT_EQ(h.Percentile(1), 100u);
  EXPECT_EQ(h.Percentile(50), 100u);
  EXPECT_EQ(h.Percentile(99), 100u);
}

TEST(Log2HistogramTest, SingleBucketInterpolatesWithinObservedRange) {
  // 40 and 60 share bucket [32, 63], so estimates must stay inside the
  // observed [40, 60], not the bucket bounds.
  Log2Histogram h;
  h.Record(40);
  h.Record(60);
  for (double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    EXPECT_GE(h.Percentile(p), 40u) << "p=" << p;
    EXPECT_LE(h.Percentile(p), 60u) << "p=" << p;
  }
  EXPECT_EQ(h.Percentile(100), 60u);
}

TEST(Log2HistogramTest, PercentilesAtBucketBoundaries) {
  // Samples exactly at 2^k - 1 and 2^k fall in adjacent buckets; the
  // percentile walk must respect the split.
  for (size_t k : {3u, 7u, 10u}) {
    uint64_t below = (uint64_t{1} << k) - 1;
    uint64_t at = uint64_t{1} << k;
    ASSERT_NE(Log2Histogram::BucketOf(below), Log2Histogram::BucketOf(at));
    Log2Histogram h;
    h.Record(below);
    h.Record(at);
    EXPECT_EQ(h.Percentile(50), below);
    EXPECT_EQ(h.Percentile(100), at);
    EXPECT_GE(h.Percentile(75), below);
    EXPECT_LE(h.Percentile(75), at);
  }
}

TEST(Log2HistogramTest, MergeAddsBucketwiseAndTracksExtremes) {
  Log2Histogram a;
  a.Record(10);
  a.Record(100);
  Log2Histogram b;
  b.Record(3);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 1113u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.bucket(Log2Histogram::BucketOf(3)), 1u);
  EXPECT_EQ(a.bucket(Log2Histogram::BucketOf(1000)), 1u);

  // Merging an empty histogram is a no-op (min must not collapse to 0).
  Log2Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 3u);

  // Merging INTO an empty histogram adopts the other's extremes.
  Log2Histogram c;
  c.Merge(b);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.min(), 3u);
  EXPECT_EQ(c.max(), 1000u);
}

TEST(Log2HistogramTest, SubtractYieldsWindowDelta) {
  // later = earlier + delta samples, bucket by bucket; counts and sums are
  // exact, min/max are bucket-bound approximations clamped to the later
  // histogram's observed range.
  Log2Histogram earlier;
  earlier.Record(10);
  earlier.Record(20);
  Log2Histogram later = earlier;
  later.Record(100);
  later.Record(200);
  Log2Histogram delta = later.Subtract(earlier);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.sum(), 300u);
  EXPECT_EQ(delta.bucket(Log2Histogram::BucketOf(100)), 1u);
  EXPECT_EQ(delta.bucket(Log2Histogram::BucketOf(200)), 1u);
  EXPECT_EQ(delta.bucket(Log2Histogram::BucketOf(10)), 0u);
  // The delta samples {100, 200} live in buckets [64,127] and [128,255]:
  // the approximate min/max are the outermost non-empty delta bucket bounds.
  EXPECT_GE(delta.min(), 64u);
  EXPECT_LE(delta.min(), 100u);
  EXPECT_GE(delta.max(), 200u);
  EXPECT_LE(delta.max(), 255u);

  // Subtracting equal snapshots is the empty histogram.
  Log2Histogram zero = later.Subtract(later);
  EXPECT_EQ(zero.count(), 0u);
  EXPECT_EQ(zero.sum(), 0u);
  EXPECT_EQ(zero.min(), 0u);
  EXPECT_EQ(zero.max(), 0u);
}

TEST(Log2HistogramTest, SubtractClampsToLaterObservedRange) {
  // Boundary: all delta samples share the earlier samples' buckets, so the
  // bucket bounds alone would under/overshoot; the clamp to [min, max] of
  // the later histogram keeps estimates inside observed values.
  Log2Histogram earlier;
  earlier.Record(40);  // bucket [32, 63]
  Log2Histogram later = earlier;
  later.Record(60);  // same bucket
  Log2Histogram delta = later.Subtract(earlier);
  EXPECT_EQ(delta.count(), 1u);
  EXPECT_EQ(delta.sum(), 60u);
  EXPECT_GE(delta.min(), 40u);  // clamped to later.min(), not bucket low 32
  EXPECT_LE(delta.max(), 60u);  // clamped to later.max(), not bucket high 63
  EXPECT_LE(delta.min(), delta.max());
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistryTest, RecordsAndSnapshots) {
  MetricsRegistry metrics;
  Uid pipe(1, 2);
  metrics.Label(pipe, "pipe0");
  metrics.RecordLatency("Transfer", 120);
  metrics.RecordLatency("Transfer", 240);
  metrics.RecordQueueDepth(QueueComponent::kPipe, pipe, 3);
  metrics.RecordQueueDepth(QueueComponent::kPipe, pipe, 7);
  metrics.RecordQueueDepth(QueueComponent::kPipe, pipe, 2);
  metrics.CountInvocation(pipe);
  metrics.CountInvocation(pipe);

  const Log2Histogram* latency = metrics.LatencyFor("Transfer");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  const MetricsRegistry::QueueGauge* gauge = metrics.QueueFor("pipe", pipe);
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->depth, 2u);        // latest
  EXPECT_EQ(gauge->high_water, 7u);   // peak
  EXPECT_EQ(gauge->samples, 3u);
  EXPECT_EQ(metrics.InvocationsTo(pipe), 2u);

  Value snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.Field("latency").Field("Transfer").Field("count").IntOr(0), 2);
  EXPECT_EQ(snapshot.Field("queues").Field("pipe/pipe0").Field("high_water").IntOr(0), 7);
  EXPECT_EQ(snapshot.Field("invocations").Field("pipe0").IntOr(0), 2);

  std::string error;
  EXPECT_TRUE(JsonValidate(metrics.ToJson(), &error)) << error;
  EXPECT_NE(metrics.ToString().find("Transfer"), std::string::npos);

  metrics.Clear();
  EXPECT_EQ(metrics.LatencyFor("Transfer"), nullptr);
  EXPECT_EQ(metrics.QueueFor("pipe", pipe), nullptr);
  EXPECT_EQ(metrics.InvocationsTo(pipe), 0u);
}

TEST(JsonTest, ValidatorAcceptsAndRejects) {
  std::string error;
  EXPECT_TRUE(JsonValidate("{}", &error));
  EXPECT_TRUE(JsonValidate("[1, 2.5, -3e4, \"a\\nb\", true, false, null]", &error));
  EXPECT_TRUE(JsonValidate("{\"k\": {\"nested\": [{}]}}", &error));
  EXPECT_FALSE(JsonValidate("", &error));
  EXPECT_FALSE(JsonValidate("{", &error));
  EXPECT_FALSE(JsonValidate("{\"k\": }", &error));
  EXPECT_FALSE(JsonValidate("[1,]", &error));
  EXPECT_FALSE(JsonValidate("{} trailing", &error));
  EXPECT_FALSE(JsonValidate("'single'", &error));
}

// ----------------------------------------------- kernel-integrated metrics

TEST(MetricsKernelTest, LatencyQueuesAndInvocationCountsFromAPipeline) {
  Kernel kernel;
  MetricsRegistry metrics;
  kernel.set_metrics(&metrics);

  ValueList input;
  for (int i = 0; i < 8; ++i) {
    input.push_back(Value(int64_t{i}));
  }
  PipelineOptions options;
  options.discipline = Discipline::kConventional;
  PipelineHandle handle = BuildPipeline(kernel, std::move(input), Copies(1), options);
  handle.LabelAll(metrics);
  kernel.RunUntil([&handle] { return handle.done(); });
  ASSERT_EQ(handle.output().size(), 8u);

  // Every Transfer that completed has a recorded latency.
  const Log2Histogram* transfer = metrics.LatencyFor(std::string(kOpTransfer));
  ASSERT_NE(transfer, nullptr);
  EXPECT_GT(transfer->count(), 0u);
  EXPECT_GT(transfer->Percentile(50), 0u);

  // The pipes sampled their queue depth; invocation counts landed on stages.
  bool saw_pipe_gauge = false;
  for (size_t i = 0; i < handle.ejects.size(); ++i) {
    if (metrics.QueueFor("pipe", handle.ejects[i]) != nullptr) {
      saw_pipe_gauge = true;
    }
  }
  EXPECT_TRUE(saw_pipe_gauge);
  uint64_t invoked = 0;
  for (const Uid& uid : handle.ejects) {
    invoked += metrics.InvocationsTo(uid);
  }
  EXPECT_GT(invoked, 0u);

  std::string error;
  EXPECT_TRUE(JsonValidate(metrics.ToJson(), &error)) << error;
}

TEST(MetricsKernelTest, NoRegistryMeansNoRecording) {
  // Guards the fast path's *semantics* (the perf claim is bench_claim_
  // invocations'): running without a registry must leave a later-installed
  // one untouched.
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(ValueList{Value("x")});
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  MetricsRegistry metrics;
  kernel.set_metrics(&metrics);
  EXPECT_EQ(metrics.LatencyFor(std::string(kOpTransfer)), nullptr);
}

// ------------------------------------------------------------ trace export

// ISSUE acceptance: the Chrome trace of a Fig. 2 read-only run must be valid
// JSON whose per-datum span count matches Stats' invocation count — n+1
// Transfers per datum for n filters (each hop moves m items in m+1
// Transfers, the last carrying the end marker).
TEST(ChromeTraceExportTest, Figure2SpansMatchInvocationCounts) {
  constexpr size_t kFilters = 3;
  constexpr int kItems = 5;

  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());
  Stats before = kernel.stats();

  ValueList input;
  for (int i = 0; i < kItems; ++i) {
    input.push_back(Value(int64_t{i}));
  }
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.work_ahead = 0;
  PipelineHandle handle =
      BuildPipeline(kernel, std::move(input), Copies(kFilters), options);
  handle.LabelAll(recorder);
  kernel.RunUntil([&handle] { return handle.done(); });
  ASSERT_EQ(handle.output().size(), static_cast<size_t>(kItems));

  Stats delta = kernel.stats() - before;
  ChromeTraceExporter exporter(recorder);

  // One span per invocation, (n+1) Transfer hops serving (m+1) Transfers each.
  EXPECT_EQ(exporter.span_count(), delta.invocations_sent);
  EXPECT_EQ(delta.invocations_sent,
            (kFilters + 1) * (static_cast<uint64_t>(kItems) + 1));

  std::string json = exporter.Export();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error;

  // Structure: the document is the Chrome trace JSON-object form, spans are
  // complete events, stage labels become thread names.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow arrows
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("filter1"), std::string::npos);
  // Exactly span_count() complete events.
  size_t complete = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    complete++;
  }
  EXPECT_EQ(complete, exporter.span_count());
}

TEST(ChromeTraceExportTest, FaultEventsBecomeInstants) {
  Kernel kernel;
  FaultPlan plan;
  plan.drop_invocation = 1.0;
  FaultInjector injector(plan);
  kernel.set_fault_injector(&injector);
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());

  VectorSource& source = kernel.CreateLocal<VectorSource>(ValueList{Value("x")});
  PullSink::Options options;
  options.retry.deadline = 500;
  PullSink& sink = kernel.CreateLocal<PullSink>(
      source.uid(), Value(std::string(kChanOut)), options);
  kernel.RunUntil([&] { return sink.done(); });
  kernel.Crash(source.uid());

  std::string json = ChromeTraceExporter(recorder).Export();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("LOST Transfer"), std::string::npos);
  EXPECT_NE(json.find("deadline"), std::string::npos);
  EXPECT_NE(json.find("CRASH VectorSource"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"dropped\""), std::string::npos);
}

TEST(ChromeTraceExportTest, WritesFile) {
  TraceRecorder recorder;
  Tracer hook = recorder.Hook();
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInvoke;
  event.id = 1;
  event.op = "Ping";
  hook(event);

  ChromeTraceExporter exporter(recorder);
  std::string path = ::testing::TempDir() + "/eden_trace_test.json";
  ASSERT_TRUE(exporter.WriteFile(path));
  FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_EQ(contents, exporter.Export());
}

// ------------------------------------------------------- shard counters

// The per-shard counters published into the registry after a run are an
// identity, not an estimate: summed over shards they must equal the kernel's
// own event total, and every shard reports the same window count (all shards
// arrive at every window barrier, working or not). Checked at 1 shard (the
// sequential degenerate case) and 4.
TEST(MetricsShardTest, ShardCountersSumToKernelTotals) {
  for (int shards : {1, 4}) {
    KernelOptions kernel_options;
    kernel_options.shards = shards;
    Kernel kernel(kernel_options);
    MetricsRegistry metrics;
    kernel.set_metrics(&metrics);

    ValueList input;
    for (int i = 0; i < 16; ++i) {
      input.push_back(Value(int64_t{i}));
    }
    PipelineOptions options;
    options.discipline = Discipline::kReadOnly;
    options.distinct_nodes = true;
    PipelineHandle handle =
        BuildPipeline(kernel, std::move(input), Copies(3), options);
    kernel.RunUntil([&handle] { return handle.done(); });
    ASSERT_EQ(handle.output().size(), 16u) << "shards=" << shards;

    std::vector<std::pair<int, ShardCounters>> snapshot =
        metrics.ShardSnapshot();
    ASSERT_EQ(snapshot.size(), static_cast<size_t>(shards))
        << "shards=" << shards;
    uint64_t events_total = 0;
    for (const auto& [shard, counters] : snapshot) {
      events_total += counters.events_processed;
      // Window barriers are collective: every shard sees the same count.
      EXPECT_EQ(counters.windows, snapshot.front().second.windows)
          << "shards=" << shards << " shard=" << shard;
    }
    EXPECT_EQ(events_total, kernel.stats().events_processed)
        << "shards=" << shards;
  }
}

// Each run's publish replaces every shard row: after a 4-shard run and a
// re-partition to 2 shards, a second run leaves exactly 2 rows in the
// snapshot, the "shards" section and the text report.
TEST(MetricsShardTest, RepartitionReplacesEveryShardRow) {
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel kernel(kernel_options);
  MetricsRegistry metrics;
  kernel.set_metrics(&metrics);
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  for (int shards : {4, 2}) {
    ASSERT_TRUE(kernel.set_shards(shards));
    PipelineHandle handle =
        BuildPipeline(kernel, ValueList{Value(int64_t{1}), Value(int64_t{2})}, Copies(3),
                      options);
    kernel.RunUntil([&handle] { return handle.done(); });
    ASSERT_EQ(handle.output().size(), 2u) << "shards=" << shards;
    EXPECT_EQ(metrics.ShardSnapshot().size(), static_cast<size_t>(shards));
    EXPECT_EQ(metrics.Snapshot().Field("shards").Size(), static_cast<size_t>(shards));
    EXPECT_EQ(metrics.ToString().find("shard   " + std::to_string(shards)),
              std::string::npos)
        << metrics.ToString();
  }
}

// Kernel::Step runs each event with its own shard's index, outside any
// run bracket, so the recording hooks see every shard index before any fold
// has sized the registry's and the monitor's per-shard slots. Stepping a
// 4-shard pipeline to the end must record what a run records.
TEST(MetricsShardTest, SteppedShardedKernelRecordsLikeARun) {
  struct Reports {
    std::string metrics;
    std::string monitor;
  };
  auto run = [](bool step) {
    KernelOptions kernel_options;
    kernel_options.shards = 4;
    Kernel kernel(kernel_options);
    MetricsRegistry metrics;
    InvariantMonitor monitor;
    kernel.set_metrics(&metrics);
    kernel.set_monitor(&monitor);
    ValueList input;
    for (int i = 0; i < 16; ++i) {
      input.push_back(Value(int64_t{i}));
    }
    PipelineOptions options;
    options.discipline = Discipline::kReadOnly;
    options.distinct_nodes = true;
    PipelineHandle handle =
        BuildPipeline(kernel, std::move(input), Copies(3), options);
    if (step) {
      while (!handle.done() && kernel.Step()) {
      }
    } else {
      kernel.RunUntil([&handle] { return handle.done(); });
    }
    EXPECT_EQ(handle.output().size(), 16u) << "step=" << step;
    Value snapshot = metrics.Snapshot();
    snapshot.AsMap()->erase("shards");  // published by runs only
    return Reports{ValueToJson(snapshot), ValueToJson(monitor.ToValue())};
  };
  Reports ran = run(false);
  Reports stepped = run(true);
  EXPECT_EQ(stepped.metrics, ran.metrics);
  EXPECT_EQ(stepped.monitor, ran.monitor);
  EXPECT_NE(ran.monitor.find("\"ok\":true"), std::string::npos) << ran.monitor;
}

}  // namespace
}  // namespace eden
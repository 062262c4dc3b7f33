// PipelineDoctor and bench-comparison tests: critical-path extraction on the
// Fig. 2 demand chain, bottleneck attribution on synthetic span trees, JSON
// report validity, and the regression comparator on synthetic bench runs.
#include <gtest/gtest.h>

#include "src/core/endpoints.h"
#include "src/core/pipeline.h"
#include "src/eden/analysis.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/trace.h"

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

TEST(DoctorTest, EmptyTraceGetsFallbackVerdict) {
  TraceRecorder recorder;
  Diagnosis d = PipelineDoctor(recorder).Diagnose();
  EXPECT_EQ(d.span_count, 0u);
  EXPECT_NE(d.verdict.find("no spans"), std::string::npos);
  EXPECT_TRUE(JsonValidate(ValueToJson(d.ToValue())));
}

// The acceptance test: on a fully lazy Fig. 2 pipeline (n = 3 filters,
// m = 5 items) every demand ripples the whole chain, so the critical path
// must be exactly n+1 spans deep (sink->F3, F3->F2, F2->F1, F1->source) and
// the trace must hold the full (n+1)(m+1) invocation set.
TEST(DoctorTest, LazyFig2CriticalPathIsTheDemandChain) {
  constexpr size_t kFilters = 3;
  constexpr size_t kItems = 5;
  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());

  ValueList input;
  for (size_t i = 0; i < kItems; ++i) {
    input.push_back(Value(static_cast<int64_t>(i)));
  }
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.work_ahead = 0;  // fully lazy: every Transfer is demand-driven
  PipelineHandle handle =
      BuildPipeline(kernel, std::move(input), Copies(kFilters), options);
  handle.LabelAll(recorder);
  kernel.RunUntil([&handle] { return handle.done(); });
  ASSERT_EQ(handle.output().size(), kItems);

  Diagnosis d = PipelineDoctor(recorder).Diagnose();
  EXPECT_EQ(d.span_count, (kFilters + 1) * (kItems + 1));
  ASSERT_EQ(d.critical_depth, kFilters + 1);
  // Root first: the sink's demand lands at F3, then hops to the source.
  EXPECT_EQ(d.critical_path[0].stage, handle.ejects[3]);
  EXPECT_EQ(d.critical_path[1].stage, handle.ejects[2]);
  EXPECT_EQ(d.critical_path[2].stage, handle.ejects[1]);
  EXPECT_EQ(d.critical_path[3].stage, handle.ejects[0]);
  EXPECT_GT(d.critical_ticks, 0);
  EXPECT_GT(d.makespan, 0);
  EXPECT_FALSE(d.stages.empty());
  EXPECT_NE(d.verdict.find("bottleneck"), std::string::npos);
  EXPECT_FALSE(d.ToString().empty());
}

// Synthetic three-level chain with a fat middle span: A [0,1000] calls
// B [100,900] calls C [150,250]. Self times are A=200, B=700, C=100, so B
// owns 70% of the critical path and must be named in the verdict.
TEST(DoctorTest, AttributesBottleneckToLargestCriticalSelfTime) {
  TraceRecorder recorder;
  Tracer hook = recorder.Hook();
  const Uid a(1, 1), b(2, 2), c(3, 3);
  recorder.Label(a, "A");
  recorder.Label(b, "B");
  recorder.Label(c, "C");

  auto invoke = [&hook](InvocationId id, InvocationId parent, const Uid& to,
                        Tick at) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kInvoke;
    event.id = id;
    event.parent = parent;
    event.to = to;
    event.op = "Transfer";
    event.at = at;
    hook(event);
  };
  auto reply = [&hook](InvocationId id, Tick at) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kReply;
    event.id = id;
    event.at = at;
    event.ok = true;
    hook(event);
  };
  invoke(1, 0, a, 0);
  invoke(2, 1, b, 100);
  invoke(3, 2, c, 150);
  reply(3, 250);
  reply(2, 900);
  reply(1, 1000);

  MetricsRegistry metrics;
  metrics.Label(b, "B");
  metrics.RecordQueueDepth(QueueComponent::kServer, b, 64);

  Diagnosis d = PipelineDoctor(recorder, &metrics).Diagnose();
  ASSERT_EQ(d.critical_depth, 3u);
  EXPECT_EQ(d.critical_total, 1000);
  EXPECT_EQ(d.bottleneck, "B");
  EXPECT_NEAR(d.bottleneck_share, 0.7, 1e-9);
  ASSERT_FALSE(d.stages.empty());
  EXPECT_EQ(d.stages[0].name, "B");
  EXPECT_EQ(d.stages[0].critical_self, 700);
  EXPECT_EQ(d.stages[0].queue_high_water, 64u);
  EXPECT_NE(d.verdict.find("bottleneck: B, 70% of critical path"),
            std::string::npos);
  EXPECT_NE(d.verdict.find("queue high-water 64"), std::string::npos);

  // The report is strict JSON.
  EXPECT_TRUE(JsonValidate(ValueToJson(d.ToValue())));
}

// Spans still open at capture end (no reply recorded) must not derail the
// analysis: they are skipped, not treated as zero-length.
TEST(DoctorTest, OpenSpansAreIgnored) {
  TraceRecorder recorder;
  Tracer hook = recorder.Hook();
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInvoke;
  event.id = 1;
  event.to = Uid(1, 1);
  event.op = "Transfer";
  event.at = 10;
  hook(event);

  Diagnosis d = PipelineDoctor(recorder).Diagnose();
  EXPECT_EQ(d.span_count, 1u);
  EXPECT_TRUE(d.critical_path.empty());
  EXPECT_NE(d.verdict.find("no closed spans"), std::string::npos);
}

// ---------------------------------------------------------- bench comparison

Value MakeBench(const std::string& name, double cpu_time, double inv) {
  Value bench;
  bench.Set("name", Value(name));
  bench.Set("iterations", Value(int64_t{100}));
  bench.Set("real_time", Value(cpu_time * 1.1));
  bench.Set("cpu_time", Value(cpu_time));
  bench.Set("time_unit", Value("ns"));
  bench.Set("inv_per_datum", Value(inv));
  return bench;
}

Value MakeDoc(ValueList benchmarks) {
  Value doc;
  doc.Set("context", Value().Set("date", Value("1983-10-10")));
  doc.Set("benchmarks", Value(std::move(benchmarks)));
  return doc;
}

TEST(BenchCompareTest, IdenticalRunsPass) {
  Value doc = MakeDoc({MakeBench("fig2", 100.0, 4.0),
                       MakeBench("fig1", 250.0, 8.0)});
  BenchComparison cmp = CompareBenchRuns(doc, doc);
  EXPECT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.rows.size(), 2u);
  EXPECT_NE(cmp.ToString().find("no regressions"), std::string::npos);
}

TEST(BenchCompareTest, CounterDriftIsFlaggedEvenWhenTimeIsFine) {
  Value base = MakeDoc({MakeBench("fig2", 100.0, 4.0)});
  Value cur = MakeDoc({MakeBench("fig2", 101.0, 5.0)});
  BenchComparison cmp = CompareBenchRuns(base, cur);
  EXPECT_FALSE(cmp.ok());
  ASSERT_EQ(cmp.rows[0].counter_changes.size(), 1u);
  EXPECT_NE(cmp.rows[0].counter_changes[0].find("inv_per_datum"),
            std::string::npos);
}

TEST(BenchCompareTest, TimeIsNeverCompared) {
  Value base = MakeDoc({MakeBench("fig2", 100.0, 4.0)});
  Value cur = MakeDoc({MakeBench("fig2", 1000.0, 4.0)});
  EXPECT_TRUE(CompareBenchRuns(base, cur).ok());
  // The same counter drift still trips it.
  Value drift = MakeDoc({MakeBench("fig2", 1000.0, 8.0)});
  EXPECT_FALSE(CompareBenchRuns(base, drift).ok());
}

TEST(BenchCompareTest, OnlyRateColumnsAreExcluded) {
  // *_per_second rates are wall time divided by work and may drift between
  // hosts. Every other numeric column is pinned, telemetry and audit columns
  // included: they are as deterministic as the §4 identities.
  Value base_bench = MakeBench("scale", 100.0, 4.0);
  base_bench.Set("events_per_second", Value(1e6));
  base_bench.Set("audit_events", Value(1234.0));
  base_bench.Set("peak_rate_invoke", Value(0.5));
  base_bench.Set("topk_hot_count", Value(40.0));
  Value cur_bench = base_bench;
  cur_bench.Set("events_per_second", Value(3e6));
  Value base = MakeDoc({base_bench});
  EXPECT_TRUE(CompareBenchRuns(base, MakeDoc({cur_bench})).ok())
      << CompareBenchRuns(base, MakeDoc({cur_bench})).ToString();

  for (const char* pinned :
       {"audit_events", "peak_rate_invoke", "topk_hot_count"}) {
    Value drift_bench = base_bench;
    drift_bench.Set(pinned, Value(9999.0));
    BenchComparison cmp = CompareBenchRuns(base, MakeDoc({drift_bench}));
    ASSERT_FALSE(cmp.ok()) << pinned;
    ASSERT_EQ(cmp.rows[0].counter_changes.size(), 1u) << pinned;
    EXPECT_NE(cmp.rows[0].counter_changes[0].find(pinned), std::string::npos);
  }
}

TEST(BenchCompareTest, DroppedCounterIsARegression) {
  // A row that stops reporting a counter (a deleted state.counters line, or a
  // row that errored out before setting its counters) fails the gate.
  Value base = MakeDoc({MakeBench("fig2", 100.0, 4.0)});
  Value dropped_bench;
  dropped_bench.Set("name", Value("fig2"));
  dropped_bench.Set("cpu_time", Value(100.0));
  BenchComparison cmp = CompareBenchRuns(base, MakeDoc({dropped_bench}));
  EXPECT_FALSE(cmp.ok());
  ASSERT_EQ(cmp.rows[0].counter_changes.size(), 1u);
  EXPECT_NE(cmp.rows[0].counter_changes[0].find("inv_per_datum: 4 -> missing"),
            std::string::npos);
  EXPECT_NE(cmp.ToString().find("REGRESSED"), std::string::npos);
}

TEST(BenchCompareTest, MissingBenchmarkIsARegressionNewOneIsNot) {
  Value base = MakeDoc({MakeBench("fig2", 100.0, 4.0)});
  Value cur = MakeDoc({MakeBench("fig3", 100.0, 4.0)});
  BenchComparison cmp = CompareBenchRuns(base, cur);
  EXPECT_EQ(cmp.regressions, 1u);  // fig2 vanished; fig3 is merely new
  bool saw_missing = false;
  bool saw_new = false;
  for (const BenchDelta& row : cmp.rows) {
    saw_missing = saw_missing || (row.name == "fig2" && row.missing_in_current);
    saw_new = saw_new || (row.name == "fig3" && row.new_in_current);
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_new);
}

// ---------------------------------------------------------- JSON parsing

TEST(JsonParseTest, RoundTripsThroughValueToJson) {
  Value v;
  v.Set("int", Value(int64_t{42}));
  v.Set("neg", Value(int64_t{-7}));
  v.Set("real", Value(2.5));
  v.Set("str", Value("hello \"world\"\n"));
  v.Set("yes", Value(true));
  v.Set("no", Value(false));
  ValueList list;
  list.push_back(Value(int64_t{1}));
  list.push_back(Value("two"));
  list.push_back(Value());
  v.Set("list", Value(std::move(list)));

  std::string json = ValueToJson(v);
  std::optional<Value> back = JsonParse(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(ValueToJson(*back), json);
}

TEST(JsonParseTest, ParsesBenchShapedDocuments) {
  std::optional<Value> doc = JsonParse(
      R"({"context": {"host": "x"}, "benchmarks": [)"
      R"({"name": "fig2", "cpu_time": 123.5, "inv_per_datum": 4}]})");
  ASSERT_TRUE(doc.has_value());
  const ValueList* benchmarks = doc->Field("benchmarks").AsList();
  ASSERT_NE(benchmarks, nullptr);
  ASSERT_EQ(benchmarks->size(), 1u);
  EXPECT_EQ(*(*benchmarks)[0].Field("name").AsStr(), "fig2");
  EXPECT_DOUBLE_EQ((*benchmarks)[0].Field("cpu_time").AsReal().value(), 123.5);
  EXPECT_EQ((*benchmarks)[0].Field("inv_per_datum").IntOr(0), 4);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(JsonParse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonParse("", nullptr).has_value());
  EXPECT_FALSE(JsonParse("[1, 2,]", nullptr).has_value());
  EXPECT_FALSE(JsonParse("{\"a\": 1} trailing", nullptr).has_value());
}

TEST(JsonParseTest, DecodesEscapes) {
  std::optional<Value> v = JsonParse(R"({"s": "a\tbA\\"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v->Field("s").AsStr(), "a\tbA\\");
}

}  // namespace
}  // namespace eden

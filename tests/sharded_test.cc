// Sharded-kernel tests: per-seed determinism across shard counts, real
// cross-shard traffic, repartitioning rules, and a multi-node stress run
// sized to be TSan-friendly.
//
// The contract under test (DESIGN.md "Sharded kernel"): for a fixed seed
// and topology, a run at any shard count produces byte-identical output,
// an identical trace-event stream, identical invariant-monitor state and
// identical kernel stats. Parallelism may reorder *execution*, never
// *observation*.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/stream.h"
#include "src/core/stream_server.h"
#include "src/devices/devices.h"
#include "src/eden/analysis.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/random.h"
#include "src/eden/sync.h"
#include "src/eden/trace.h"
#include "src/eden/verify/shard_audit.h"
#include "src/filters/transforms.h"

namespace eden {
namespace {

// Deterministic line workload (mirrors bench_util.h's BenchLines, without
// dragging google-benchmark into the test link).
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

// Canonical dump of a trace: every field of every event, in recorded order.
// Two runs are "the same run" iff these strings match byte for byte.
std::string SerializeTrace(const TraceRecorder& trace) {
  std::ostringstream out;
  for (const TraceEvent& e : trace.events()) {
    out << static_cast<int>(e.kind) << ' ' << e.at << ' ' << e.from.ToString()
        << ' ' << e.to.ToString() << ' ' << e.op << ' ' << e.id << ' '
        << e.parent << ' ' << e.ok << '\n';
  }
  return out.str();
}

struct FigRun {
  ValueList output;
  std::string trace;
  std::string monitor;
  std::string stats;
  Tick virtual_time = 0;
  uint64_t cross_shard_sends = 0;
  uint64_t events = 0;
};

// Runs one figure pipeline at the given shard count with every Eject on its
// own node (so shard counts > 1 really split the topology) and captures
// everything an observer could see.
FigRun RunFig(Discipline discipline, int shards, int items, size_t stages) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  InvariantMonitor monitor;
  kernel.set_tracer(trace.Hook());
  monitor.set_trace_sink(trace.Hook());
  kernel.set_monitor(&monitor);

  PipelineOptions options;
  options.discipline = discipline;
  options.distinct_nodes = true;
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(items), CopyChain(stages), options);
  handle.LabelAll(trace);
  handle.LabelAll(monitor);
  kernel.RunUntil([&handle] { return handle.done(); });
  // Drain trailing replies so the monitor sees the whole run.
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(kernel.quiescent());

  FigRun run;
  run.output = handle.output();
  run.trace = SerializeTrace(trace);
  run.monitor = monitor.ToString();
  run.stats = kernel.stats().ToValue().ToString();
  run.virtual_time = kernel.now();
  for (const ShardCounters& c : kernel.shard_counters()) {
    run.cross_shard_sends += c.cross_shard_sends;
    run.events += c.events_processed;
  }
  return run;
}

class ShardMatrix : public ::testing::TestWithParam<Discipline> {};

TEST_P(ShardMatrix, FigurePipelinesAreShardCountInvariant) {
  const Discipline discipline = GetParam();
  const int items = 120;
  const size_t stages = 4;
  FigRun base = RunFig(discipline, 1, items, stages);
  ASSERT_EQ(base.output.size(), static_cast<size_t>(items));
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE(std::string(DisciplineName(discipline)) +
                 " shards=" + std::to_string(shards));
    FigRun run = RunFig(discipline, shards, items, stages);
    EXPECT_EQ(run.output, base.output);
    EXPECT_EQ(run.trace, base.trace);
    EXPECT_EQ(run.monitor, base.monitor);
    EXPECT_EQ(run.stats, base.stats);
    EXPECT_EQ(run.virtual_time, base.virtual_time);
    EXPECT_EQ(run.events, base.events);
  }
}

INSTANTIATE_TEST_SUITE_P(Figures, ShardMatrix,
                         ::testing::Values(Discipline::kConventional,
                                           Discipline::kReadOnly,
                                           Discipline::kWriteOnly),
                         [](const ::testing::TestParamInfo<Discipline>& info) {
                           switch (info.param) {
                             case Discipline::kConventional: return "Conventional";
                             case Discipline::kReadOnly: return "ReadOnly";
                             case Discipline::kWriteOnly: return "WriteOnly";
                           }
                           return "Unknown";
                         });

// Figure 4 (read-only with report channels): a multi-source topology that
// isn't expressible through BuildPipeline. Every Eject gets its own node.
struct Fig4Run {
  ValueList output;
  ValueList reports;
  std::string trace;
  Tick virtual_time = 0;
};

Fig4Run RunFigure4(int shards, int items, int report_every) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  kernel.set_tracer(trace.Hook());

  NodeId n1 = kernel.AddNode("fig4-source");
  NodeId n2 = kernel.AddNode("fig4-f1");
  NodeId n3 = kernel.AddNode("fig4-f2");
  NodeId n4 = kernel.AddNode("fig4-sink");
  NodeId n5 = kernel.AddNode("fig4-window");

  VectorSource::Options source_options;
  source_options.report_every = report_every;
  VectorSource& source =
      kernel.Create<VectorSource>(n1, MakeLines(items), source_options);

  ReadOnlyFilter::Options f1_options;
  f1_options.source = source.uid();
  ReadOnlyFilter& f1 = kernel.Create<ReadOnlyFilter>(
      n2,
      std::make_unique<ReportingTransform>(std::make_unique<CopyTransform>(),
                                           report_every),
      f1_options);

  ReadOnlyFilter::Options f2_options;
  f2_options.source = f1.uid();
  ReadOnlyFilter& f2 = kernel.Create<ReadOnlyFilter>(
      n3, std::make_unique<CopyTransform>(), f2_options);

  PullSink& sink =
      kernel.Create<PullSink>(n4, f2.uid(), Value(std::string(kChanOut)));
  ReportWindow& window = kernel.Create<ReportWindow>(n5);
  window.Attach(source.uid(), Value(std::string(kChanReport)), "source");
  window.Attach(f1.uid(), Value(std::string(kChanReport)), "F1");

  kernel.RunUntil([&] { return sink.done() && window.idle(); });
  EXPECT_TRUE(kernel.Run());

  Fig4Run run;
  run.output = sink.items();
  for (const std::string& line : window.lines()) {
    run.reports.push_back(Value(line));
  }
  run.trace = SerializeTrace(trace);
  run.virtual_time = kernel.now();
  return run;
}

TEST(ShardMatrix, Figure4ChannelsAreShardCountInvariant) {
  Fig4Run base = RunFigure4(/*shards=*/1, /*items=*/200, /*report_every=*/25);
  ASSERT_EQ(base.output.size(), 200u);
  ASSERT_FALSE(base.reports.empty());
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Fig4Run run = RunFigure4(shards, 200, 25);
    EXPECT_EQ(run.output, base.output);
    EXPECT_EQ(run.reports, base.reports);
    EXPECT_EQ(run.trace, base.trace);
    EXPECT_EQ(run.virtual_time, base.virtual_time);
  }
}

TEST(ShardedKernel, DistinctNodePipelinesGenerateCrossShardTraffic) {
  // Guards the matrix against vacuity: with every stage on its own node and
  // shards > 1, neighbouring stages land on different shards, so the run
  // must move real messages through the mailboxes.
  FigRun run = RunFig(Discipline::kReadOnly, /*shards=*/4, /*items=*/60,
                      /*stages=*/4);
  EXPECT_GT(run.cross_shard_sends, 0u);
  EXPECT_GT(run.events, 0u);
}

TEST(ShardedKernel, SetShardsRequiresQuiescence) {
  Kernel kernel;
  ASSERT_EQ(kernel.shard_count(), 1);
  // Park an event so the kernel is non-quiescent.
  kernel.ScheduleAction(1'000, [] {});
  EXPECT_FALSE(kernel.set_shards(4));
  EXPECT_EQ(kernel.shard_count(), 1);
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(kernel.set_shards(4));
  EXPECT_EQ(kernel.shard_count(), 4);
  // The repartitioned kernel still runs pipelines correctly.
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  ValueList output =
      RunPipeline(kernel, MakeLines(40), CopyChain(3), options);
  EXPECT_EQ(output.size(), 40u);
  EXPECT_TRUE(kernel.set_shards(1));
}

TEST(ShardedKernel, ShardCountersAreExposedPerShard) {
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel kernel(kernel_options);
  PipelineOptions options;
  options.discipline = Discipline::kWriteOnly;
  options.distinct_nodes = true;
  ValueList output = RunPipeline(kernel, MakeLines(50), CopyChain(4), options);
  EXPECT_EQ(output.size(), 50u);
  std::vector<ShardCounters> counters = kernel.shard_counters();
  ASSERT_EQ(counters.size(), 4u);
  uint64_t total_events = 0;
  for (const ShardCounters& c : counters) {
    total_events += c.events_processed;
  }
  EXPECT_GT(total_events, 0u);
  // The parallel run proceeded in windows.
  EXPECT_GT(counters[0].windows, 0u);
}

TEST(ShardedKernel, DoctorSurfacesShardCounters) {
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  MetricsRegistry metrics;
  kernel.set_tracer(trace.Hook());
  kernel.set_metrics(&metrics);
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(60), CopyChain(3), options);
  handle.LabelAll(trace);
  handle.LabelAll(metrics);
  kernel.RunUntil([&handle] { return handle.done(); });
  EXPECT_TRUE(kernel.Run());

  Diagnosis diagnosis = PipelineDoctor(trace, &metrics).Diagnose();
  ASSERT_EQ(diagnosis.shards.size(), 4u);
  EXPECT_NE(diagnosis.verdict.find("4 shards"), std::string::npos)
      << diagnosis.verdict;
  EXPECT_NE(diagnosis.verdict.find("cross-shard sends"), std::string::npos);
  std::string table = diagnosis.ToString();
  EXPECT_NE(table.find("shards:"), std::string::npos) << table;
  EXPECT_NE(table.find("mbox-hiwat"), std::string::npos);
  Value diagnosis_value = diagnosis.ToValue();
  const ValueList* shard_rows = diagnosis_value.Field("shards").AsList();
  ASSERT_NE(shard_rows, nullptr);
  EXPECT_EQ(shard_rows->size(), 4u);
}

// Deep multi-node soak: the shape bench_scale measures, shrunk so the whole
// suite (and its TSan build) stays fast. Checks conservation and that the
// parallel run matches the sequential one item for item.
TEST(ShardedStress, DeepDistinctNodePipelineMatchesSequential) {
  const int items = 300;
  const size_t depth = 12;
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  options.work_ahead = 6;

  Kernel sequential;
  ValueList expected =
      RunPipeline(sequential, MakeLines(items), CopyChain(depth), options);
  ASSERT_EQ(expected.size(), static_cast<size_t>(items));

  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel sharded(kernel_options);
  ValueList actual =
      RunPipeline(sharded, MakeLines(items), CopyChain(depth), options);
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(sharded.quiescent());
  EXPECT_EQ(sequential.now(), sharded.now());
}

// ---- Dense Eject handles under sharding. The kernel names Ejects internally
// by (home node, slot); a UID reaches another shard's directory only at a
// window barrier. These runs pin that boundary.

// Invokes from the driver, then runs to quiescence. Every shard's clock then
// rests on its own last event, so the driver's now() (and thus the next
// external send) is the same at any shard count.
InvokeResult InvokeQuiescent(Kernel& kernel, Uid target, std::string op,
                             Value args = Value()) {
  InvokeResult result;
  kernel.ExternalInvoke(target, std::move(op), std::move(args),
                        [&result](InvokeResult r) { result = std::move(r); });
  EXPECT_TRUE(kernel.Run());
  return result;
}

std::string Describe(const InvokeResult& r) {
  return r.status.ToString() + " " + r.value().ToString();
}

// Answers "Tag" with tag * 10 + the number of Tag calls so far.
class Tagged : public Eject {
 public:
  Tagged(Kernel& kernel, int64_t tag) : Eject(kernel, "Tagged"), tag_(tag) {
    Register("Tag", [this](InvocationContext ctx) {
      ctx.Reply(Value(tag_ * 10 + ++calls_));
    });
  }

 private:
  int64_t tag_;
  int64_t calls_ = 0;
};

// "Use" invokes the Eject whose UID it was handed.
class Borrower : public Eject {
 public:
  explicit Borrower(Kernel& kernel) : Eject(kernel, "Borrower") {
    RegisterTask("Use", [this](InvocationContext ctx) { return Use(std::move(ctx)); });
  }

 private:
  Task<void> Use(InvocationContext ctx) {
    InvokeResult r = co_await Invoke(ctx.Arg("child").UidOr(Uid()), "Tag");
    ctx.ReplyStatus(r.status, std::move(r.body));
  }
};

// "Make" creates a Tagged Eject on its own node mid-run, invokes it in the
// same event (the UID is still only on this shard's fresh list), then hands
// it to the Borrower, whose shard can resolve it a window later at best.
class Maker : public Eject {
 public:
  Maker(Kernel& kernel, Uid borrower) : Eject(kernel, "Maker"), borrower_(borrower) {
    RegisterTask("Make", [this](InvocationContext ctx) { return Make(std::move(ctx)); });
  }

 private:
  Task<void> Make(InvocationContext ctx) {
    Uid child = kernel_.Create<Tagged>(node(), ctx.Arg("tag").IntOr(0)).uid();
    InvokeResult own = co_await Invoke(child, "Tag");
    InvokeResult lent =
        co_await Invoke(borrower_, "Use", Value().Set("child", Value(child)));
    ValueList both = {own.value(), lent.value()};
    ctx.ReplyStatus(lent.status, Value(std::move(both)));
  }

  Uid borrower_;
};

struct CreationRun {
  ValueList replies;
  std::string trace;
  std::string certificate;
  std::string stats;
  size_t active = 0;
  uint64_t cross_shard_sends = 0;
  uint64_t windows = 0;
};

CreationRun RunCreationInWindow(int shards) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  verify::ShardRaceAnalyzer auditor;
  kernel.set_tracer(trace.Hook());
  kernel.set_auditor(&auditor);
  NodeId maker_node = kernel.AddNode("maker");
  NodeId borrower_node = kernel.AddNode("borrower");
  Borrower& borrower = kernel.Create<Borrower>(borrower_node);
  Maker& maker = kernel.Create<Maker>(maker_node, borrower.uid());

  CreationRun run;
  constexpr int kChildren = 12;
  for (int64_t tag = 1; tag <= kChildren; ++tag) {
    kernel.ExternalInvoke(maker.uid(), "Make", Value().Set("tag", Value(tag)),
                          [&run](InvokeResult r) {
                            EXPECT_TRUE(r.ok()) << r.status;
                            run.replies.push_back(r.value());
                          });
  }
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(auditor.ok()) << auditor.ToString();
  run.trace = SerializeTrace(trace);
  run.certificate = auditor.ToJson();
  run.stats = kernel.stats().ToValue().ToString();
  run.active = kernel.active_eject_count();
  for (const ShardCounters& c : kernel.shard_counters()) {
    run.cross_shard_sends += c.cross_shard_sends;
    run.windows += c.windows;
  }
  return run;
}

TEST(ShardedHandles, EjectsCreatedInsideAWindowResolveOnOtherShards) {
  CreationRun base = RunCreationInWindow(1);
  ASSERT_EQ(base.replies.size(), 12u);
  for (int64_t tag = 1; tag <= 12; ++tag) {
    // The maker's own call is the child's first, the borrower's its second.
    EXPECT_EQ(base.replies[static_cast<size_t>(tag - 1)],
              Value(ValueList{Value(tag * 10 + 1), Value(tag * 10 + 2)}));
  }
  EXPECT_EQ(base.active, 2u + 12u);
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CreationRun run = RunCreationInWindow(shards);
    EXPECT_GT(run.windows, 0u);            // the run really went parallel...
    EXPECT_GT(run.cross_shard_sends, 0u);  // ...and the UIDs crossed shards
    EXPECT_EQ(run.replies, base.replies);
    EXPECT_EQ(run.trace, base.trace);
    EXPECT_EQ(run.certificate, base.certificate);
    EXPECT_EQ(run.stats, base.stats);
    EXPECT_EQ(run.active, base.active);
  }
}

// Checkpoints, then parks one process on a CondVar and one in Sleep. With
// "crash" set it notifies the CondVar and schedules its own crash ahead of
// both wakeups, which must then be dropped, even the one that comes due
// after a reactivation: a wakeup that ran would report to the witness (and
// resume a destroyed frame).
class Fragile : public Eject {
 public:
  static constexpr const char* kType = "Fragile";

  explicit Fragile(Kernel& kernel) : Eject(kernel, kType), poked_(*this) {
    Register("Arm", [this](InvocationContext ctx) {
      witness_ = ctx.Arg("witness").UidOr(witness_);
      ++arms_;
      Checkpoint();
      Spawn(AwaitPoke());
      Spawn(Doze());
      Spawn(Poke(ctx.Arg("crash").BoolOr(false)));
      ctx.Reply(Value(arms_));
    });
    Register("Get", [this](InvocationContext ctx) { ctx.Reply(Value(arms_)); });
  }

  Value SaveState() override {
    return Value().Set("arms", Value(arms_)).Set("witness", Value(witness_));
  }
  void RestoreState(const Value& state) override {
    arms_ = state.Field("arms").IntOr(0);
    witness_ = state.Field("witness").UidOr(Uid());
  }

 private:
  Task<void> AwaitPoke() {
    co_await poked_.Wait();
    (void)co_await Invoke(witness_, "Woke", Value(std::string("condvar")));
  }
  Task<void> Doze() {
    co_await Sleep(10'000);  // due well after the reactivation below
    (void)co_await Invoke(witness_, "Woke", Value(std::string("sleep")));
  }
  Task<void> Poke(bool crash) {
    poked_.Notify();  // the waiter's resumption is now queued
    if (crash) {
      Kernel* kernel = &kernel_;
      kernel_.ScheduleAction(0, [kernel, self = uid()] { kernel->Crash(self); });
    }
    co_return;
  }

  CondVar poked_;
  Uid witness_;
  int64_t arms_ = 0;
};

// Records wakeups; "Revive" invokes its target a little later, after the
// target's crash, which reactivates it.
class Witness : public Eject {
 public:
  explicit Witness(Kernel& kernel) : Eject(kernel, "Witness") {
    Register("Woke", [this](InvocationContext ctx) {
      woken_.push_back(ctx.args());
      ctx.Reply();
    });
    Register("Get", [this](InvocationContext ctx) { ctx.Reply(Value(woken_)); });
    RegisterTask("Revive", [this](InvocationContext ctx) { return Revive(std::move(ctx)); });
  }

 private:
  Task<void> Revive(InvocationContext ctx) {
    co_await Sleep(100);
    InvokeResult r = co_await Invoke(ctx.Arg("target").UidOr(Uid()), "Get");
    ctx.ReplyStatus(r.status, std::move(r.body));
  }

  ValueList woken_;
};

// "Probe" invokes a UID no Eject ever had.
class Prober : public Eject {
 public:
  explicit Prober(Kernel& kernel) : Eject(kernel, "Prober") {
    RegisterTask("Probe", [this](InvocationContext ctx) { return Probe(std::move(ctx)); });
  }

 private:
  Task<void> Probe(InvocationContext ctx) {
    InvokeResult r = co_await Invoke(Uid(0xF0F0F0F0ULL, 0x0BADC0DEULL), "Get");
    ctx.Reply(Value(static_cast<int64_t>(r.status.code())));
  }
};

struct CrashRun {
  std::vector<std::string> steps;
  std::string trace;
  std::string stats;
};

CrashRun RunCrashAndReactivate(int shards) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  kernel.types().Register(Fragile::kType,
                          [](Kernel& k) { return std::make_unique<Fragile>(k); });
  TraceRecorder trace;
  kernel.set_tracer(trace.Hook());
  NodeId fragile_node = kernel.AddNode("fragile");  // shard 1 of 4
  NodeId witness_node = kernel.AddNode("witness");  // shard 2 of 4
  NodeId prober_node = kernel.AddNode("prober");    // shard 3 of 4
  EXPECT_EQ(kernel.ShardOf(prober_node), shards == 4 ? 3 : 0);
  Uid fragile = kernel.Create<Fragile>(fragile_node).uid();
  Uid witness = kernel.Create<Witness>(witness_node).uid();
  Uid prober = kernel.Create<Prober>(prober_node).uid();

  CrashRun run;
  auto step = [&run](const std::string& what, const InvokeResult& r) {
    run.steps.push_back(what + ": " + Describe(r));
  };
  // Arm and crash mid-run; the witness's next invocation reactivates the
  // same UID from its checkpoint while the Sleep wakeup is still queued.
  InvokeResult armed;
  kernel.ExternalInvoke(fragile, "Arm",
                        Value().Set("witness", Value(witness)).Set("crash", Value(true)),
                        [&armed](InvokeResult r) { armed = std::move(r); });
  step("revive", InvokeQuiescent(kernel, witness, "Revive",
                                 Value().Set("target", Value(fragile))));
  step("arm+crash", armed);
  EXPECT_EQ(kernel.stats().crashes, 1u);
  EXPECT_EQ(kernel.stats().activations, 1u);
  EXPECT_TRUE(kernel.IsActive(fragile));
  EXPECT_EQ(kernel.Find(fragile)->uid(), fragile);
  step("woken after crash", InvokeQuiescent(kernel, witness, "Get"));
  // The reactivated instance's own processes do run.
  step("rearm", InvokeQuiescent(kernel, fragile, "Arm"));
  step("woken after rearm", InvokeQuiescent(kernel, witness, "Get"));
  step("forged", InvokeQuiescent(kernel, prober, "Probe"));
  run.trace = SerializeTrace(trace);
  run.stats = kernel.stats().ToValue().ToString();
  return run;
}

TEST(ShardedHandles, CrashReactivationAndForgedUidsAreShardCountInvariant) {
  CrashRun base = RunCrashAndReactivate(1);
  ASSERT_EQ(base.steps.size(), 6u);
  // Restored from the checkpoint taken by the first Arm.
  EXPECT_EQ(base.steps[0], "revive: " + Describe(InvokeResult{Status::Ok(), Value(1)}));
  EXPECT_EQ(base.steps[1], "arm+crash: " + Describe(InvokeResult{Status::Ok(), Value(1)}));
  // No wakeup scheduled before the crash ran.
  EXPECT_EQ(base.steps[2],
            "woken after crash: " + Describe(InvokeResult{Status::Ok(), Value(ValueList{})}));
  EXPECT_EQ(base.steps[3], "rearm: " + Describe(InvokeResult{Status::Ok(), Value(2)}));
  EXPECT_EQ(base.steps[4],
            "woken after rearm: " +
                Describe(InvokeResult{
                    Status::Ok(), Value(ValueList{Value(std::string("condvar")),
                                                  Value(std::string("sleep"))})}));
  EXPECT_EQ(base.steps[5],
            "forged: " +
                Describe(InvokeResult{
                    Status::Ok(),
                    Value(static_cast<int64_t>(StatusCode::kNoSuchEject))}));
  CrashRun sharded = RunCrashAndReactivate(4);
  EXPECT_EQ(sharded.steps, base.steps);
  EXPECT_EQ(sharded.trace, base.trace);
  EXPECT_EQ(sharded.stats, base.stats);
}

// A StreamServer whose production the driver controls.
class HandFedSource : public Eject {
 public:
  explicit HandFedSource(Kernel& kernel) : Eject(kernel, "HandFedSource"), server(*this) {
    server.DeclareChannel(std::string(kChanOut));
    server.InstallOps();
  }

  void Produce(Value item) { Spawn(WriteOne(std::move(item))); }

  StreamServer server;

 private:
  Task<void> WriteOne(Value item) { co_await server.Write(kChanOut, std::move(item)); }
};

// "Read" issues one Transfer against `source` from its own node.
class OneShotReader : public Eject {
 public:
  OneShotReader(Kernel& kernel, Uid source) : Eject(kernel, "OneShotReader"), source_(source) {
    RegisterTask("Read", [this](InvocationContext ctx) { return Read(std::move(ctx)); });
  }

 private:
  Task<void> Read(InvocationContext ctx) {
    // A named record: GCC 12 destroys a braced temporary inside a co_await
    // expression twice.
    TransferArgs args{Value(std::string(kChanOut)), 1};
    InvokeResult r = co_await Invoke(source_, "Transfer", std::move(args));
    ctx.ReplyStatus(r.status, std::move(r.body));
  }

  Uid source_;
};

TEST(ShardedHandles, SetShardsKeepsEjectsAndParkedReads) {
  Kernel kernel;
  NodeId reader_node = kernel.AddNode("reader");
  NodeId source_node = kernel.AddNode("source");
  HandFedSource& source = kernel.Create<HandFedSource>(source_node);
  Uid reader = kernel.Create<OneShotReader>(reader_node, source.uid()).uid();
  std::vector<Uid> before = kernel.ActiveUids();
  ASSERT_EQ(before.size(), 2u);

  auto park = [&](std::vector<InvokeResult>& got) {
    kernel.ExternalInvoke(reader, "Read", Value(),
                          [&got](InvokeResult r) { got.push_back(std::move(r)); });
    EXPECT_TRUE(kernel.Run());
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(source.server.parked_requests(kChanOut), 1u);
  };
  auto all_findable = [&] {
    for (const Uid& uid : before) {
      EXPECT_NE(kernel.Find(uid), nullptr) << uid.ToString();
    }
    EXPECT_EQ(kernel.ActiveUids(), before);
  };

  // Parked at 1 shard; the wait record and the open route follow their
  // nodes to shards 1 and 2, and the read completes in a parallel run.
  std::vector<InvokeResult> first;
  park(first);
  ASSERT_TRUE(kernel.set_shards(4));
  all_findable();
  source.Produce(Value(std::string("one")));
  EXPECT_TRUE(kernel.Run());
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].ok()) << first[0].status;
  EXPECT_EQ(first[0].As<BatchReply>()->items, (ValueList{Value(std::string("one"))}));

  // Parked at 4 shards; back to 1 and completed sequentially.
  std::vector<InvokeResult> second;
  park(second);
  ASSERT_TRUE(kernel.set_shards(1));
  all_findable();
  source.Produce(Value(std::string("two")));
  EXPECT_TRUE(kernel.Run());
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(second[0].ok()) << second[0].status;
  EXPECT_EQ(second[0].As<BatchReply>()->items, (ValueList{Value(std::string("two"))}));
}

}  // namespace
}  // namespace eden

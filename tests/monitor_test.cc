// InvariantMonitor tests: conservation on clean runs in all three
// disciplines, the (n+1)(m+1) invocation identity, detection of seeded
// message loss, span-tree and sequence-counter checks, and violation events
// flowing into a trace recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/pipeline.h"
#include "src/eden/fault.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/eden/monitor.h"
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

ValueList Items(size_t n) {
  ValueList input;
  for (size_t i = 0; i < n; ++i) {
    input.push_back(Value(static_cast<int64_t>(i)));
  }
  return input;
}

// Runs one clean pipeline under the monitor; returns the handle's output
// size so callers can sanity-check the run itself.
size_t RunMonitored(Discipline discipline, InvariantMonitor& monitor,
                    size_t filters, size_t items, int work_ahead = 0) {
  Kernel kernel;
  kernel.set_monitor(&monitor);
  PipelineOptions options;
  options.discipline = discipline;
  options.work_ahead = work_ahead;
  PipelineHandle handle =
      BuildPipeline(kernel, Items(items), Copies(filters), options);
  handle.LabelAll(monitor);
  kernel.RunUntil([&handle] { return handle.done(); });
  return handle.output().size();
}

TEST(MonitorTest, CleanReadOnlyRunSatisfiesAllInvariants) {
  InvariantMonitor monitor;
  monitor.ExpectReadOnlyPipeline(3, 5);  // the §4 identity: (3+1)(5+1) = 24
  ASSERT_EQ(RunMonitored(Discipline::kReadOnly, monitor, 3, 5), 5u);
  std::vector<InvariantMonitor::Violation> violations = monitor.Check();
  EXPECT_TRUE(violations.empty()) << monitor.ToString();
  EXPECT_TRUE(monitor.ok());
  EXPECT_EQ(monitor.invocations_of("Transfer"), 24u);
  EXPECT_TRUE(JsonValidate(ValueToJson(monitor.ToValue())));
  EXPECT_NE(monitor.ToString().find("all invariants hold"), std::string::npos);
}

TEST(MonitorTest, CleanWriteOnlyRunBalances) {
  InvariantMonitor monitor;
  ASSERT_EQ(RunMonitored(Discipline::kWriteOnly, monitor, 3, 5), 5u);
  EXPECT_TRUE(monitor.ok()) << monitor.ToString();
}

TEST(MonitorTest, CleanConventionalRunBalances) {
  InvariantMonitor monitor;
  ASSERT_EQ(RunMonitored(Discipline::kConventional, monitor, 3, 5), 5u);
  EXPECT_TRUE(monitor.ok()) << monitor.ToString();
}

TEST(MonitorTest, WorkAheadRunStillBalances) {
  InvariantMonitor monitor;
  ASSERT_EQ(RunMonitored(Discipline::kReadOnly, monitor, 2, 8,
                         /*work_ahead=*/4),
            8u);
  EXPECT_TRUE(monitor.ok()) << monitor.ToString();
}

// The detection test: with every reply dropped and no retries, the source's
// server serves its first batch but the items never reach the sink's reader
// — flow conservation must flag items lost on the wire.
TEST(MonitorTest, SeededReplyDropBreaksWireConservation) {
  Kernel kernel;
  FaultPlan plan;
  plan.drop_reply = 1.0;
  FaultInjector injector(plan);
  kernel.set_fault_injector(&injector);
  InvariantMonitor monitor;
  kernel.set_monitor(&monitor);

  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  PipelineHandle handle = BuildPipeline(kernel, Items(5), Copies(1), options);
  handle.LabelAll(monitor);
  kernel.Run();  // deadlocks quietly: every reply is lost

  EXPECT_LT(handle.output().size(), 5u);
  std::vector<InvariantMonitor::Violation> violations = monitor.Check();
  ASSERT_FALSE(violations.empty());
  bool saw_conservation = false;
  for (const auto& violation : violations) {
    saw_conservation =
        saw_conservation ||
        violation.kind == InvariantMonitor::Violation::Kind::kFlowConservation;
  }
  EXPECT_TRUE(saw_conservation) << monitor.ToString();
  EXPECT_NE(monitor.ToString().find("VIOLATIONS"), std::string::npos);
}

TEST(MonitorTest, WrongInvocationExpectationIsFlagged) {
  InvariantMonitor monitor;
  monitor.ExpectInvocations("Transfer", 999);
  RunMonitored(Discipline::kReadOnly, monitor, 3, 5);
  std::vector<InvariantMonitor::Violation> violations = monitor.Check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind,
            InvariantMonitor::Violation::Kind::kInvocationCount);
  EXPECT_NE(violations[0].detail.find("999"), std::string::npos);
}

TEST(MonitorTest, SpanTreeViolationsAreCaughtInline) {
  InvariantMonitor monitor;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInvoke;
  event.op = "Transfer";
  event.id = 5;
  event.parent = 7;  // a parent from the future: impossible causality
  monitor.OnTraceEvent(event);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind,
            InvariantMonitor::Violation::Kind::kSpanTree);

  event.id = 5;  // replayed id: allocation is strictly monotone
  event.parent = 0;
  monitor.OnTraceEvent(event);
  EXPECT_EQ(monitor.violations().size(), 2u);
}

TEST(MonitorTest, SequenceRegressionIsCaughtInline) {
  InvariantMonitor monitor;
  const Uid stage(4, 4);
  monitor.OnSequence(0, stage, 10, SeqCounter::kServerNext, 5);
  monitor.OnSequence(0, stage, 20, SeqCounter::kServerNext, 7);
  EXPECT_TRUE(monitor.violations().empty());
  monitor.OnSequence(0, stage, 30, SeqCounter::kServerNext, 3);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind,
            InvariantMonitor::Violation::Kind::kSequence);
  EXPECT_EQ(monitor.violations()[0].at, 30);
}

// A counter's first record on a shard continues the history the last
// re-partition folded into the base, so a regression across a Fold is caught.
TEST(MonitorTest, SequenceRegressionIsCaughtAcrossAFold) {
  InvariantMonitor monitor;
  const Uid stage(4, 4);
  monitor.Label(stage, "server");
  monitor.OnSequence(0, stage, 10, SeqCounter::kServerNext, 5);
  monitor.Fold(2);
  monitor.OnSequence(1, stage, 20, SeqCounter::kServerNext, 3);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].kind, InvariantMonitor::Violation::Kind::kSequence);
  EXPECT_EQ(monitor.violations()[0].detail, "server server.next regressed 5 -> 3");
  monitor.OnSequence(1, stage, 30, SeqCounter::kServerNext, 6);
  EXPECT_EQ(monitor.violations().size(), 1u);
}

TEST(MonitorTest, ViolationsFlowIntoTheTraceAsEvents) {
  TraceRecorder recorder;
  InvariantMonitor monitor;
  monitor.set_trace_sink(recorder.Hook());
  const Uid stage(4, 4);
  monitor.OnSequence(0, stage, 10, SeqCounter::kAcceptorNext, 5);
  monitor.OnSequence(0, stage, 20, SeqCounter::kAcceptorNext, 2);
  monitor.Fold();  // a hook's violation reaches the sink at the next fold

  ASSERT_EQ(recorder.size(), 1u);
  const TraceEvent& event = recorder.events().front();
  EXPECT_EQ(event.kind, TraceEvent::Kind::kViolation);
  EXPECT_EQ(event.at, 20);
  EXPECT_EQ(event.from, stage);
  EXPECT_NE(event.op.find("sequence"), std::string::npos);
  // And the renderer knows how to print it.
  EXPECT_NE(recorder.Render().find("INVARIANT"), std::string::npos);
}

// Reports, on "Serve", one item served that the stage never produced: an
// impossible flow the monitor catches inline.
class Overserver : public Eject {
 public:
  explicit Overserver(Kernel& host) : Eject(host, "Overserver") {
    Register("Serve", [this](InvocationContext ctx) {
      kernel().ObserveItems(ItemFlow::kServed, *this, 1);
      ctx.Reply();
    });
  }
};

struct OrderedViolations {
  std::vector<std::string> listed;   // violations(), in order
  std::vector<std::string> emitted;  // kViolation trace events, in order
};

OrderedViolations RunOverservers(int shards) {
  KernelOptions options;
  options.shards = shards;
  Kernel kernel(options);
  TraceRecorder recorder;
  InvariantMonitor monitor;
  monitor.set_trace_sink(recorder.Hook());
  kernel.set_monitor(&monitor);
  std::vector<Uid> stages;
  for (int i = 0; i < 4; ++i) {
    NodeId node = kernel.AddNode("n" + std::to_string(i));
    stages.push_back(kernel.Create<Overserver>(node).uid());
  }
  // Invoked last node first; every invocation arrives at the same tick.
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    kernel.ExternalInvoke(*it, "Serve", Value(), [](InvokeResult) {});
  }
  EXPECT_TRUE(kernel.Run());
  // The documented order: (tick, stage UID); all four share the tick.
  const std::vector<InvariantMonitor::Violation>& found = monitor.violations();
  EXPECT_TRUE(!found.empty() && found.front().at == found.back().at);
  EXPECT_TRUE(std::is_sorted(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return a.at != b.at ? a.at < b.at : a.stage < b.stage;
  }));
  OrderedViolations out;
  for (const InvariantMonitor::Violation& v : found) {
    out.listed.push_back(std::to_string(v.at) + " " + v.stage.ToString() + " " +
                         v.detail);
  }
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind == TraceEvent::Kind::kViolation) {
      out.emitted.push_back(std::to_string(e.at) + " " + e.from.ToString());
    }
  }
  return out;
}

TEST(MonitorTest, ShardedViolationsKeepOneOrder) {
  const OrderedViolations one = RunOverservers(1);
  ASSERT_EQ(one.listed.size(), 4u);
  ASSERT_EQ(one.emitted.size(), 4u);
  for (size_t i = 0; i < one.listed.size(); ++i) {
    EXPECT_EQ(one.listed[i].rfind(one.emitted[i], 0), 0u) << one.listed[i];
  }
  const OrderedViolations four = RunOverservers(4);
  EXPECT_EQ(four.listed, one.listed);
  EXPECT_EQ(four.emitted, one.emitted);
}

// A stage that only reports: the test calls the kernel feed on its behalf.
class Stage : public Eject {
 public:
  explicit Stage(Kernel& host) : Eject(host, "Stage") {}
};

// Kernel::ObserveItems adds each ItemFlow to exactly its own Flow field, the
// wire flows reach Check()'s edge accounting, a banded take is checked
// against its band, and a move of zero items leaves no row, on one shard
// and across four.
TEST(MonitorTest, EveryItemFlowLandsInItsField) {
  using Flow = InvariantMonitor::Flow;
  const std::pair<ItemFlow, uint64_t Flow::*> fields[] = {
      {ItemFlow::kProduced, &Flow::produced}, {ItemFlow::kServed, &Flow::served},
      {ItemFlow::kPushed, &Flow::pushed},     {ItemFlow::kPulled, &Flow::pulled},
      {ItemFlow::kAccepted, &Flow::accepted}, {ItemFlow::kConsumed, &Flow::consumed},
      {ItemFlow::kPutBack, &Flow::putback}};
  auto values = [](const Flow& f) {
    return std::vector<uint64_t>{f.produced, f.served,   f.pushed, f.pulled,
                                 f.accepted, f.consumed, f.putback};
  };
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    KernelOptions options;
    options.shards = shards;
    Kernel kernel(options);
    InvariantMonitor monitor;
    kernel.set_monitor(&monitor);
    std::vector<NodeId> nodes;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(kernel.AddNode("n" + std::to_string(i)));
    }
    size_t made = 0;
    auto stage = [&](const std::string& name) -> Stage& {
      Stage& created = kernel.Create<Stage>(nodes[made++ % nodes.size()]);
      monitor.Label(created.uid(), name);
      return created;
    };

    for (const auto& [flow, field] : fields) {
      Stage& one = stage("stage");
      kernel.ObserveItems(flow, one, 3);
      Flow want;
      want.*field = 3;
      const std::map<Uid, Flow> flows = monitor.flows();
      ASSERT_EQ(flows.count(one.uid()), 1u);
      EXPECT_EQ(values(flows.at(one.uid())), values(want));
    }

    Stage& idle = stage("idle");
    for (const auto& [flow, field] : fields) {
      kernel.ObserveItems(flow, idle, 0);
    }
    EXPECT_EQ(monitor.flows().count(idle.uid()), 0u);

    monitor.Clear();
    Stage& server = stage("server");
    Stage& reader = stage("reader");
    Stage& writer = stage("writer");
    Stage& acceptor = stage("acceptor");
    kernel.ObserveItems(ItemFlow::kProduced, server, 2);
    kernel.ObserveItems(ItemFlow::kServed, server, 2);
    kernel.ObserveItems(ItemFlow::kPulled, reader, 2, server.uid());
    kernel.ObserveItems(ItemFlow::kProduced, writer, 3);
    kernel.ObserveItems(ItemFlow::kPushed, writer, 2, acceptor.uid());
    kernel.ObserveItems(ItemFlow::kAccepted, acceptor, 2);
    EXPECT_TRUE(monitor.Check().empty());
    kernel.ObserveItems(ItemFlow::kPulled, reader, 1, server.uid());
    kernel.ObserveItems(ItemFlow::kPushed, writer, 1, acceptor.uid());
    std::vector<std::string> wire;
    for (const InvariantMonitor::Violation& v : monitor.Check()) {
      wire.push_back(v.detail);
    }
    EXPECT_EQ(wire, (std::vector<std::string>{
                        "server served 2 items but consumers ingested 3 (lost on the wire)",
                        "writers pushed 3 items at acceptor but it accepted 2 (lost on the wire)"}));

    Stage& banded = stage("banded");
    kernel.ObserveItems(ItemFlow::kAccepted, banded, 1, Uid(), BandIndex(Band::kData));
    kernel.ObserveItems(ItemFlow::kAccepted, banded, 1, Uid(), BandIndex(Band::kControl));
    EXPECT_TRUE(monitor.violations().empty());
    kernel.ObserveItems(ItemFlow::kConsumed, banded, 2, Uid(), BandIndex(Band::kData));
    ASSERT_EQ(monitor.violations().size(), 1u);
    EXPECT_EQ(monitor.violations()[0].detail,
              "banded band 0 handed out 2 items but only 1 arrived on it");
  }
}

TEST(MonitorTest, ClearResetsEverything) {
  InvariantMonitor monitor;
  monitor.ExpectInvocations("Transfer", 999);
  RunMonitored(Discipline::kReadOnly, monitor, 1, 2);
  EXPECT_FALSE(monitor.ok());
  monitor.Clear();
  EXPECT_TRUE(monitor.ok());
  EXPECT_TRUE(monitor.flows().empty());
  EXPECT_EQ(monitor.invocations_of("Transfer"), 0u);
}

}  // namespace
}  // namespace eden

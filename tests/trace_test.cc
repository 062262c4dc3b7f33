// Trace facility tests: event capture, filtering, rendering, ring-buffer
// bounds, and the causal span index.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/endpoints.h"
#include "src/core/pipeline.h"
#include "src/eden/fault.h"
#include "src/eden/kernel.h"
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

TEST(TraceTest, CapturesInvocationAndReplyPairs) {
  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());
  VectorSource& source = kernel.CreateLocal<VectorSource>(
      ValueList{Value("a"), Value("b")});
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });

  size_t invokes = 0;
  size_t replies = 0;
  for (const TraceEvent& event : recorder.events()) {
    if (event.kind == TraceEvent::Kind::kInvoke) {
      invokes++;
      EXPECT_EQ(event.op, "Transfer");
      EXPECT_EQ(event.from, sink.uid());
      EXPECT_EQ(event.to, source.uid());
    } else {
      replies++;
      EXPECT_TRUE(event.ok);
    }
  }
  EXPECT_EQ(invokes, replies);
  EXPECT_GE(invokes, 2u);
  // Timestamps are monotone.
  for (size_t i = 1; i < recorder.events().size(); ++i) {
    EXPECT_GE(recorder.events()[i].at, recorder.events()[i - 1].at);
  }
}

TEST(TraceTest, FilterOpsKeepsMatchingPairs) {
  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());
  VectorSource& source = kernel.CreateLocal<VectorSource>(ValueList{Value("x")});
  (void)kernel.InvokeAndRun(source.uid(), std::string(kOpOpenChannel),
                            Value().Set(std::string(kFieldName),
                                        Value(std::string(kChanOut))));
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });

  recorder.FilterOps({"OpenChannel"});
  ASSERT_EQ(recorder.size(), 2u);  // the OpenChannel and its reply
  EXPECT_EQ(recorder.events()[0].op, "OpenChannel");
  EXPECT_EQ(recorder.events()[1].kind, TraceEvent::Kind::kReply);
}

TEST(TraceTest, RenderShowsLabelsAndArrows) {
  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());
  VectorSource& source = kernel.CreateLocal<VectorSource>(ValueList{Value("x")});
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  recorder.Label(source.uid(), "source");
  recorder.Label(sink.uid(), "sink");

  std::string chart = recorder.Render();
  EXPECT_NE(chart.find("source"), std::string::npos);
  EXPECT_NE(chart.find("sink"), std::string::npos);
  EXPECT_NE(chart.find("Transfer"), std::string::npos);
  EXPECT_NE(chart.find('>'), std::string::npos);
  EXPECT_NE(chart.find("t="), std::string::npos);
}

TEST(TraceTest, RenderTruncatesLongTraces) {
  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());
  ValueList many;
  for (int i = 0; i < 50; ++i) {
    many.push_back(Value(int64_t{i}));
  }
  VectorSource& source = kernel.CreateLocal<VectorSource>(std::move(many));
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  std::string chart = recorder.Render(/*max_rows=*/5);
  EXPECT_NE(chart.find("more events"), std::string::npos);
}

TEST(TraceTest, EmptyTraceRenders) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.Render(), "(no events)\n");
}

TEST(TraceTest, DropAndTimeoutAreRecordedAndRendered) {
  Kernel kernel;
  FaultPlan plan;
  plan.drop_invocation = 1.0;  // every inter-Eject invocation is lost
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

  size_t drops = 0;
  size_t timeouts = 0;
  for (const TraceEvent& event : recorder.events()) {
    drops += event.kind == TraceEvent::Kind::kDrop ? 1 : 0;
    timeouts += event.kind == TraceEvent::Kind::kTimeout ? 1 : 0;
  }
  ASSERT_GE(drops, 1u);
  ASSERT_GE(timeouts, 1u);

  // The span remembers both fates.
  auto spans = recorder.SpanIndex();
  bool saw_doomed = false;
  for (const auto& [id, span] : spans) {
    if (span.dropped) {
      saw_doomed = true;
      EXPECT_TRUE(span.timed_out);
      EXPECT_EQ(span.to, source.uid());
    }
  }
  EXPECT_TRUE(saw_doomed);

  std::string chart = recorder.Render();
  EXPECT_NE(chart.find("LOST Transfer"), std::string::npos);
  EXPECT_NE(chart.find("deadline"), std::string::npos);
}

TEST(TraceTest, CrashRendersAsSelfMarker) {
  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());
  Uid source = kernel.CreateLocal<VectorSource>(ValueList{Value("x")}).uid();
  kernel.Run();
  kernel.Crash(source);  // destroys the Eject; only the uid stays valid

  bool saw_crash = false;
  for (const TraceEvent& event : recorder.events()) {
    if (event.kind == TraceEvent::Kind::kCrash) {
      saw_crash = true;
      EXPECT_EQ(event.from, source);
      EXPECT_EQ(event.to, source);
      EXPECT_EQ(event.op, "VectorSource");
    }
  }
  ASSERT_TRUE(saw_crash);
  EXPECT_NE(recorder.Render().find("CRASH VectorSource"), std::string::npos);
}

TEST(TraceTest, RingBufferEvictsOldestAndCounts) {
  TraceRecorder recorder(4);
  Tracer hook = recorder.Hook();
  for (uint64_t i = 1; i <= 10; ++i) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kInvoke;
    event.id = i;
    event.at = static_cast<Tick>(i);
    event.op = "Op";
    hook(event);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.events_dropped(), 6u);
  EXPECT_EQ(recorder.events().front().id, 7u);  // oldest retained
  EXPECT_EQ(recorder.events().back().id, 10u);

  recorder.set_capacity(2);  // shrinking evicts immediately
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.events_dropped(), 8u);
  EXPECT_EQ(recorder.events().front().id, 9u);

  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
}

// Ring eviction can strand a span whose parent's kInvoke was dropped: the
// index must re-root it (parent = 0, orphaned flag set) rather than leave a
// dangling parent id, and links between surviving spans must stay intact.
TEST(TraceTest, SpanIndexReRootsSpansWithEvictedParents) {
  TraceRecorder recorder(2);
  Tracer hook = recorder.Hook();
  auto invoke = [&hook](InvocationId id, InvocationId parent) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kInvoke;
    event.id = id;
    event.parent = parent;
    event.op = "Transfer";
    event.at = static_cast<Tick>(id * 10);
    hook(event);
  };
  invoke(1, 0);
  invoke(2, 1);
  invoke(3, 2);  // evicts id 1: span 2's parent is now gone

  auto spans = recorder.SpanIndex();
  ASSERT_EQ(spans.size(), 2u);
  const TraceRecorder::Span& two = spans.at(2);
  EXPECT_TRUE(two.orphaned);
  EXPECT_EQ(two.parent, 0u);
  const TraceRecorder::Span& three = spans.at(3);
  EXPECT_FALSE(three.orphaned);
  EXPECT_EQ(three.parent, 2u);
  ASSERT_EQ(two.children.size(), 1u);
  EXPECT_EQ(two.children[0], 3u);
  // True roots are distinguishable from eviction artifacts.
  size_t true_roots = 0;
  size_t orphans = 0;
  for (const auto& [id, span] : spans) {
    if (span.parent == 0) {
      (span.orphaned ? orphans : true_roots)++;
    }
  }
  EXPECT_EQ(true_roots, 0u);
  EXPECT_EQ(orphans, 1u);
}

// The acceptance test for causal spans: in a fully lazy 3-filter read-only
// chain, a Transfer arriving at the source must be causally descended from
// the sink's original demand — parent links hop filter by filter.
TEST(TraceTest, SpanParentsFollowTheDemandChain) {
  Kernel kernel;
  TraceRecorder recorder;
  kernel.set_tracer(recorder.Hook());

  ValueList input;
  for (int i = 0; i < 6; ++i) {
    input.push_back(Value(int64_t{i}));
  }
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.work_ahead = 0;  // fully lazy: every Transfer is demand-driven
  PipelineHandle handle = BuildPipeline(kernel, std::move(input), Copies(3), options);
  handle.LabelAll(recorder);
  kernel.RunUntil([&handle] { return handle.done(); });
  ASSERT_EQ(handle.output().size(), 6u);

  auto spans = recorder.SpanIndex();
  ASSERT_EQ(spans.size(), recorder.span_count());

  // Parent/child integrity: every recorded parent link has the matching
  // child entry, and children never predate their parents.
  for (const auto& [id, span] : spans) {
    if (span.parent == 0) {
      continue;
    }
    auto parent = spans.find(span.parent);
    ASSERT_NE(parent, spans.end());
    EXPECT_GE(span.start, parent->second.start);
    const auto& siblings = parent->second.children;
    EXPECT_NE(std::find(siblings.begin(), siblings.end(), id), siblings.end());
  }

  // ejects = [source, F1, F2, F3, sink]. Walk one source-bound Transfer's
  // ancestry: it should climb F1 -> F2 -> F3 and terminate at a root span
  // (the sink's own pump loop).
  const Uid& source = handle.ejects[0];
  bool chained = false;
  for (const auto& [id, span] : spans) {
    if (span.to != source || span.op != std::string(kOpTransfer)) {
      continue;
    }
    std::vector<Uid> ancestors;
    InvocationId at = span.parent;
    while (at != 0 && spans.count(at) > 0) {
      ancestors.push_back(spans.at(at).to);
      at = spans.at(at).parent;
    }
    if (ancestors.size() == 3 && ancestors[0] == handle.ejects[1] &&
        ancestors[1] == handle.ejects[2] && ancestors[2] == handle.ejects[3]) {
      chained = true;
      break;
    }
  }
  EXPECT_TRUE(chained);
}

}  // namespace
}  // namespace eden

// Fault-tolerant streams: invocation deadlines, deterministic fault
// injection, sequenced-stream retry/replay/dedup, and crash-and-reactivate
// recovery of mid-pipeline filters in all three transput disciplines.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/pipeline.h"
#include "src/core/stream.h"
#include "src/core/stream_acceptor.h"
#include "src/core/stream_reader.h"
#include "src/core/stream_server.h"
#include "src/eden/fault.h"
#include "src/eden/kernel.h"

namespace eden {
namespace {

ValueList MakeInts(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value(int64_t{i}));
  }
  return items;
}

// ---------------------------------------------------------------- deadlines

// Parks every "Op" reply forever: the callee that never answers.
class SilentEject : public Eject {
 public:
  explicit SilentEject(Kernel& kernel) : Eject(kernel, "Silent") {
    Register("Op", [this](InvocationContext ctx) {
      parked_.push_back(ctx.TakeReply());
    });
  }

 private:
  std::deque<ReplyHandle> parked_;
};

// Answers "Op" after `delay` ticks — possibly after the caller's deadline.
class SlowEject : public Eject {
 public:
  SlowEject(Kernel& kernel, Tick delay) : Eject(kernel, "Slow"), delay_(delay) {
    Register("Op", [this](InvocationContext ctx) {
      Spawn(ReplyLate(ctx.TakeReply()));
    });
  }

 private:
  Task<void> ReplyLate(ReplyHandle reply) {
    co_await Sleep(delay_);
    reply.Reply(Value(int64_t{42}));
  }

  Tick delay_;
};

class DeadlineCaller : public Eject {
 public:
  DeadlineCaller(Kernel& kernel, Uid target, Tick deadline)
      : Eject(kernel, "Caller"), target_(target), deadline_(deadline) {}

  void OnStart() override { Spawn(Go()); }

  bool done = false;
  Status status;

 private:
  Task<void> Go() {
    InvokeResult r = co_await Invoke(target_, "Op", Value(), deadline_);
    status = std::move(r.status);
    done = true;
  }

  Uid target_;
  Tick deadline_;
};

TEST(DeadlineTest, FiresWhenTargetNeverReplies) {
  Kernel kernel;
  SilentEject& silent = kernel.CreateLocal<SilentEject>();
  DeadlineCaller& caller =
      kernel.CreateLocal<DeadlineCaller>(silent.uid(), Tick{500});
  kernel.Run();
  ASSERT_TRUE(caller.done);
  EXPECT_TRUE(caller.status.is(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(kernel.stats().timeouts, 1u);
}

TEST(DeadlineTest, ZeroDeadlineWaitsForever) {
  Kernel kernel;
  SlowEject& slow = kernel.CreateLocal<SlowEject>(Tick{5'000});
  DeadlineCaller& caller = kernel.CreateLocal<DeadlineCaller>(slow.uid(), Tick{0});
  kernel.Run();
  ASSERT_TRUE(caller.done);
  EXPECT_TRUE(caller.status.ok());
  EXPECT_EQ(kernel.stats().timeouts, 0u);
}

// The race from the issue: the deadline fires first, the genuine reply
// arrives later. The caller must see exactly one resumption (the deadline)
// and the late reply must be swallowed by the pending-table erase.
TEST(DeadlineTest, LateReplyAfterDeadlineIsDropped) {
  Kernel kernel;
  SlowEject& slow = kernel.CreateLocal<SlowEject>(Tick{2'000});
  DeadlineCaller& caller = kernel.CreateLocal<DeadlineCaller>(slow.uid(), Tick{300});
  kernel.Run();  // runs past the late reply at ~2000 ticks
  ASSERT_TRUE(caller.done);
  EXPECT_TRUE(caller.status.is(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(kernel.stats().timeouts, 1u);
  // The late reply found no pending entry: it must not have been delivered.
  EXPECT_TRUE(kernel.quiescent());
}

TEST(DeadlineTest, ReplyBeforeDeadlineCancelsIt) {
  Kernel kernel;
  SlowEject& slow = kernel.CreateLocal<SlowEject>(Tick{200});
  DeadlineCaller& caller =
      kernel.CreateLocal<DeadlineCaller>(slow.uid(), Tick{50'000});
  kernel.Run();
  ASSERT_TRUE(caller.done);
  EXPECT_TRUE(caller.status.ok());
  EXPECT_EQ(kernel.stats().timeouts, 0u);
}

// ----------------------------------------------------------- fault injector

TEST(FaultInjectorTest, SameSeedSamePlanIsByteIdentical) {
  auto run = [](uint64_t seed) {
    Kernel kernel;
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_invocation = 0.05;
    plan.drop_reply = 0.05;
    plan.jitter = 30;
    FaultInjector injector(plan);
    kernel.set_fault_injector(&injector);
    PipelineOptions options;
    options.discipline = Discipline::kReadOnly;
    options.recovery.enabled = true;
    ValueList output = RunPipeline(kernel, MakeInts(30),
                                   {MakeTransformFactory<LambdaTransform>(
                                       "copy",
                                       [](const Value& v, const Transform::EmitFn& emit) {
                                         emit(kChanOut, v);
                                       })},
                                   options);
    return std::make_pair(kernel.stats().ToString(), output);
  };
  auto [stats_a, out_a] = run(7);
  auto [stats_b, out_b] = run(7);
  auto [stats_c, out_c] = run(8);
  EXPECT_EQ(stats_a, stats_b);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(out_a, out_c);  // different faults, same recovered output
  EXPECT_NE(stats_a, stats_c);  // but a genuinely different fault pattern
}

TEST(FaultInjectorTest, DropsAreCountedAndTraced) {
  Kernel kernel;
  FaultPlan plan;
  plan.drop_invocation = 0.5;
  FaultInjector injector(plan);
  kernel.set_fault_injector(&injector);
  size_t drop_events = 0;
  kernel.set_tracer([&drop_events](const TraceEvent& event) {
    if (event.kind == TraceEvent::Kind::kDrop) {
      drop_events++;
    }
  });
  SlowEject& slow = kernel.CreateLocal<SlowEject>(Tick{10});
  for (int i = 0; i < 40; ++i) {
    kernel.CreateLocal<DeadlineCaller>(slow.uid(), Tick{1'000});
  }
  kernel.Run();
  EXPECT_GT(injector.invocations_dropped(), 0u);
  EXPECT_EQ(kernel.stats().messages_dropped, injector.invocations_dropped());
  EXPECT_EQ(drop_events, injector.invocations_dropped());
  EXPECT_EQ(kernel.stats().timeouts, injector.invocations_dropped());
}

// ------------------------------------------------- recovery: lost messages

// A stateful transform: proves transform state rides the checkpoint.
class RunningSum : public Transform {
 public:
  void OnItem(const Value& item, const EmitFn& emit) override {
    sum_ += item.IntOr(0);
    emit(kChanOut, Value(sum_));
  }
  Value SaveState() const override {
    Value state;
    state.Set("sum", Value(sum_));
    return state;
  }
  void RestoreState(const Value& state) override {
    sum_ = state.Field("sum").IntOr(0);
  }
  std::string name() const override { return "running-sum"; }

 private:
  int64_t sum_ = 0;
};

std::vector<TransformFactory> SumThenCopy() {
  return {MakeTransformFactory<RunningSum>(),
          MakeTransformFactory<LambdaTransform>(
              "copy", [](const Value& v, const Transform::EmitFn& emit) {
                emit(kChanOut, v);
              })};
}

PipelineOptions RecoveryOptions(Discipline discipline) {
  PipelineOptions options;
  options.discipline = discipline;
  options.processing_cost = 20;
  options.recovery.enabled = true;
  options.recovery.checkpoint_every = 8;
  return options;
}

class FaultRecoveryTest : public ::testing::TestWithParam<Discipline> {};

TEST_P(FaultRecoveryTest, LostMessagesDoNotChangeOutput) {
  const Discipline discipline = GetParam();
  ValueList clean;
  {
    Kernel kernel;
    clean = RunPipeline(kernel, MakeInts(40), SumThenCopy(),
                        RecoveryOptions(discipline));
    // Fault-free recovery runs must not exercise any fault machinery.
    EXPECT_EQ(kernel.stats().timeouts, 0u);
    EXPECT_EQ(kernel.stats().retries, 0u);
    EXPECT_EQ(kernel.stats().messages_dropped, 0u);
    EXPECT_EQ(kernel.stats().redeliveries_dropped, 0u);
    EXPECT_EQ(kernel.stats().recoveries, 0u);
  }
  Kernel kernel;
  FaultPlan plan;
  plan.drop_invocation = 0.02;
  plan.drop_reply = 0.02;
  FaultInjector injector(plan);
  kernel.set_fault_injector(&injector);
  ValueList faulty = RunPipeline(kernel, MakeInts(40), SumThenCopy(),
                                 RecoveryOptions(discipline));
  EXPECT_EQ(faulty, clean) << DisciplineName(discipline);
  EXPECT_GT(kernel.stats().messages_dropped, 0u);
  EXPECT_GT(kernel.stats().retries, 0u);
}

// ------------------------------------------------- recovery: filter crashes

TEST_P(FaultRecoveryTest, CrashedFilterReactivatesFromCheckpoint) {
  const Discipline discipline = GetParam();
  ValueList clean;
  {
    Kernel kernel;
    clean = RunPipeline(kernel, MakeInts(60), SumThenCopy(),
                        RecoveryOptions(discipline));
  }
  Kernel kernel;
  FaultInjector injector;
  kernel.set_fault_injector(&injector);
  PipelineHandle handle = BuildPipeline(kernel, MakeInts(60), SumThenCopy(),
                                        RecoveryOptions(discipline));
  // ejects[] is source..sink; the stateful RunningSum filter sits at [1]
  // (conventional interposes a pipe first, putting it at [2]).
  Uid victim = discipline == Discipline::kConventional ? handle.ejects[2]
                                                       : handle.ejects[1];
  injector.ScheduleCrash(kernel, Tick{12'000}, victim);
  ASSERT_TRUE(kernel.RunUntil([&handle] { return handle.done(); }));
  EXPECT_EQ(handle.output(), clean) << DisciplineName(discipline);
  EXPECT_EQ(kernel.stats().crashes, 1u);
  EXPECT_GE(kernel.stats().activations, 1u);
}

TEST_P(FaultRecoveryTest, CrashPlusMessageLossStillConverges) {
  const Discipline discipline = GetParam();
  ValueList clean;
  {
    Kernel kernel;
    clean = RunPipeline(kernel, MakeInts(60), SumThenCopy(),
                        RecoveryOptions(discipline));
  }
  Kernel kernel;
  FaultPlan plan;
  plan.drop_invocation = 0.01;
  plan.drop_reply = 0.01;
  FaultInjector injector(plan);
  kernel.set_fault_injector(&injector);
  PipelineHandle handle = BuildPipeline(kernel, MakeInts(60), SumThenCopy(),
                                        RecoveryOptions(discipline));
  Uid victim = discipline == Discipline::kConventional ? handle.ejects[2]
                                                       : handle.ejects[1];
  injector.ScheduleCrash(kernel, Tick{12'000}, victim);
  ASSERT_TRUE(kernel.RunUntil([&handle] { return handle.done(); }));
  EXPECT_EQ(handle.output(), clean) << DisciplineName(discipline);
  EXPECT_EQ(kernel.stats().crashes, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, FaultRecoveryTest,
                         ::testing::Values(Discipline::kReadOnly,
                                           Discipline::kWriteOnly,
                                           Discipline::kConventional),
                         [](const ::testing::TestParamInfo<Discipline>& info) {
                           switch (info.param) {
                             case Discipline::kReadOnly:
                               return "ReadOnly";
                             case Discipline::kWriteOnly:
                               return "WriteOnly";
                             case Discipline::kConventional:
                               return "Conventional";
                           }
                           return "Unknown";
                         });

// A classic (recovery-disabled) pipeline must never apply the recovery
// deadline knobs. Regression: a hold-back stage parks the downstream
// Transfer for the whole streaming phase; if the disabled-but-populated
// deadline leaked through, the request timed out, the reader re-invoked,
// and the stale parked request silently ate the first item of the end
// burst — one item lost per junction.
TEST(FaultRecoveryTest, DisabledRecoveryNeverTimesOutHoldBackStages) {
  ValueList input = MakeInts(156);
  std::vector<TransformFactory> chain = {
      MakeTransformFactory<LambdaTransform>(
          "hold-all",
          [](const Value&, const Transform::EmitFn&) {},
          [&input](const Transform::EmitFn& emit) {
            for (const Value& v : input) {
              emit(kChanOut, v);
            }
          }),
      MakeTransformFactory<LambdaTransform>(
          "copy", [](const Value& v, const Transform::EmitFn& emit) {
            emit(kChanOut, v);
          })};
  PipelineOptions options;
  options.discipline = Discipline::kConventional;
  // recovery stays disabled; its deadline/retry fields hold defaults that
  // must be inert.
  Kernel kernel;
  ValueList output = RunPipeline(kernel, input, chain, options);
  EXPECT_EQ(output.size(), input.size());
  EXPECT_EQ(kernel.stats().timeouts, 0u);
  EXPECT_EQ(kernel.stats().retries, 0u);
}

// ------------------------------------------------------------- satellites

// Satellite: an acceptor must release withheld Push replies the moment the
// stream ends — the producer is otherwise parked until the acceptor's
// destructor cancels it.
class UndrainedAcceptor : public Eject {
 public:
  explicit UndrainedAcceptor(Kernel& kernel) : Eject(kernel, "Undrained"), acceptor(*this) {
    ChannelOptions options;
    options.hiwat = 2;
    acceptor.DeclareChannel(std::string(kChanIn), options);
    acceptor.InstallOps();
  }

  StreamAcceptor acceptor;
};

TEST(StreamAcceptorTest, WithheldRepliesReleaseWhenStreamEnds) {
  Kernel kernel;
  UndrainedAcceptor& target = kernel.CreateLocal<UndrainedAcceptor>();
  Status first_status;
  bool first_replied = false;
  kernel.ExternalInvoke(target.uid(), std::string(kOpPush),
                        PushArgs{Value(std::string(kChanIn)), MakeInts(5), /*end=*/false},
                        [&](InvokeResult r) {
                          first_replied = true;
                          first_status = std::move(r.status);
                        });
  kernel.Run();
  // Buffer (5) is above capacity (2) and nobody drains: reply withheld.
  ASSERT_FALSE(first_replied);
  kernel.ExternalInvoke(target.uid(), std::string(kOpPush),
                        PushArgs{Value(std::string(kChanIn)), ValueList(), /*end=*/true},
                        [](InvokeResult) {});
  kernel.Run();
  ASSERT_TRUE(first_replied);
  EXPECT_TRUE(first_status.ok()) << first_status.ToString();
}

// Satellite: aborted Transfers must not inflate transfers_served.
class AbortingSource : public Eject {
 public:
  explicit AbortingSource(Kernel& kernel) : Eject(kernel, "Aborting"), server(*this) {
    server.DeclareChannel(std::string(kChanOut));
    server.InstallOps();
  }

  StreamServer server;
};

TEST(StreamServerTest, AbortedTransfersAreCountedSeparately) {
  Kernel kernel;
  AbortingSource& source = kernel.CreateLocal<AbortingSource>();
  int failed = 0;
  for (int i = 0; i < 3; ++i) {
    kernel.ExternalInvoke(source.uid(), std::string(kOpTransfer),
                          TransferArgs{Value(std::string(kChanOut)), 1},
                          [&failed](InvokeResult r) {
                            if (r.status.is(StatusCode::kUnavailable)) {
                              failed++;
                            }
                          });
  }
  kernel.Run();
  source.server.AbortAll(Status(StatusCode::kUnavailable, "upstream died"));
  kernel.Run();
  EXPECT_EQ(failed, 3);
  EXPECT_EQ(source.server.transfers_aborted(), 3u);
  EXPECT_EQ(source.server.transfers_served(), 0u);
  EXPECT_EQ(source.server.items_delivered(), 0u);
}

// Satellite: the sequenced reader deduplicates a redelivered prefix.
TEST(SequencedStreamTest, RedeliveredItemsAreDroppedOnce) {
  Kernel kernel;
  VectorSource::Options source_options;
  source_options.sequenced = true;
  VectorSource& source =
      kernel.CreateLocal<VectorSource>(MakeInts(6), source_options);
  kernel.Run();
  // First fetch: positions 0..2.
  InvokeResult a = kernel.InvokeAndRun(
      source.uid(), std::string(kOpTransfer),
      TransferArgs{Value(std::string(kChanOut)), 3, /*seq=*/0, /*ack=*/0});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.As<BatchReply>()->seq, 0u);
  // Re-request position 0: the server replays, flagging the redelivery.
  InvokeResult b = kernel.InvokeAndRun(
      source.uid(), std::string(kOpTransfer),
      TransferArgs{Value(std::string(kChanOut)), 3, /*seq=*/0, /*ack=*/0});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.As<BatchReply>()->seq, 0u);
  EXPECT_GT(kernel.stats().redeliveries, 0u);
  // Acknowledging position 3 trims the replay window...
  InvokeResult c = kernel.InvokeAndRun(
      source.uid(), std::string(kOpTransfer),
      TransferArgs{Value(std::string(kChanOut)), 3, /*seq=*/3, /*ack=*/3});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(source.server().acked(kChanOut), 3u);
  // ...after which a request below the window is a hard error.
  InvokeResult d = kernel.InvokeAndRun(
      source.uid(), std::string(kOpTransfer),
      TransferArgs{Value(std::string(kChanOut)), 3, /*seq=*/0, /*ack=*/3});
  EXPECT_TRUE(d.status.is(StatusCode::kInternal));
}

// Satellite: a sequenced acceptor refuses gapped pushes and names the
// position it expects, so the sender can rewind.
TEST(SequencedStreamTest, GappedPushIsRefusedWithResumePosition) {
  Kernel kernel;
  PushSink::Options options;
  options.sequenced = true;
  PushSink& sink = kernel.CreateLocal<PushSink>(options);
  InvokeResult ahead = kernel.InvokeAndRun(
      sink.uid(), std::string(kOpPush),
      PushArgs{Value(std::string(kChanIn)), MakeInts(2), false, Band::kData, /*seq=*/5});
  ASSERT_TRUE(ahead.ok());
  EXPECT_EQ(ahead.As<PushAck>()->next, 0u);  // nothing ingested
  InvokeResult ok = kernel.InvokeAndRun(
      sink.uid(), std::string(kOpPush),
      PushArgs{Value(std::string(kChanIn)), MakeInts(2), false, Band::kData, /*seq=*/0});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.As<PushAck>()->next, 2u);
  // A duplicate of position 0..1 plus fresh position 2 ingests only item 2.
  InvokeResult dup = kernel.InvokeAndRun(
      sink.uid(), std::string(kOpPush),
      PushArgs{Value(std::string(kChanIn)), MakeInts(3), false, Band::kData, /*seq=*/0});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.As<PushAck>()->next, 3u);
  EXPECT_EQ(kernel.stats().redeliveries_dropped, 2u);
}

}  // namespace
}  // namespace eden

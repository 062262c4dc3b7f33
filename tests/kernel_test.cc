// Kernel substrate tests: invocation, coroutines, activation, crash,
// checkpoint, determinism.
#include "src/eden/kernel.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/eden/codec.h"
#include "src/eden/eject.h"
#include "src/eden/sync.h"

namespace eden {
namespace {

// An Eject that replies to "Echo" with its argument and to "Add" with the
// sum of two integers.
class EchoEject : public Eject {
 public:
  explicit EchoEject(Kernel& kernel) : Eject(kernel, "Echo") {
    Register("Echo", [](InvocationContext ctx) {
      Value v = ctx.args();
      ctx.Reply(std::move(v));
    });
    Register("Add", [](InvocationContext ctx) {
      auto a = ctx.Arg("a").AsInt();
      auto b = ctx.Arg("b").AsInt();
      if (!a || !b) {
        ctx.ReplyError(StatusCode::kInvalidArgument, "need ints a, b");
        return;
      }
      ctx.Reply(Value(*a + *b));
    });
    Register("Count", [this](InvocationContext ctx) { ctx.Reply(Value(++count_)); });
  }

 private:
  int64_t count_ = 0;
};

// An Eject that forwards an Echo through another Eject (tests coroutine
// invocation chains).
class RelayEject : public Eject {
 public:
  RelayEject(Kernel& kernel, Uid next) : Eject(kernel, "Relay"), next_(next) {
    RegisterTask("Relay", [this](InvocationContext ctx) { return DoRelay(std::move(ctx)); });
  }

 private:
  Task<void> DoRelay(InvocationContext ctx) {
    InvokeResult r = co_await Invoke(next_, "Echo", ctx.args());
    ctx.ReplyStatus(r.status, std::move(r.body));
  }

  Uid next_;
};

// An Eject with a counter that checkpoints; used for activation tests.
class CounterEject : public Eject {
 public:
  static constexpr const char* kType = "Counter";

  explicit CounterEject(Kernel& kernel) : Eject(kernel, kType) {
    Register("Increment", [this](InvocationContext ctx) {
      ++count_;
      ctx.Reply(Value(count_));
    });
    Register("Get", [this](InvocationContext ctx) { ctx.Reply(Value(count_)); });
    Register("Checkpoint", [this](InvocationContext ctx) {
      Checkpoint();
      ctx.Reply();
    });
  }

  Value SaveState() override { return Value().Set("count", Value(count_)); }
  void RestoreState(const Value& state) override {
    count_ = state.Field("count").IntOr(0);
  }

 private:
  int64_t count_ = 0;
};

// A source that parks Read invocations until data is produced: the minimal
// passive-output Eject.
class ParkingSource : public Eject {
 public:
  explicit ParkingSource(Kernel& kernel) : Eject(kernel, "ParkingSource") {
    Register("Read", [this](InvocationContext ctx) {
      if (!items_.empty()) {
        Value v = std::move(items_.front());
        items_.erase(items_.begin());
        ctx.Reply(std::move(v));
        return;
      }
      parked_.push_back(ctx.TakeReply());
    });
  }

  void Produce(Value v) {
    if (!parked_.empty()) {
      ReplyHandle h = std::move(parked_.front());
      parked_.erase(parked_.begin());
      h.Reply(std::move(v));
      return;
    }
    items_.push_back(std::move(v));
  }

  size_t parked_count() const { return parked_.size(); }

 private:
  std::vector<Value> items_;
  std::vector<ReplyHandle> parked_;
};

TEST(KernelTest, EchoRoundTrip) {
  Kernel kernel;
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  InvokeResult r = kernel.InvokeAndRun(echo.uid(), "Echo", Value("hello"));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_EQ(r.value(), Value("hello"));
}

TEST(KernelTest, AddOperation) {
  Kernel kernel;
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  Value args = Value().Set("a", Value(2)).Set("b", Value(40));
  InvokeResult r = kernel.InvokeAndRun(echo.uid(), "Add", args);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Value(42));
}

TEST(KernelTest, UnknownOperationIsReported) {
  Kernel kernel;
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  InvokeResult r = kernel.InvokeAndRun(echo.uid(), "Bogus", Value());
  EXPECT_TRUE(r.status.is(StatusCode::kNoSuchOperation));
}

TEST(KernelTest, UnknownTargetIsReported) {
  Kernel kernel;
  InvokeResult r = kernel.InvokeAndRun(Uid(1, 2), "Echo", Value());
  EXPECT_TRUE(r.status.is(StatusCode::kNoSuchEject));
}

TEST(KernelTest, InvalidArgumentReported) {
  Kernel kernel;
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  InvokeResult r = kernel.InvokeAndRun(echo.uid(), "Add", Value("nope"));
  EXPECT_TRUE(r.status.is(StatusCode::kInvalidArgument));
}

TEST(KernelTest, RelayChainsInvocationsThroughCoroutine) {
  Kernel kernel;
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  RelayEject& relay = kernel.CreateLocal<RelayEject>(echo.uid());
  InvokeResult r = kernel.InvokeAndRun(relay.uid(), "Relay", Value("via"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Value("via"));
}

TEST(KernelTest, StatsCountMessages) {
  Kernel kernel;
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  Stats before = kernel.stats();
  (void)kernel.InvokeAndRun(echo.uid(), "Echo", Value("x"));
  Stats d = kernel.stats() - before;
  EXPECT_EQ(d.invocations_sent, 1u);
  EXPECT_EQ(d.replies_sent, 1u);
  EXPECT_GT(d.invocation_bytes, 0u);
}

TEST(KernelTest, VirtualTimeAdvancesByCostModel) {
  KernelOptions options;
  options.costs.invocation_send = 100;
  options.costs.dispatch = 20;
  options.costs.per_byte_num = 0;
  Kernel kernel(options);
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  EXPECT_EQ(kernel.now(), 0);
  (void)kernel.InvokeAndRun(echo.uid(), "Echo", Value("x"));
  // one invocation (send 100 + dispatch 20) + one reply (send 100): >= 220.
  EXPECT_GE(kernel.now(), 220);
}

TEST(KernelTest, CrossNodeMessagesCostMore) {
  KernelOptions options;
  options.costs.cross_node_latency = 1000;
  Kernel local_kernel(options);
  EchoEject& local_echo = local_kernel.CreateLocal<EchoEject>();
  (void)local_kernel.InvokeAndRun(local_echo.uid(), "Echo", Value("x"));
  Tick local_time = local_kernel.now();

  Kernel remote_kernel(options);
  NodeId far = remote_kernel.AddNode("far");
  EchoEject& remote_echo = remote_kernel.Create<EchoEject>(far);
  RelayEject& relay = remote_kernel.CreateLocal<RelayEject>(remote_echo.uid());
  (void)remote_kernel.InvokeAndRun(relay.uid(), "Relay", Value("x"));
  EXPECT_EQ(remote_kernel.stats().cross_node_messages, 1u);
  EXPECT_GT(remote_kernel.now(), local_time);
}

TEST(KernelTest, ParkedReadsAreServedInOrder) {
  Kernel kernel;
  ParkingSource& source = kernel.CreateLocal<ParkingSource>();

  std::vector<int64_t> got;
  for (int i = 0; i < 3; ++i) {
    kernel.ExternalInvoke(source.uid(), "Read", Value(), [&got](InvokeResult r) {
      ASSERT_TRUE(r.ok());
      got.push_back(r.value().IntOr(-1));
    });
  }
  kernel.Run();
  EXPECT_EQ(source.parked_count(), 3u);  // the partial vacuum of §4
  EXPECT_TRUE(got.empty());

  source.Produce(Value(10));
  source.Produce(Value(11));
  source.Produce(Value(12));
  kernel.Run();
  EXPECT_EQ(got, (std::vector<int64_t>{10, 11, 12}));
}

TEST(KernelTest, DroppedReplyHandleAnswersCancelled) {
  class Dropper : public Eject {
   public:
    explicit Dropper(Kernel& kernel) : Eject(kernel, "Dropper") {
      Register("Drop", [](InvocationContext ctx) {
        ReplyHandle h = ctx.TakeReply();
        (void)h;  // destroyed without replying
      });
    }
  };
  Kernel kernel;
  Dropper& dropper = kernel.CreateLocal<Dropper>();
  InvokeResult r = kernel.InvokeAndRun(dropper.uid(), "Drop", Value());
  EXPECT_TRUE(r.status.is(StatusCode::kCancelled));
}

TEST(KernelTest, CheckpointAndCrashReactivates) {
  Kernel kernel;
  kernel.types().Register(CounterEject::kType,
                          [](Kernel& k) { return std::make_unique<CounterEject>(k); });
  CounterEject& counter = kernel.CreateLocal<CounterEject>();
  Uid uid = counter.uid();

  (void)kernel.InvokeAndRun(uid, "Increment");
  (void)kernel.InvokeAndRun(uid, "Increment");
  (void)kernel.InvokeAndRun(uid, "Checkpoint");
  (void)kernel.InvokeAndRun(uid, "Increment");  // not checkpointed

  kernel.Crash(uid);
  EXPECT_FALSE(kernel.IsActive(uid));

  // Next invocation reactivates from the passive representation: count == 2.
  InvokeResult r = kernel.InvokeAndRun(uid, "Get");
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_EQ(r.value(), Value(2));
  EXPECT_TRUE(kernel.IsActive(uid));
  EXPECT_EQ(kernel.stats().activations, 1u);
}

TEST(KernelTest, CrashWithoutCheckpointDisappears) {
  Kernel kernel;
  kernel.types().Register(CounterEject::kType,
                          [](Kernel& k) { return std::make_unique<CounterEject>(k); });
  CounterEject& counter = kernel.CreateLocal<CounterEject>();
  Uid uid = counter.uid();
  kernel.Crash(uid);
  InvokeResult r = kernel.InvokeAndRun(uid, "Get");
  EXPECT_TRUE(r.status.is(StatusCode::kNoSuchEject));
}

TEST(KernelTest, DeactivateWithParkedRequestFailsCaller) {
  Kernel kernel;
  ParkingSource& source = kernel.CreateLocal<ParkingSource>();
  Uid uid = source.uid();
  InvokeResult got;
  bool done = false;
  kernel.ExternalInvoke(uid, "Read", Value(), [&](InvokeResult r) {
    got = std::move(r);
    done = true;
  });
  kernel.Run();
  ASSERT_FALSE(done);  // parked
  kernel.Deactivate(uid);
  kernel.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.status.is(StatusCode::kUnavailable));
}

TEST(KernelTest, CrashDestroysInternalProcesses) {
  class Looper : public Eject {
   public:
    explicit Looper(Kernel& kernel) : Eject(kernel, "Looper"), wake_(*this) {}
    void OnStart() override {
      Spawn(Loop());
    }
    Task<void> Loop() {
      for (;;) {
        co_await wake_.Wait();
      }
    }
    CondVar wake_;
  };
  Kernel kernel;
  Looper& looper = kernel.CreateLocal<Looper>();
  Uid uid = looper.uid();
  kernel.Run();
  EXPECT_EQ(looper.live_process_count(), 1u);
  kernel.Crash(uid);
  kernel.Run();  // no dangling resumptions may fire
  EXPECT_FALSE(kernel.IsActive(uid));
}

TEST(KernelTest, DeterministicRuns) {
  auto run_once = []() {
    Kernel kernel;
    EchoEject& echo = kernel.CreateLocal<EchoEject>();
    RelayEject& relay = kernel.CreateLocal<RelayEject>(echo.uid());
    for (int i = 0; i < 10; ++i) {
      (void)kernel.InvokeAndRun(relay.uid(), "Relay", Value(int64_t{i}));
    }
    return std::pair<Tick, uint64_t>(kernel.now(), kernel.stats().events_processed);
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(KernelTest, RunForStopsAtDeadline) {
  Kernel kernel;
  EchoEject& echo = kernel.CreateLocal<EchoEject>();
  kernel.ExternalInvoke(echo.uid(), "Echo", Value("x"), [](InvokeResult) {});
  kernel.RunFor(1);  // far less than the invocation cost
  EXPECT_EQ(kernel.now(), 1);
  EXPECT_FALSE(kernel.quiescent());
  kernel.Run();
  EXPECT_TRUE(kernel.quiescent());
}

TEST(KernelTest, SequentialCountsAreIsolatedPerEject) {
  Kernel kernel;
  EchoEject& a = kernel.CreateLocal<EchoEject>();
  EchoEject& b = kernel.CreateLocal<EchoEject>();
  (void)kernel.InvokeAndRun(a.uid(), "Count");
  (void)kernel.InvokeAndRun(a.uid(), "Count");
  InvokeResult ra = kernel.InvokeAndRun(a.uid(), "Count");
  InvokeResult rb = kernel.InvokeAndRun(b.uid(), "Count");
  EXPECT_EQ(ra.value(), Value(3));
  EXPECT_EQ(rb.value(), Value(1));
}

TEST(KernelTest, CrashNodeKillsOnlyThatNode) {
  Kernel kernel;
  NodeId n1 = kernel.AddNode("n1");
  EchoEject& on0 = kernel.CreateLocal<EchoEject>();
  // CrashNode destroys the Eject object itself; keep only the uid.
  Uid on1 = kernel.Create<EchoEject>(n1).uid();
  kernel.CrashNode(n1);
  EXPECT_TRUE(kernel.IsActive(on0.uid()));
  EXPECT_FALSE(kernel.IsActive(on1));
}

TEST(SyncTest, BoundedQueueBlocksAtCapacity) {
  class Producer : public Eject {
   public:
    explicit Producer(Kernel& kernel) : Eject(kernel, "Producer"), queue_(*this, 2) {}
    void OnStart() override {
      Spawn(Produce());
    }
    Task<void> Produce() {
      for (int i = 0; i < 5; ++i) {
        co_await queue_.Push(i);
        pushed_++;
      }
      queue_.Close();
    }
    Task<void> Consume(std::vector<int>* out) {
      for (;;) {
        std::optional<int> v = co_await queue_.Pop();
        if (!v) {
          break;
        }
        out->push_back(*v);
      }
    }
    BoundedQueue<int> queue_;
    int pushed_ = 0;
  };

  Kernel kernel;
  Producer& producer = kernel.CreateLocal<Producer>();
  kernel.Run();
  // Producer fills capacity (2) then blocks; no consumer yet.
  EXPECT_EQ(producer.pushed_, 2);

  std::vector<int> got;
  producer.Spawn(producer.Consume(&got));
  kernel.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(producer.pushed_, 5);
}

TEST(SyncTest, GateReleasesAllWaiters) {
  class Gated : public Eject {
   public:
    explicit Gated(Kernel& kernel) : Eject(kernel, "Gated"), gate_(*this) {}
    Task<void> WaitThenCount() {
      co_await gate_.Wait();
      ++released_;
    }
    Gate gate_;
    int released_ = 0;
  };
  Kernel kernel;
  Gated& gated = kernel.CreateLocal<Gated>();
  for (int i = 0; i < 3; ++i) {
    gated.Spawn(gated.WaitThenCount());
  }
  kernel.Run();
  EXPECT_EQ(gated.released_, 0);
  gated.gate_.Open();
  kernel.Run();
  EXPECT_EQ(gated.released_, 3);
}

}  // namespace
}  // namespace eden

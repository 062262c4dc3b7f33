// Fine-grained kernel-substrate unit tests: event queue ordering, cost
// model arithmetic, stats diffing, bounded queues, stable store, and the
// Eject lifecycle corners not covered by kernel_test.cc.
#include <gtest/gtest.h>

#include "src/eden/codec.h"
#include "src/eden/cost_model.h"
#include "src/eden/eject.h"
#include "src/eden/event_queue.h"
#include "src/eden/inspect.h"
#include "src/eden/kernel.h"
#include "src/eden/stable_store.h"
#include "src/eden/sync.h"

namespace eden {
namespace {

TEST(EventQueueTest, PopsInTimeThenInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(10, [&] { order.push_back(1); });
  queue.Schedule(5, [&] { order.push_back(2); });
  queue.Schedule(10, [&] { order.push_back(3); });  // same time as #1: FIFO
  queue.Schedule(1, [&] { order.push_back(4); });
  while (!queue.empty()) {
    auto popped = queue.Pop();
    popped.action();
  }
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3}));
}

// The sharded kernel's determinism rests on this ordering being a pure
// function of (time, origin node, per-origin sequence) — independent of the
// order events were pushed into the queue, which is the one thing that
// differs between a 1-shard and an N-shard run.
TEST(EventQueueTest, TieBreakIsShardStable) {
  std::vector<int> a_order;
  {
    EventQueue queue;  // insertion order: node2 first
    queue.Schedule(EventKey{10, 2, 0}, 2, [&] { a_order.push_back(2); });
    queue.Schedule(EventKey{10, 1, 5}, 1, [&] { a_order.push_back(1); });
    queue.Schedule(EventKey{10, 1, 4}, 1, [&] { a_order.push_back(0); });
    queue.Schedule(EventKey{10, kNoNode, 9}, kNoNode, [&] { a_order.push_back(-1); });
    while (!queue.empty()) queue.Pop().action();
  }
  std::vector<int> b_order;
  {
    EventQueue queue;  // reversed insertion order: same pops regardless
    queue.Schedule(EventKey{10, kNoNode, 9}, kNoNode, [&] { b_order.push_back(-1); });
    queue.Schedule(EventKey{10, 1, 4}, 1, [&] { b_order.push_back(0); });
    queue.Schedule(EventKey{10, 1, 5}, 1, [&] { b_order.push_back(1); });
    queue.Schedule(EventKey{10, 2, 0}, 2, [&] { b_order.push_back(2); });
    while (!queue.empty()) queue.Pop().action();
  }
  // Driver origin (kNoNode) sorts first, then by (origin, seq).
  EXPECT_EQ(a_order, (std::vector<int>{-1, 0, 1, 2}));
  EXPECT_EQ(b_order, a_order);
}

TEST(EventQueueTest, NextTimeTracksEarliest) {
  EventQueue queue;
  queue.Schedule(100, [] {});
  queue.Schedule(7, [] {});
  EXPECT_EQ(queue.next_time(), 7);
  (void)queue.Pop();
  EXPECT_EQ(queue.next_time(), 100);
}

TEST(CostModelTest, MessageCostComponents) {
  CostModel costs;
  costs.invocation_send = 100;
  costs.cross_node_latency = 400;
  costs.per_byte_num = 1;
  costs.per_byte_den = 16;
  // Same node: send + bytes/16.
  EXPECT_EQ(costs.MessageCost(160, 0, 0), 100 + 10);
  // Cross node: plus the hop.
  EXPECT_EQ(costs.MessageCost(160, 0, 1), 100 + 10 + 400);
  // External endpoints (kNoNode) never pay the hop.
  EXPECT_EQ(costs.MessageCost(0, kNoNode, 1), 100);
  EXPECT_EQ(costs.MessageCost(0, 2, kNoNode), 100);
}

TEST(StatsTest, DiffIsComponentwise) {
  Stats a;
  a.invocations_sent = 10;
  a.replies_sent = 9;
  a.context_switches = 100;
  Stats b;
  b.invocations_sent = 4;
  b.replies_sent = 4;
  b.context_switches = 40;
  Stats d = a - b;
  EXPECT_EQ(d.invocations_sent, 6u);
  EXPECT_EQ(d.replies_sent, 5u);
  EXPECT_EQ(d.context_switches, 60u);
  EXPECT_EQ(d.total_messages(), 11u);
}

TEST(StatsTest, ToStringMentionsKeyCounters) {
  Stats stats;
  stats.invocations_sent = 42;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("invocations=42"), std::string::npos);
}

TEST(StableStoreTest, PutGetEraseAndVersions) {
  StableStore store;
  Uid uid(1, 2);
  EXPECT_FALSE(store.Contains(uid));
  store.Put(uid, "T", 0, Bytes{1, 2, 3});
  ASSERT_TRUE(store.Contains(uid));
  EXPECT_EQ(store.Get(uid)->version, 1u);
  EXPECT_EQ(store.total_bytes(), 3u);
  store.Put(uid, "T", 0, Bytes{1, 2, 3, 4, 5});
  EXPECT_EQ(store.Get(uid)->version, 2u);
  EXPECT_EQ(store.total_bytes(), 5u);
  EXPECT_TRUE(store.Erase(uid));
  EXPECT_FALSE(store.Erase(uid));
  EXPECT_EQ(store.total_bytes(), 0u);
}

TEST(StableStoreTest, AllUidsIsSorted) {
  StableStore store;
  store.Put(Uid(2, 0), "T", 0, {});
  store.Put(Uid(1, 0), "T", 0, {});
  store.Put(Uid(3, 0), "T", 0, {});
  std::vector<Uid> uids = store.AllUids();
  ASSERT_EQ(uids.size(), 3u);
  EXPECT_TRUE(uids[0] < uids[1] && uids[1] < uids[2]);
}

// ------------------------------------------------------------ Eject corners

class SelfDeactivator : public Eject {
 public:
  explicit SelfDeactivator(Kernel& kernel) : Eject(kernel, "SelfDeactivator") {
    Register("Vanish", [this](InvocationContext ctx) {
      ctx.Reply();
      RequestDeactivate();  // deferred: safe from inside the handler
    });
  }
};

TEST(EjectTest, SelfDeactivationFromHandlerIsSafe) {
  Kernel kernel;
  SelfDeactivator& eject = kernel.CreateLocal<SelfDeactivator>();
  Uid uid = eject.uid();
  InvokeResult r = kernel.InvokeAndRun(uid, "Vanish");
  EXPECT_TRUE(r.ok());
  kernel.Run();
  EXPECT_FALSE(kernel.IsActive(uid));
}

class IdentityKeeper : public Eject {
 public:
  static constexpr const char* kType = "IdentityKeeper";
  explicit IdentityKeeper(Kernel& kernel) : Eject(kernel, kType) {
    Register("WhoAmI", [this](InvocationContext ctx) {
      ctx.Reply(Value(uid()));
    });
    Register("Checkpoint", [this](InvocationContext ctx) {
      Checkpoint();
      ctx.Reply();
    });
  }
};

TEST(EjectTest, ReactivationPreservesIdentity) {
  // "The reactivated instance IS the old Eject": same UID before and after.
  Kernel kernel;
  kernel.types().Register(IdentityKeeper::kType, [](Kernel& k) {
    return std::make_unique<IdentityKeeper>(k);
  });
  IdentityKeeper& eject = kernel.CreateLocal<IdentityKeeper>();
  Uid uid = eject.uid();
  (void)kernel.InvokeAndRun(uid, "Checkpoint");
  kernel.Crash(uid);
  InvokeResult r = kernel.InvokeAndRun(uid, "WhoAmI");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().UidOr(Uid()), uid);
}

TEST(EjectTest, OperationsListsRegisteredOps) {
  Kernel kernel;
  IdentityKeeper& eject = kernel.CreateLocal<IdentityKeeper>();
  std::vector<std::string> ops = eject.Operations();
  EXPECT_EQ(ops, (std::vector<std::string>{"Checkpoint", "WhoAmI"}));
  EXPECT_TRUE(eject.Responds("WhoAmI"));
  EXPECT_FALSE(eject.Responds("Nope"));
}

TEST(EjectTest, ActivationChargesVirtualTime) {
  KernelOptions options;
  options.costs.activation = 5000;
  Kernel kernel(options);
  kernel.types().Register(IdentityKeeper::kType, [](Kernel& k) {
    return std::make_unique<IdentityKeeper>(k);
  });
  IdentityKeeper& eject = kernel.CreateLocal<IdentityKeeper>();
  Uid uid = eject.uid();
  (void)kernel.InvokeAndRun(uid, "Checkpoint");
  Tick warm_start = kernel.now();
  (void)kernel.InvokeAndRun(uid, "WhoAmI");
  Tick warm_cost = kernel.now() - warm_start;

  kernel.Crash(uid);
  Tick cold_start = kernel.now();
  (void)kernel.InvokeAndRun(uid, "WhoAmI");
  Tick cold_cost = kernel.now() - cold_start;
  EXPECT_GE(cold_cost, warm_cost + 5000);
}

TEST(EjectTest, TwoKernelsAreIndependent) {
  Kernel a;
  Kernel b;
  // Crash destroys the Eject object, so keep uids, not references.
  Uid in_a = a.CreateLocal<IdentityKeeper>().uid();
  // Same seed: both kernels generate the same first UID...
  IdentityKeeper& in_b = b.CreateLocal<IdentityKeeper>();
  EXPECT_EQ(in_a, in_b.uid());
  // ...but the registries are disjoint state: crash in one, fine in other.
  a.Crash(in_a);
  EXPECT_FALSE(a.IsActive(in_a));
  EXPECT_TRUE(b.IsActive(in_b.uid()));
  // Distinct seeds diverge.
  KernelOptions options;
  options.uid_seed = 999;
  Kernel c(options);
  IdentityKeeper& in_c = c.CreateLocal<IdentityKeeper>();
  EXPECT_NE(in_c.uid(), in_b.uid());
}


TEST(InspectTest, DumpsEjectsStoreAndStats) {
  Kernel kernel;
  kernel.types().Register(IdentityKeeper::kType, [](Kernel& k) {
    return std::make_unique<IdentityKeeper>(k);
  });
  IdentityKeeper& eject = kernel.CreateLocal<IdentityKeeper>();
  (void)kernel.InvokeAndRun(eject.uid(), "Checkpoint");

  std::string ejects = DumpEjects(kernel);
  EXPECT_NE(ejects.find("IdentityKeeper"), std::string::npos);
  EXPECT_NE(ejects.find("WhoAmI"), std::string::npos);
  EXPECT_NE(ejects.find(eject.uid().Short()), std::string::npos);

  std::string store = DumpStore(kernel, kernel.store());
  EXPECT_NE(store.find("IdentityKeeper"), std::string::npos);

  std::string stats = DumpStats(kernel);
  EXPECT_NE(stats.find("invocations="), std::string::npos);
  EXPECT_NE(stats.find("t="), std::string::npos);
}

// -------------------------------------------------------------- BoundedQueue

class QueueHost : public Eject {
 public:
  explicit QueueHost(Kernel& kernel) : Eject(kernel, "QueueHost"), queue(*this, 3) {}
  BoundedQueue<int> queue;
};

TEST(BoundedQueueTest, TryOpsRespectCapacityAndClose) {
  Kernel kernel;
  QueueHost& host = kernel.CreateLocal<QueueHost>();
  EXPECT_TRUE(host.queue.TryPush(1));
  EXPECT_TRUE(host.queue.TryPush(2));
  EXPECT_TRUE(host.queue.TryPush(3));
  EXPECT_FALSE(host.queue.TryPush(4));  // full
  EXPECT_EQ(host.queue.TryPop(), 1);
  EXPECT_TRUE(host.queue.TryPush(4));
  host.queue.Close();
  EXPECT_FALSE(host.queue.TryPush(5));
  EXPECT_EQ(host.queue.TryPop(), 2);  // drain continues after close
  EXPECT_EQ(host.queue.size(), 2u);
}

TEST(BoundedQueueTest, CloseWakesBlockedPopper) {
  class Popper : public Eject {
   public:
    explicit Popper(Kernel& kernel) : Eject(kernel, "Popper"), queue(*this, 2) {}
    void OnStart() override {
      Spawn(Go());
    }
    Task<void> Go() {
      result = co_await queue.Pop();
      finished = true;
    }
    BoundedQueue<int> queue;
    std::optional<int> result = 42;  // sentinel
    bool finished = false;
  };
  Kernel kernel;
  Popper& popper = kernel.CreateLocal<Popper>();
  kernel.Run();
  EXPECT_FALSE(popper.finished);  // blocked on empty queue
  popper.queue.Close();
  kernel.Run();
  EXPECT_TRUE(popper.finished);
  EXPECT_EQ(popper.result, std::nullopt);
}


TEST(KernelRunTest, RunHonorsMaxEvents) {
  Kernel kernel;
  // An endless ping-pong of self-scheduled actions.
  std::function<void()> tick = [&] { kernel.ScheduleAction(10, tick); };
  kernel.ScheduleAction(0, tick);
  EXPECT_FALSE(kernel.Run(/*max_events=*/100));
  EXPECT_FALSE(kernel.quiescent());
}

TEST(KernelRunTest, RunUntilReturnsFalseWhenConditionUnreachable) {
  Kernel kernel;
  EXPECT_FALSE(kernel.RunUntil([] { return false; }, 10));
}

TEST(KernelRunTest, InvokeAndRunTimesOutCleanly) {
  // A handler that parks forever on an Eject nobody ever feeds: the helper
  // returns kTimeout instead of spinning.
  class BlackHole : public Eject {
   public:
    explicit BlackHole(Kernel& kernel) : Eject(kernel, "BlackHole") {
      Register("Swallow", [this](InvocationContext ctx) {
        parked_.push_back(ctx.TakeReply());
      });
    }
    std::vector<ReplyHandle> parked_;
  };
  Kernel kernel;
  BlackHole& hole = kernel.CreateLocal<BlackHole>();
  InvokeResult r = kernel.InvokeAndRun(hole.uid(), "Swallow");
  EXPECT_TRUE(r.status.is(StatusCode::kTimeout));
}

// ------------------------------------------------------------ Value corners

TEST(ValueTest, SetOnNonMapIsIgnoredGracefully) {
  Value v(42);
  v.Set("k", Value(1));  // not a map: no-op by design
  EXPECT_TRUE(v.is_int());
}

TEST(ValueTest, SizeOfScalarsIsZero) {
  EXPECT_EQ(Value(3).Size(), 0u);
  EXPECT_EQ(Value().Size(), 0u);
  EXPECT_EQ(Value("abc").Size(), 3u);
}

// ----------------------------------------------------------- Stats X-macro

// Regression guard for the EDEN_STATS_FIELDS list: every field must survive
// operator- and appear (by label) in both ToString and ToValue. Adding a
// counter to the struct without adding it to the macro is impossible; this
// test makes the reverse drift (a macro entry missing from a dump) fail too.
TEST(StatsTest, EveryFieldDiffsAndIsDumped) {
  Stats a;
  Stats b;
  uint64_t seed = 100;
#define EDEN_STATS_FILL(field, label) \
  a.field = 2 * seed;                 \
  b.field = seed;                     \
  seed += 7;
  EDEN_STATS_FIELDS(EDEN_STATS_FILL)
#undef EDEN_STATS_FILL

  Stats d = a - b;
  std::string text = d.ToString();
  Value map = d.ToValue();
  seed = 100;
#define EDEN_STATS_CHECK(field, label)                                   \
  EXPECT_EQ(d.field, seed) << #field;                                    \
  EXPECT_NE(text.find(std::string(label) + "=" + std::to_string(seed)),  \
            std::string::npos)                                           \
      << label;                                                          \
  EXPECT_EQ(map.Field(label).IntOr(-1), static_cast<int64_t>(seed))      \
      << label;                                                          \
  seed += 7;
  EDEN_STATS_FIELDS(EDEN_STATS_CHECK)
#undef EDEN_STATS_CHECK

  EXPECT_EQ(d.total_messages(), d.invocations_sent + d.replies_sent);
  EXPECT_EQ(map.Field("total_messages").IntOr(-1),
            static_cast<int64_t>(d.total_messages()));
  EXPECT_EQ(map.Field("total_bytes").IntOr(-1),
            static_cast<int64_t>(d.total_bytes()));
}

}  // namespace
}  // namespace eden

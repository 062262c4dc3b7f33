// Ring, the FIFO behind every per-Eject queue, and what those queues cost.
// The counting global operator new (counting_new.h) checks that empty queues
// allocate nothing and bounds the allocations a read-only chain makes per
// Eject.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/eden/kernel.h"
#include "src/eden/ring.h"
#include "src/eden/sync.h"
#include "src/filters/registry.h"
#include "tests/counting_new.h"

namespace eden {
namespace {

static_assert(std::random_access_iterator<Ring<Value>::iterator>);
static_assert(std::random_access_iterator<Ring<Value>::const_iterator>);

std::vector<int> Contents(const Ring<int>& ring) { return {ring.begin(), ring.end()}; }

// Leaves `ring` holding `n` items whose front sits `offset` slots into the
// buffer, by pushing and popping `offset` items first.
void FillWrapped(Ring<int>& ring, int offset, int n) {
  for (int i = 0; i < offset; ++i) {
    ring.push_back(-1);
    ring.pop_front();
  }
  for (int i = 0; i < n; ++i) {
    ring.push_back(i);
  }
}

TEST(RingTest, KeepsFifoOrderAcrossWrapAndGrowthWhileWrapped) {
  Ring<int> ring;
  FillWrapped(ring, 3, 4);  // capacity 4, front in the last slot
  EXPECT_EQ(Contents(ring), (std::vector<int>{0, 1, 2, 3}));
  ring.push_back(4);  // grows while wrapped
  ring.push_back(5);
  EXPECT_EQ(Contents(ring), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ring[static_cast<size_t>(i)], i);
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingTest, MatchesDequeUnderRandomOperations) {
  std::mt19937 rng(7);
  Ring<int> ring;
  std::deque<int> model;
  for (int step = 0; step < 20000; ++step) {
    int op = static_cast<int>(rng() % 8);
    if (op < 3) {
      ring.push_back(step);
      model.push_back(step);
    } else if (op == 3) {
      ring.push_front(int{step});
      model.push_front(step);
    } else if (op < 7 && !model.empty()) {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    } else if (op == 7 && step % 64 == 0) {
      ring.clear();
      model.clear();
    }
    ASSERT_EQ(ring.size(), model.size());
  }
  EXPECT_EQ(Contents(ring), std::vector<int>(model.begin(), model.end()));
}

TEST(RingTest, PushFrontAfterWrapIsThePutBackPath) {
  Ring<int> ring;
  FillWrapped(ring, 2, 3);  // slots 2, 3, 0
  ring.push_front(-1);      // the last free slot
  EXPECT_EQ(Contents(ring), (std::vector<int>{-1, 0, 1, 2}));
  ring.push_front(-2);      // grows
  EXPECT_EQ(Contents(ring), (std::vector<int>{-2, -1, 0, 1, 2}));

  Ring<int> fresh;
  fresh.push_front(9);  // the first push allocates too
  fresh.push_back(10);
  EXPECT_EQ(Contents(fresh), (std::vector<int>{9, 10}));
}

TEST(RingTest, HoldsMoveOnlyElements) {
  Kernel kernel;  // the handles answer ids no invocation owns: a no-op
  Ring<ReplyHandle> handles;
  Ring<std::pair<Value, ReplyHandle>> senders;
  for (InvocationId id = 1; id <= 6; ++id) {
    handles.push_back(ReplyHandle(&kernel, id));
    senders.emplace_back(Value(static_cast<int64_t>(id)), ReplyHandle(&kernel, id));
    if (id == 2) {
      handles.pop_front();
      senders.pop_front();
    }
  }
  for (InvocationId id = 2; id <= 6; ++id) {
    ReplyHandle handle = std::move(handles.front());
    handles.pop_front();
    EXPECT_EQ(handle.id(), id);
    EXPECT_TRUE(handle.valid());
    auto [item, sender] = std::move(senders.front());
    senders.pop_front();
    EXPECT_EQ(item.IntOr(0), static_cast<int64_t>(id));
    EXPECT_EQ(sender.id(), id);
  }

  Ring<std::coroutine_handle<>> waiters;
  std::coroutine_handle<> noop = std::noop_coroutine();
  for (int i = 0; i < 5; ++i) {
    waiters.push_back(noop);
  }
  EXPECT_EQ(waiters.size(), 5u);
  EXPECT_EQ(waiters.front().address(), noop.address());
}

TEST(RingTest, AssignAndSlicesKeepOrder) {
  ValueList list;
  for (int64_t i = 0; i < 6; ++i) {
    list.push_back(Value(i));
  }
  Ring<Value> ring;
  ring.push_back(Value("stale"));
  ring.assign(list.begin(), list.end());
  EXPECT_EQ(ValueList(ring.begin(), ring.end()), list);
  for (int i = 0; i < 4; ++i) {
    ring.pop_front();
  }
  for (int64_t i = 6; i < 10; ++i) {
    ring.push_back(Value(i));  // capacity 8: the last two wrap
  }
  ValueList slice(ring.begin() + 3, ring.end());
  EXPECT_EQ(slice, (ValueList{Value(int64_t{7}), Value(int64_t{8}), Value(int64_t{9})}));
  const Ring<Value>& view = ring;
  EXPECT_EQ(view.end() - view.begin(), 6);
  EXPECT_EQ(view.begin()[1], Value(int64_t{5}));
}

TEST(RingTest, AllocatesOnFirstPushAndDoublesAfter) {
  size_t before = Allocations();
  {
    Ring<Value> ring;
    EXPECT_EQ(Allocations(), before);
  }
  Ring<int> ring;
  for (int i = 0; i < 16; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(Allocations(), before + 3);  // capacities 4, 8, 16

  Ring<int> moved(std::move(ring));
  Ring<int> assigned;
  assigned = std::move(moved);
  EXPECT_EQ(Allocations(), before + 3);
  EXPECT_EQ(assigned.size(), 16u);
  EXPECT_TRUE(ring.empty());
  // A moved-from ring holds no buffer: its next push allocates one.
  ring.push_back(1);
  EXPECT_EQ(Allocations(), before + 4);
  moved.push_back(1);
  EXPECT_EQ(Allocations(), before + 5);
}

// An element that logs its id when destroyed (a moved-from one logs nothing).
struct Logged {
  Logged(int id, std::vector<int>* log) : id(id), log(log) {}
  Logged(Logged&& other) noexcept : id(std::exchange(other.id, -1)), log(other.log) {}
  Logged& operator=(Logged&&) = delete;
  ~Logged() {
    if (id >= 0) {
      log->push_back(id);
    }
  }
  int id;
  std::vector<int>* log;
};

TEST(RingTest, ClearAndDestructorDestroyFrontToBack) {
  std::vector<int> log;
  {
    Ring<Logged> ring;
    for (int i = 0; i < 3; ++i) {
      ring.emplace_back(i, &log);
    }
    ring.pop_front();  // 0
    ring.pop_front();  // 1
    for (int i = 3; i < 7; ++i) {
      ring.emplace_back(i, &log);  // wraps, then grows
    }
    ring.push_front(Logged(10, &log));
    ring.clear();  // 10 2 3 4 5 6
    for (int i = 20; i < 25; ++i) {
      ring.emplace_back(i, &log);
    }
    ring.pop_front();  // 20
  }  // 21 22 23 24
  EXPECT_EQ(log, (std::vector<int>{0, 1, 10, 2, 3, 4, 5, 6, 20, 21, 22, 23, 24}));
}

// ------------------------------------------------------------- footprint

class Host : public Eject {
 public:
  explicit Host(Kernel& kernel) : Eject(kernel, "Host") {}
};

TEST(FootprintTest, EmptySyncPrimitivesAllocateNothing) {
  Kernel kernel;
  Host& host = kernel.CreateLocal<Host>();
  size_t before = Allocations();
  CondVar cv(host);
  CondVar driver_cv(kernel);
  BoundedQueue<Value> queue(host, 4);
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(cv.waiter_count() + driver_cv.waiter_count() + queue.size(), 0u);
}

// wide_sharded's shape at 1/128 of its size: read-only chains of four copy
// filters, every Eject on its own node, partitioned over four shards.
TEST(FootprintTest, ReadOnlyChainsAllocateAtMost16TimesPerEject) {
  constexpr int kChains = 64;
  constexpr int kShards = 4;
  KernelOptions kernel_options;
  kernel_options.shards = kShards;
  Kernel kernel(kernel_options);
  std::vector<TransformFactory> chain;
  for (int i = 0; i < 4; ++i) {
    std::optional<TransformFactory> copy = MakeTransformByName("copy", {});
    ASSERT_TRUE(copy.has_value());
    chain.push_back(*copy);
  }
  PipelineOptions options;
  options.distinct_nodes = true;
  std::vector<ValueList> inputs(kChains, ValueList{Value("a"), Value("b")});
  std::vector<PipelineHandle> handles;
  handles.reserve(kChains);

  size_t before = Allocations();
  for (int p = 0; p < kChains; ++p) {
    options.partition_shard = p % kShards;
    handles.push_back(BuildPipeline(kernel, std::move(inputs[static_cast<size_t>(p)]),
                                    chain, options));
  }
  size_t allocations = Allocations() - before;

  size_t ejects = 0;
  for (const PipelineHandle& handle : handles) {
    ejects += handle.eject_count();
  }
  ASSERT_EQ(ejects, static_cast<size_t>(kChains) * 6);
  EXPECT_LE(allocations, 16 * ejects)
      << static_cast<double>(allocations) / static_cast<double>(ejects)
      << " allocations per Eject";

  kernel.Run();
  for (const PipelineHandle& handle : handles) {
    EXPECT_EQ(handle.output(), (ValueList{Value("a"), Value("b")}));
  }
}

}  // namespace
}  // namespace eden

// The cost ladder: each row times one public call in isolation, so a change
// in a workload's end-to-end time can be traced to the layer that moved.
//
//   null event        ScheduleAction(0) + Step
//   resume            one co_await Yield() (Kernel::ScheduleResume + dispatch)
//   invoke local      same-node Invoke round trip
//   invoke remote     cross-node round trip on one shard
//   invoke x-shard    cross-node round trip whose ends live on two shards
//   transfer item     one item VectorSource (StreamServer) -> PullSink
//                     (StreamReader)
//   push item         one item PushSource (StreamWriter) -> PushSink
//                     (StreamAcceptor)
//   filter OnItem     one Transform::OnItem call of the workload's chain
//
// Every row is the median of several repetitions, each on a fresh kernel.
#include <algorithm>
#include <functional>
#include <string>

#include "bench.h"
#include "src/core/endpoints.h"
#include "src/eden/eject.h"
#include "src/eden/kernel.h"

namespace perfbench {
namespace {

using eden::Eject;
using eden::InvocationContext;
using eden::InvokeResult;
using eden::Kernel;
using eden::KernelOptions;
using eden::NodeId;
using eden::Task;
using eden::Uid;

constexpr int kRepeats = 5;

class Echo : public Eject {
 public:
  explicit Echo(Kernel& kernel) : Eject(kernel, "PerfEcho") {
    Register("Echo", [](InvocationContext ctx) { ctx.Reply(); });
  }
};

// Invokes `target` `rounds` times back to back, from its own process.
class Caller : public Eject {
 public:
  Caller(Kernel& kernel, Uid target, int64_t rounds)
      : Eject(kernel, "PerfCaller"), target_(target), rounds_(rounds) {}
  void OnStart() override { Spawn(Loop()); }
  int64_t completed() const { return completed_; }

 private:
  Task<void> Loop() {
    for (int64_t i = 0; i < rounds_; ++i) {
      InvokeResult r = co_await Invoke(target_, "Echo");
      completed_ += r.ok() ? 1 : 0;
    }
  }
  Uid target_;
  int64_t rounds_;
  int64_t completed_ = 0;
};

class Yielder : public Eject {
 public:
  Yielder(Kernel& kernel, int64_t rounds) : Eject(kernel, "PerfYielder"), rounds_(rounds) {}
  void OnStart() override { Spawn(Loop()); }
  int64_t completed() const { return completed_; }

 private:
  Task<void> Loop() {
    for (int64_t i = 0; i < rounds_; ++i) {
      co_await Yield();
      ++completed_;
    }
  }
  int64_t rounds_;
  int64_t completed_ = 0;
};

// Median over kRepeats of `once()`, which returns ns per operation (or a
// negative value when the row's own check failed). With `scale`, each
// repetition is divided by the host slowdown the reference task measured
// around it, as the workload timings are.
double MedianRow(bool scale, const std::function<double()>& once) {
  std::vector<double> samples;
  for (int i = 0; i < kRepeats; ++i) {
    uint64_t ref = scale ? ReferenceTaskNs() : 0;
    double ns = once();
    if (ns < 0) {
      return -1;
    }
    double slowdown =
        scale ? static_cast<double>(std::min(ref, ReferenceTaskNs())) / kNominalReferenceNs
              : 1.0;
    samples.push_back(ns / slowdown);
  }
  return Median(samples);
}

double TimeRun(Kernel& kernel, int64_t ops) {
  uint64_t t0 = WallNs();
  kernel.Run();
  return static_cast<double>(WallNs() - t0) / static_cast<double>(ops);
}

double NullEventRow() {
  constexpr int64_t kOps = 200'000;
  Kernel kernel;
  int64_t ran = 0;
  uint64_t t0 = WallNs();
  for (int64_t i = 0; i < kOps; ++i) {
    kernel.ScheduleAction(0, [&ran] { ++ran; });
    kernel.Step();
  }
  double ns = static_cast<double>(WallNs() - t0) / kOps;
  return ran == kOps ? ns : -1;
}

double ResumeRow() {
  constexpr int64_t kOps = 200'000;
  Kernel kernel;
  Yielder& y = kernel.CreateLocal<Yielder>(kOps);
  double ns = TimeRun(kernel, kOps);
  return y.completed() == kOps ? ns : -1;
}

// Round trips between a caller on `caller_node` and an echo on `echo_node`.
double InvokeRow(int shards, bool distinct_nodes, bool split_shards, int64_t ops) {
  KernelOptions options;
  options.shards = shards;
  Kernel kernel(options);
  NodeId caller_node = 0;
  NodeId echo_node = 0;
  if (distinct_nodes) {
    caller_node = kernel.AddNode("caller", 0);
    echo_node = kernel.AddNode("echo", split_shards ? 1 : 0);
  }
  Echo& echo = kernel.Create<Echo>(echo_node);
  Caller& caller = kernel.Create<Caller>(caller_node, echo.uid(), ops);
  double ns = TimeRun(kernel, ops);
  return caller.completed() == ops ? ns : -1;
}

double TransferRow(const ValueList& items) {
  Kernel kernel;
  auto& source = kernel.CreateLocal<eden::VectorSource>(items);
  auto& sink = kernel.CreateLocal<eden::PullSink>(source.uid(),
                                                  Value(std::string(eden::kChanOut)));
  double ns = TimeRun(kernel, static_cast<int64_t>(items.size()));
  return sink.items() == items ? ns : -1;
}

double PushRow(const ValueList& items) {
  Kernel kernel;
  auto& sink = kernel.CreateLocal<eden::PushSink>();
  auto& source = kernel.CreateLocal<eden::PushSource>(items);
  source.BindOutput(sink.uid(), Value(std::string(eden::kChanIn)));
  double ns = TimeRun(kernel, static_cast<int64_t>(items.size()));
  return sink.items() == items ? ns : -1;
}

double OnItemRow(const std::vector<eden::TransformFactory>& chain, const ValueList& input) {
  if (chain.empty() || input.empty()) {
    return 0;
  }
  uint64_t total = 0;
  uint64_t calls = 0;
  ValueList outs;
  for (const eden::TransformFactory& factory : chain) {
    std::unique_ptr<eden::Transform> stage = factory();
    outs.clear();
    outs.reserve(input.size());
    eden::Transform::EmitFn emit = [&outs](std::string_view, Value v) {
      outs.push_back(std::move(v));
    };
    uint64_t t0 = WallNs();
    for (const Value& item : input) {
      stage->OnItem(item, emit);
    }
    total += WallNs() - t0;
    calls += input.size();
  }
  return static_cast<double>(total) / static_cast<double>(calls);
}

}  // namespace

Ladder MeasureLadder(const std::vector<eden::TransformFactory>& chain, const ValueList& input,
                     bool scale) {
  ValueList items = BenchLines(20'000, 0x1ADDE5);
  Ladder ladder;
  ladder.null_event_ns = MedianRow(scale, NullEventRow);
  ladder.resume_ns = MedianRow(scale, ResumeRow);
  ladder.invoke_local_ns = MedianRow(scale, [] { return InvokeRow(1, false, false, 50'000); });
  ladder.invoke_remote_ns = MedianRow(scale, [] { return InvokeRow(1, true, false, 50'000); });
  ladder.invoke_cross_shard_ns =
      MedianRow(scale, [] { return InvokeRow(2, true, true, 5'000); });
  ladder.transfer_item_ns = MedianRow(scale, [&items] { return TransferRow(items); });
  ladder.push_item_ns = MedianRow(scale, [&items] { return PushRow(items); });
  ladder.on_item_ns = MedianRow(scale, [&] { return OnItemRow(chain, input); });
  return ladder;
}

}  // namespace perfbench

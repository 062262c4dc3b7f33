// Experiment F5 — recovery under injected faults.
//
// Each benchmark runs the same two-stage pipeline (a stateful running-sum
// filter, then a copy) twice per discipline: once fault-free, once with 1%
// message loss in each direction plus one scheduled crash of the stateful
// filter mid-run. Both runs use recovery mode; the baseline additionally
// proves that recovery machinery is pure overhead when nothing fails
// (timeouts == retries == redeliveries_dropped == recoveries == 0).
//
// The headline counter is `output_ok`: 1 iff the faulty run's output is
// byte-identical to the fault-free run's. Virtual-time and retry counters
// quantify what the recovery cost.
#include "bench/bench_util.h"

#include "src/eden/fault.h"

namespace eden {
namespace {

// Stateful on purpose: crash recovery must restore the accumulated sum from
// the checkpoint, not just the stream positions.
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

std::vector<TransformFactory> SumChain() {
  std::vector<TransformFactory> chain;
  chain.push_back(MakeTransformFactory<RunningSum>());
  chain.push_back(MakeTransformFactory<LambdaTransform>(
      "copy", [](const Value& v, const Transform::EmitFn& emit) {
        emit(kChanOut, v);
      }));
  return chain;
}

ValueList IntLoad(int n) {
  ValueList items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    items.push_back(Value(int64_t{i}));
  }
  return items;
}

PipelineOptions RecoveryOptions(Discipline discipline) {
  PipelineOptions options;
  options.discipline = discipline;
  options.processing_cost = 20;
  options.recovery.enabled = true;
  options.recovery.checkpoint_every = 8;
  return options;
}

PipelineRunStats RunWithFaults(Discipline discipline, int items, bool faults) {
  FaultPlan plan;
  if (faults) {
    plan.drop_invocation = 0.01;
    plan.drop_reply = 0.01;
  }
  FaultInjector injector(plan);
  PipelineInstruments instruments;
  instruments.fault = &injector;
  if (faults) {
    // The stateful filter (first stage; the conventional build interposes a
    // pipe before it) dies mid-stream and must resume from its checkpoint.
    instruments.on_built = [&injector, discipline](Kernel& kernel,
                                                   PipelineHandle& handle) {
      Uid victim = discipline == Discipline::kConventional ? handle.ejects[2]
                                                           : handle.ejects[1];
      injector.ScheduleCrash(kernel, Tick{12'000}, victim);
    };
  }
  return RunPipelineMeasured(KernelOptions(), IntLoad(items), SumChain(),
                             RecoveryOptions(discipline), instruments);
}

void BM_FaultRecovery(benchmark::State& state) {
  Discipline discipline = static_cast<Discipline>(state.range(0));
  bool faults = state.range(1) != 0;
  int items = 120;
  PipelineRunStats clean;
  PipelineRunStats measured;
  for (auto _ : state) {
    if (faults) {
      clean = RunWithFaults(discipline, items, false);
    }
    measured = RunWithFaults(discipline, items, faults);
    benchmark::DoNotOptimize(measured.output.size());
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.SetLabel(std::string(DisciplineName(discipline)) +
                 (faults ? "/faulty" : "/fault-free"));
  bool output_ok = faults ? measured.output == clean.output
                          : measured.output.size() == static_cast<size_t>(items);
  state.counters["output_ok"] = output_ok ? 1 : 0;
  state.counters["timeouts"] = static_cast<double>(measured.delta.timeouts);
  state.counters["retries"] = static_cast<double>(measured.delta.retries);
  state.counters["dropped"] = static_cast<double>(measured.delta.messages_dropped);
  state.counters["redelivered_dropped"] =
      static_cast<double>(measured.delta.redeliveries_dropped);
  state.counters["recoveries"] = static_cast<double>(measured.delta.recoveries);
  state.counters["crashes"] = static_cast<double>(measured.delta.crashes);
  state.counters["virtual_us"] = static_cast<double>(measured.virtual_time);
}
BENCHMARK(BM_FaultRecovery)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN("fault_recovery")

// Ablation A1 — the three §3 interpretations of ! and ?.
//
// "This interaction may be regarded in several different ways. Both ! and ?
//  may be regarded as active, and the interpreter as the passive connection
//  ... Alternatively, input may be regarded as active ... The converse
//  interpretation is also possible."                             (paper §3)
//
// One 2-filter pipeline, three realizations:
//   csp         both sides active; a CspChannel Eject at each junction
//               (3 junctions -> 3 channel Ejects; Send+Receive per datum)
//   read-only   input active, output passive (the paper's choice)
//   write-only  output active, input passive (the dual)
//
// The rendezvous interpretation matches the conventional discipline's
// message bill (2 per junction) while buffering nothing — the asymmetric
// disciplines halve it.
#include "bench/bench_util.h"
#include "src/core/rendezvous.h"

namespace eden {
namespace {

// Forwards items between two CSP channels applying no transformation.
class CspForwarder : public Eject {
 public:
  CspForwarder(Kernel& kernel, Uid in, Uid out)
      : Eject(kernel, "CspForwarder"), in_(in), out_(out) {}
  void OnStart() override { Spawn(Run()); }

 private:
  Task<void> Run() {
    for (;;) {
      InvokeResult r = co_await Invoke(in_, "Receive", Value());
      if (!r.ok() || r.value().Field("end").BoolOr(false)) {
        break;
      }
      (void)co_await Invoke(out_, "Send", Value().Set("item", r.value().Field("item")));
    }
    (void)co_await Invoke(out_, "Close", Value());
  }

  Uid in_;
  Uid out_;
};

// Feeds a vector into a CSP channel.
class CspProducer : public Eject {
 public:
  CspProducer(Kernel& kernel, ValueList items, Uid out)
      : Eject(kernel, "CspProducer"), items_(std::move(items)), out_(out) {}
  void OnStart() override { Spawn(Run()); }

 private:
  Task<void> Run() {
    for (Value& item : items_) {
      (void)co_await Invoke(out_, "Send", Value().Set("item", std::move(item)));
    }
    (void)co_await Invoke(out_, "Close", Value());
  }

  ValueList items_;
  Uid out_;
};

// Drains a CSP channel.
class CspConsumer : public Eject {
 public:
  CspConsumer(Kernel& kernel, Uid in) : Eject(kernel, "CspConsumer"), in_(in) {}
  void OnStart() override { Spawn(Run()); }
  bool done() const { return done_; }
  size_t count() const { return count_; }

 private:
  Task<void> Run() {
    for (;;) {
      InvokeResult r = co_await Invoke(in_, "Receive", Value());
      if (!r.ok() || r.value().Field("end").BoolOr(false)) {
        break;
      }
      count_++;
    }
    done_ = true;
  }

  Uid in_;
  bool done_ = false;
  size_t count_ = 0;
};

void BM_CspInterpretation(benchmark::State& state) {
  int items = 1000;
  uint64_t invocations = 0;
  size_t ejects = 0;
  Tick vtime = 0;
  for (auto _ : state) {
    Kernel kernel;
    // producer -> c0 -> F1 -> c1 -> F2 -> c2 -> consumer
    CspChannel& c0 = kernel.CreateLocal<CspChannel>();
    CspChannel& c1 = kernel.CreateLocal<CspChannel>();
    CspChannel& c2 = kernel.CreateLocal<CspChannel>();
    kernel.CreateLocal<CspProducer>(BenchLines(items), c0.uid());
    kernel.CreateLocal<CspForwarder>(c0.uid(), c1.uid());
    kernel.CreateLocal<CspForwarder>(c1.uid(), c2.uid());
    CspConsumer& consumer = kernel.CreateLocal<CspConsumer>(c2.uid());
    kernel.RunUntil([&] { return consumer.done(); });
    invocations = kernel.stats().invocations_sent;
    ejects = kernel.stats().ejects_created;
    vtime = kernel.now();
    benchmark::DoNotOptimize(consumer.count());
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["inv_per_datum"] = static_cast<double>(invocations) / items;
  state.counters["ejects"] = static_cast<double>(ejects);
  state.counters["vus_per_datum"] = static_cast<double>(vtime) / items;
}
BENCHMARK(BM_CspInterpretation)->Unit(benchmark::kMillisecond);

void RunDiscipline(benchmark::State& state, Discipline discipline) {
  int items = 1000;
  PipelineRunStats run;
  for (auto _ : state) {
    PipelineOptions options;
    options.discipline = discipline;
    run = RunPipelineMeasured(KernelOptions(), BenchLines(items), CopyChain(2),
                              options);
    benchmark::DoNotOptimize(run.items_out);
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["inv_per_datum"] =
      static_cast<double>(run.delta.invocations_sent) / items;
  state.counters["ejects"] = static_cast<double>(run.ejects);
  state.counters["vus_per_datum"] = static_cast<double>(run.virtual_time) / items;
}

void BM_ReadOnlyInterpretation(benchmark::State& state) {
  RunDiscipline(state, Discipline::kReadOnly);
}
void BM_WriteOnlyInterpretation(benchmark::State& state) {
  RunDiscipline(state, Discipline::kWriteOnly);
}
BENCHMARK(BM_ReadOnlyInterpretation)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WriteOnlyInterpretation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN("ablation_csp")

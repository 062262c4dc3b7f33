// Experiment C4 — §5 fan-in / fan-out asymmetry.
//
// "As we have described it so far, 'read only' transput allows arbitrary
//  fan-in but no fan-out. The dual situation exists with 'write only'
//  transput."
//
// Four configurations, counters report Eject census & messages per datum:
//   fan-in/read-only    cmp over two sources: native (n+2-style, no buffers)
//   fan-in/write-only   needs a passive buffer for the secondary input
//                       ("These secondary inputs will typically be passive
//                        buffers", §5)
//   fan-out/write-only  tee to two sinks: native
//   fan-out/read-only   (a) §5 workaround: secondary output volunteered into
//                       a passive buffer; (b) channel identifiers (Figure 4
//                       solution) with no buffer.
#include "bench/bench_util.h"
#include "src/core/passive_buffer.h"
#include "src/filters/multi_input.h"
#include "src/filters/transforms.h"

namespace eden {
namespace {

// --------------------------------------------------- fan-in, read-only: cmp
void BM_FanInReadOnly(benchmark::State& state) {
  int items = 1000;
  size_t ejects = 0;
  uint64_t invocations = 0;
  size_t out_items = 0;
  for (auto _ : state) {
    Kernel kernel;
    VectorSource& left = kernel.CreateLocal<VectorSource>(BenchLines(items, 1));
    VectorSource& right = kernel.CreateLocal<VectorSource>(BenchLines(items, 2));
    CmpEject& cmp = kernel.CreateLocal<CmpEject>(StreamRef{left.uid()},
                                                 StreamRef{right.uid()});
    PullSink& sink = kernel.CreateLocal<PullSink>(cmp.uid(),
                                                  Value(std::string(kChanOut)));
    kernel.RunUntil([&] { return sink.done(); });
    ejects = kernel.stats().ejects_created;
    invocations = kernel.stats().invocations_sent;
    out_items = sink.items().size();
    benchmark::DoNotOptimize(out_items);
  }
  state.SetItemsProcessed(state.iterations() * items * 2);
  state.counters["ejects"] = static_cast<double>(ejects);  // 4: no buffers
  state.counters["passive_buffers"] = 0;
  state.counters["inv_per_input_datum"] =
      static_cast<double>(invocations) / (2.0 * items);
}
BENCHMARK(BM_FanInReadOnly)->Unit(benchmark::kMillisecond);

// ------------------------------- fan-in, write-only: buffer for 2nd input
// A write-only filter has one primary (pushed) input; its secondary input
// must be staged through a passive buffer which the filter actively reads.
class WriteOnlyCmp : public Eject {
 public:
  WriteOnlyCmp(Kernel& kernel, Uid secondary_source, Uid sink)
      : Eject(kernel, "WriteOnlyCmp"),
        acceptor_(*this),
        secondary_(*this, secondary_source, Value(std::string(kChanOut))),
        out_(*this, sink, Value(std::string(kChanIn))) {
    ChannelOptions in;
    in.hiwat = 8;
    acceptor_.DeclareChannel(std::string(kChanIn), in);
    acceptor_.InstallOps();
  }
  void OnStart() override { Spawn(Run()); }

 private:
  Task<void> Run() {
    int64_t differences = 0;
    for (;;) {
      std::optional<Value> a = co_await acceptor_.Next(kChanIn);
      std::optional<Value> b = co_await secondary_.Next();
      if (!a && !b) {
        break;
      }
      if (!a || !b || *a != *b) {
        differences++;
        co_await out_.Write(Value(differences));
      }
      if (!a || !b) {
        break;
      }
    }
    co_await out_.End();
  }

  StreamAcceptor acceptor_;
  StreamReader secondary_;
  StreamWriter out_;
};

void BM_FanInWriteOnly(benchmark::State& state) {
  int items = 1000;
  size_t ejects = 0;
  uint64_t invocations = 0;
  for (auto _ : state) {
    Kernel kernel;
    PushSource& primary = kernel.CreateLocal<PushSource>(BenchLines(items, 1));
    // The secondary input staged through a passive buffer (filled by an
    // active producer), per §5.
    PushSource& secondary_producer =
        kernel.CreateLocal<PushSource>(BenchLines(items, 2));
    PassiveBuffer& staging = kernel.CreateLocal<PassiveBuffer>();
    secondary_producer.BindOutput(staging.uid(), Value(std::string(kChanIn)));

    PushSink& sink = kernel.CreateLocal<PushSink>();
    WriteOnlyCmp& cmp =
        kernel.CreateLocal<WriteOnlyCmp>(staging.uid(), sink.uid());
    primary.BindOutput(cmp.uid(), Value(std::string(kChanIn)));

    kernel.RunUntil([&] { return sink.done(); });
    ejects = kernel.stats().ejects_created;
    invocations = kernel.stats().invocations_sent;
    benchmark::DoNotOptimize(ejects);
  }
  state.SetItemsProcessed(state.iterations() * items * 2);
  state.counters["ejects"] = static_cast<double>(ejects);  // 5: buffer added
  state.counters["passive_buffers"] = 1;
  state.counters["inv_per_input_datum"] =
      static_cast<double>(invocations) / (2.0 * items);
}
BENCHMARK(BM_FanInWriteOnly)->Unit(benchmark::kMillisecond);

// ---------------------------------------------- fan-out, write-only: native
void BM_FanOutWriteOnly(benchmark::State& state) {
  int items = 1000;
  size_t ejects = 0;
  uint64_t invocations = 0;
  for (auto _ : state) {
    Kernel kernel;
    PushSource& source = kernel.CreateLocal<PushSource>(BenchLines(items));
    WriteOnlyFilter& tee =
        kernel.CreateLocal<WriteOnlyFilter>(std::make_unique<TeeTransform>());
    PushSink& a = kernel.CreateLocal<PushSink>();
    PushSink& b = kernel.CreateLocal<PushSink>();
    tee.BindOutput(std::string(kChanOut), a.uid(), Value(std::string(kChanIn)));
    tee.BindOutput("copy", b.uid(), Value(std::string(kChanIn)));
    source.BindOutput(tee.uid(), Value(std::string(kChanIn)));
    kernel.RunUntil([&] { return a.done() && b.done(); });
    ejects = kernel.stats().ejects_created;
    invocations = kernel.stats().invocations_sent;
    benchmark::DoNotOptimize(ejects);
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["ejects"] = static_cast<double>(ejects);  // 4
  state.counters["passive_buffers"] = 0;
  state.counters["inv_per_datum"] = static_cast<double>(invocations) / items;
}
BENCHMARK(BM_FanOutWriteOnly)->Unit(benchmark::kMillisecond);

// ------------------- fan-out, read-only (a): §5 passive-buffer workaround
// "secondary output is volunteered in Write invocations ... Typically these
// outputs will be directed into passive buffers, which will then be sources
// for other pipelines. This amounts to abandoning the 'read only' nature."
class ReadOnlyTeeWithVolunteeredSecondary : public Eject {
 public:
  ReadOnlyTeeWithVolunteeredSecondary(Kernel& kernel, Uid source, Uid buffer)
      : Eject(kernel, "HybridTee"),
        reader_(*this, source, Value(std::string(kChanOut))),
        server_(*this),
        secondary_(*this, buffer, Value(std::string(kChanIn))) {
    server_.DeclareChannel(std::string(kChanOut));
    server_.InstallOps();
  }
  void OnStart() override { Spawn(Run()); }

 private:
  Task<void> Run() {
    for (;;) {
      std::optional<Value> item = co_await reader_.Next();
      if (!item) {
        break;
      }
      co_await server_.Write(kChanOut, *item);     // primary: passive output
      co_await secondary_.Write(std::move(*item));  // secondary: ACTIVE write
    }
    server_.CloseAll();
    co_await secondary_.End();
  }

  StreamReader reader_;
  StreamServer server_;
  StreamWriter secondary_;
};

void BM_FanOutReadOnlyViaBuffer(benchmark::State& state) {
  int items = 1000;
  size_t ejects = 0;
  uint64_t invocations = 0;
  for (auto _ : state) {
    Kernel kernel;
    VectorSource& source = kernel.CreateLocal<VectorSource>(BenchLines(items));
    PassiveBuffer& buffer = kernel.CreateLocal<PassiveBuffer>();
    ReadOnlyTeeWithVolunteeredSecondary& tee =
        kernel.CreateLocal<ReadOnlyTeeWithVolunteeredSecondary>(source.uid(),
                                                                buffer.uid());
    PullSink& a = kernel.CreateLocal<PullSink>(tee.uid(),
                                               Value(std::string(kChanOut)));
    PullSink& b = kernel.CreateLocal<PullSink>(buffer.uid(),
                                               Value(std::string(kChanOut)));
    kernel.RunUntil([&] { return a.done() && b.done(); });
    ejects = kernel.stats().ejects_created;
    invocations = kernel.stats().invocations_sent;
    benchmark::DoNotOptimize(ejects);
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["ejects"] = static_cast<double>(ejects);  // 5: buffer re-added
  state.counters["passive_buffers"] = 1;
  state.counters["inv_per_datum"] = static_cast<double>(invocations) / items;
}
BENCHMARK(BM_FanOutReadOnlyViaBuffer)->Unit(benchmark::kMillisecond);

// --------------- fan-out, read-only (b): channel identifiers (Figure 4 fix)
void BM_FanOutReadOnlyViaChannels(benchmark::State& state) {
  int items = 1000;
  size_t ejects = 0;
  uint64_t invocations = 0;
  for (auto _ : state) {
    Kernel kernel;
    VectorSource& source = kernel.CreateLocal<VectorSource>(BenchLines(items));
    ReadOnlyFilter::Options options;
    options.source = source.uid();
    ReadOnlyFilter& tee = kernel.CreateLocal<ReadOnlyFilter>(
        std::make_unique<TeeTransform>(), options);
    PullSink& a = kernel.CreateLocal<PullSink>(tee.uid(),
                                               Value(std::string(kChanOut)));
    PullSink& b = kernel.CreateLocal<PullSink>(tee.uid(), Value("copy"));
    kernel.RunUntil([&] { return a.done() && b.done(); });
    ejects = kernel.stats().ejects_created;
    invocations = kernel.stats().invocations_sent;
    benchmark::DoNotOptimize(ejects);
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["ejects"] = static_cast<double>(ejects);  // 4: no buffer
  state.counters["passive_buffers"] = 0;
  state.counters["inv_per_datum"] = static_cast<double>(invocations) / items;
}
BENCHMARK(BM_FanOutReadOnlyViaChannels)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN("claim_fan")

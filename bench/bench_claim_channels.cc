// Experiment C5 — §5 channel-identifier security.
//
// "One way of overcoming this problem is to use UIDs as channel identifiers:
//  because UIDs cannot be forged, the only Ejects which are able to make
//  valid ReadonChannel requests of F are those to which a channel identifier
//  has been given explicitly. The cost of this additional security is that
//  more work is now necessary to connect a sink to its source."
//
// Measured: (a) connection setup cost — integer ids are free, capabilities
// need one OpenChannel round trip per connection; (b) steady-state transfer
// cost — identical (the identifier rides in every Transfer either way, a
// UID being 16 bytes vs 8 for an int); (c) forgery: guessed identifiers are
// rejected without leaking channel existence.
#include "bench/bench_util.h"
#include "src/core/endpoints.h"

namespace eden {
namespace {

void BM_ConnectionSetup(benchmark::State& state) {
  bool capabilities = state.range(0) != 0;
  int connections = 64;
  uint64_t setup_invocations = 0;
  Tick setup_time = 0;
  for (auto _ : state) {
    Kernel kernel;
    VectorSource::Options options;
    options.capability_only_channels = capabilities;
    VectorSource& source =
        kernel.CreateLocal<VectorSource>(BenchLines(4), options);
    Stats before = kernel.stats();
    Tick start = kernel.now();
    for (int i = 0; i < connections; ++i) {
      if (capabilities) {
        InvokeResult r = kernel.InvokeAndRun(
            source.uid(), std::string(kOpOpenChannel),
            Value().Set(std::string(kFieldName), Value(std::string(kChanOut))));
        benchmark::DoNotOptimize(r.ok());
      }
      // Integer/name identifiers need no handshake at all: the connection is
      // just knowledge of "channel 0".
    }
    setup_invocations = (kernel.stats() - before).invocations_sent;
    setup_time = kernel.now() - start;
  }
  state.counters["setup_inv_per_connection"] =
      static_cast<double>(setup_invocations) / connections;
  state.counters["setup_vus_per_connection"] =
      static_cast<double>(setup_time) / connections;
}
BENCHMARK(BM_ConnectionSetup)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("capabilities")
    ->Unit(benchmark::kMillisecond);

void BM_SteadyStateTransfer(benchmark::State& state) {
  bool capabilities = state.range(0) != 0;
  int items = 2000;
  uint64_t invocations = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    Kernel kernel;
    VectorSource::Options options;
    options.capability_only_channels = capabilities;
    VectorSource& source =
        kernel.CreateLocal<VectorSource>(BenchLines(items), options);
    Value channel = Value(int64_t{0});
    if (capabilities) {
      channel = Value(*source.server().MintCapability(std::string(kChanOut)));
    }
    Stats before = kernel.stats();
    PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(), channel);
    kernel.RunUntil([&] { return sink.done(); });
    Stats delta = kernel.stats() - before;
    invocations = delta.invocations_sent;
    bytes = delta.total_bytes();
    benchmark::DoNotOptimize(sink.items().size());
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["inv_per_datum"] = static_cast<double>(invocations) / items;
  state.counters["bytes_per_datum"] = static_cast<double>(bytes) / items;
}
BENCHMARK(BM_SteadyStateTransfer)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("capabilities")
    ->Unit(benchmark::kMillisecond);

void BM_ForgeryRejection(benchmark::State& state) {
  int attempts = 256;
  uint64_t rejected = 0;
  for (auto _ : state) {
    Kernel kernel;
    VectorSource::Options options;
    options.capability_only_channels = true;
    VectorSource& source =
        kernel.CreateLocal<VectorSource>(BenchLines(8), options);
    Rng rng(11);
    rejected = 0;
    for (int i = 0; i < attempts; ++i) {
      Value forged = Value(Uid(rng.Next(), rng.Next()));
      InvokeResult r = kernel.InvokeAndRun(source.uid(), "Transfer",
                                           TransferArgs{forged, 1});
      if (r.status.is(StatusCode::kNoSuchChannel)) {
        rejected++;
      }
    }
    benchmark::DoNotOptimize(rejected);
  }
  state.counters["forgeries_rejected"] = static_cast<double>(rejected);
  state.counters["forgeries_attempted"] = static_cast<double>(attempts);
}
BENCHMARK(BM_ForgeryRejection)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN("claim_channels")

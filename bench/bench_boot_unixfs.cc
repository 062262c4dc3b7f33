// Experiment C6 — the §7 bootstrap transput system.
//
// Round trip: NewStream reads a host file into an Eden stream, a filter
// chain processes it, UseStream writes it back — the exact workflow the
// prototype ran against the real Unix file system. Measured: end-to-end
// virtual time, messages per line, and simulator throughput, for varying
// file sizes and batch factors.
#include "bench/bench_util.h"
#include "src/core/filter_eject.h"
#include "src/core/framing.h"
#include "src/fs/unix_fs.h"

namespace eden {
namespace {

std::string MakeFortranFile(int lines) {
  Rng rng(7);
  std::string text;
  for (int i = 0; i < lines; ++i) {
    text += rng.Chance(0.3) ? "C comment " + std::to_string(i) + "\n"
                            : "      V" + std::to_string(i) + " = " +
                                  rng.Word(1, 5) + "\n";
  }
  return text;
}

void BM_BootstrapRoundTrip(benchmark::State& state) {
  int lines = static_cast<int>(state.range(0));
  std::string input = MakeFortranFile(lines);
  uint64_t invocations = 0;
  Tick virtual_time = 0;
  size_t lines_out = 0;
  for (auto _ : state) {
    Kernel kernel;
    HostFs host;
    host.Put("/in.f", input);
    UnixFileSystemEject& ufs = kernel.CreateLocal<UnixFileSystemEject>(host);

    InvokeResult opened = kernel.InvokeAndRun(
        ufs.uid(), "NewStream", Value().Set("path", Value("/in.f")));
    Uid stream = *opened.value().Field("stream").AsUid();

    ReadOnlyFilter::Options filter_options;
    filter_options.source = stream;
    ReadOnlyFilter& strip = kernel.CreateLocal<ReadOnlyFilter>(
        std::make_unique<LambdaTransform>(
            "strip",
            [](const Value& v, const Transform::EmitFn& emit) {
              if (v.StrOr("").rfind("C", 0) != 0) {
                emit(kChanOut, v);
              }
            }),
        filter_options);

    Stats before = kernel.stats();
    Tick start = kernel.now();
    InvokeResult used = kernel.InvokeAndRun(
        ufs.uid(), "UseStream",
        Value().Set("path", Value("/out.f")).Set("source", Value(strip.uid())));
    Uid sink = *used.value().Field("file").AsUid();
    kernel.RunUntil([&] { return !kernel.IsActive(sink); });
    invocations = (kernel.stats() - before).invocations_sent;
    virtual_time = kernel.now() - start;
    lines_out = SplitLines(*host.Get("/out.f")).size();
    benchmark::DoNotOptimize(lines_out);
  }
  state.SetItemsProcessed(state.iterations() * lines);
  state.counters["lines_in"] = static_cast<double>(lines);
  state.counters["lines_out"] = static_cast<double>(lines_out);
  state.counters["inv_per_line"] = static_cast<double>(invocations) / lines;
  state.counters["vus_per_line"] = static_cast<double>(virtual_time) / lines;
}
BENCHMARK(BM_BootstrapRoundTrip)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN("boot_unixfs")

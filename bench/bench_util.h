// Shared helpers for the reproduction benchmarks.
//
// Every benchmark reports simulation-level counters (invocations per datum,
// Eject census, virtual microseconds) rather than host wall time alone: the
// paper's claims are about message structure, and the DES makes those counts
// exact. Host time still measures simulator throughput.
//
// Use EDEN_BENCH_MAIN("name") instead of BENCHMARK_MAIN(): besides the
// console table it writes the full result set to BENCH_<name>.json in the
// working directory (google-benchmark's JSON schema), so runs are diffable
// and machine-readable.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/core/pipeline.h"
#include "src/eden/analysis.h"
#include "src/eden/fault.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/profile.h"
#include "src/eden/random.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"

namespace eden {

// A deterministic line workload (the "10k lines of Fortran" style input the
// paper's §3 filters were motivated by).
inline ValueList BenchLines(int n, uint64_t seed = 83) {
  Rng rng(seed);
  ValueList items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line = rng.Chance(0.25) ? "C " : "      ";
    line += rng.Word(3, 10) + " = " + rng.Word(1, 6);
    items.push_back(Value(std::move(line)));
  }
  return items;
}

inline std::vector<TransformFactory> CopyChain(size_t n) {
  std::vector<TransformFactory> chain;
  for (size_t i = 0; i < n; ++i) {
    chain.push_back([] { return std::make_unique<LambdaTransform>(
                             "copy", [](const Value& v, const Transform::EmitFn& emit) {
                               emit(kChanOut, v);
                             }); });
  }
  return chain;
}

// Optional observers for a measured pipeline run. All pointers are borrowed
// and may be null; `fault` is installed before the pipeline is built (so
// build-time traffic is subject to it too), and `on_built` runs right after
// BuildPipeline — the place to schedule crashes against handle.ejects.
struct PipelineInstruments {
  FaultInjector* fault = nullptr;
  MetricsRegistry* metrics = nullptr;  // stages labeled with their role names
  TraceRecorder* trace = nullptr;      // hooked and labeled likewise
  InvariantMonitor* monitor = nullptr; // online invariant checking
  ShardProfiler* profiler = nullptr;   // wall-clock shard phase timings
  TelemetrySampler* telemetry = nullptr;  // windowed virtual-time series
  std::function<void(Kernel&, PipelineHandle&)> on_built;
};

struct PipelineRunStats {
  Stats delta;
  Tick virtual_time = 0;
  size_t items_out = 0;
  size_t ejects = 0;
  size_t passive_buffers = 0;
  Tick first_item_at = -1;
  // The collected sink output (byte-identity checks across runs).
  ValueList output;
  // When an InvariantMonitor was installed: its end-of-run Check() count.
  uint64_t invariant_violations = 0;
};

// Builds and runs one pipeline to completion under the given instruments,
// returning the stat deltas.
inline PipelineRunStats RunPipelineMeasured(const KernelOptions& kernel_options,
                                            ValueList input,
                                            const std::vector<TransformFactory>& chain,
                                            const PipelineOptions& options,
                                            const PipelineInstruments& instruments) {
  Kernel kernel(kernel_options);
  if (instruments.fault != nullptr) {
    kernel.set_fault_injector(instruments.fault);
  }
  if (instruments.metrics != nullptr) {
    kernel.set_metrics(instruments.metrics);
  }
  if (instruments.trace != nullptr) {
    kernel.set_tracer(instruments.trace->Hook());
  }
  if (instruments.monitor != nullptr) {
    if (instruments.trace != nullptr) {
      instruments.monitor->set_trace_sink(instruments.trace->Hook());
    }
    kernel.set_monitor(instruments.monitor);
  }
  if (instruments.profiler != nullptr) {
    kernel.set_profiler(instruments.profiler);
  }
  if (instruments.telemetry != nullptr) {
    kernel.set_telemetry(instruments.telemetry);
  }
  Stats before = kernel.stats();
  Tick start = kernel.now();
  PipelineHandle handle = BuildPipeline(kernel, std::move(input), chain, options);
  if (instruments.metrics != nullptr) {
    handle.LabelAll(*instruments.metrics);
  }
  if (instruments.trace != nullptr) {
    handle.LabelAll(*instruments.trace);
  }
  if (instruments.monitor != nullptr) {
    handle.LabelAll(*instruments.monitor);
  }
  if (instruments.telemetry != nullptr) {
    handle.LabelAll(*instruments.telemetry);
  }
  if (instruments.on_built) {
    instruments.on_built(kernel, handle);
  }
  kernel.RunUntil([&handle] { return handle.done(); });
  PipelineRunStats result;
  result.delta = kernel.stats() - before;
  result.virtual_time = kernel.now() - start;
  result.items_out = handle.output().size();
  result.ejects = handle.eject_count();
  result.passive_buffers = handle.passive_buffer_count;
  result.first_item_at = handle.first_item_at();
  result.output = handle.output();
  if (instruments.monitor != nullptr) {
    result.invariant_violations = instruments.monitor->Check().size();
  }
  return result;
}

inline PipelineRunStats RunPipelineMeasured(const KernelOptions& kernel_options,
                                            ValueList input,
                                            const std::vector<TransformFactory>& chain,
                                            const PipelineOptions& options) {
  return RunPipelineMeasured(kernel_options, std::move(input), chain, options,
                             PipelineInstruments{});
}

// Attaches the standard counter set to a benchmark state.
inline void ReportPipelineCounters(benchmark::State& state,
                                   const PipelineRunStats& run, size_t stage_count,
                                   Discipline discipline) {
  double items = static_cast<double>(run.items_out);
  state.counters["inv_per_datum"] =
      static_cast<double>(run.delta.invocations_sent) / items;
  state.counters["predicted_inv"] =
      static_cast<double>(PredictedInvocationsPerDatum(discipline, stage_count));
  state.counters["msgs_per_datum"] =
      static_cast<double>(run.delta.total_messages()) / items;
  state.counters["switches_per_datum"] =
      static_cast<double>(run.delta.context_switches) / items;
  state.counters["ejects"] = static_cast<double>(run.ejects);
  state.counters["passive_buffers"] = static_cast<double>(run.passive_buffers);
  state.counters["virtual_us_per_datum"] =
      static_cast<double>(run.virtual_time) / items;
}

// BENCHMARK_MAIN() with a JSON results file. Unless the caller already asked
// for one, injects --benchmark_out=BENCH_<name>.json (and JSON format) before
// initialization; explicit command-line flags always win.
inline int RunBenchMain(const char* name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool has_format = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    has_out = has_out || arg.rfind("--benchmark_out=", 0) == 0;
    has_format = has_format || arg.rfind("--benchmark_out_format=", 0) == 0;
  }
  std::string out_flag = std::string("--benchmark_out=BENCH_") + name + ".json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    if (!has_format) {
      args.push_back(format_flag.data());
    }
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace eden

#define EDEN_BENCH_MAIN(name)                                  \
  int main(int argc, char** argv) {                            \
    return ::eden::RunBenchMain(name, argc, argv);             \
  }

#endif  // BENCH_BENCH_UTIL_H_

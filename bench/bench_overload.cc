// Experiment OV — overload: a producer roughly 10x faster than its consumer
// (filter service time ~10x the per-message transport cost), swept across
// hiwat settings.
//
// The claims measured, per hiwat:
//   survived      1 when every datum came out, in order, with a clean
//                 InvariantMonitor — flow control lost nothing under a
//                 sustained rate mismatch.
//   queue_hw_max  largest depth any acceptor/server face ever reached; the
//                 watermark bound means it never exceeds hiwat, i.e. memory
//                 stays O(hiwat) no matter how long the overload lasts.
//   hiwat_hits    saturation episodes observed (the overload was real).
//   control_latency_ticks  (write-only bench) virtual ticks from injecting a
//                 control-band push mid-overload to the sink draining it:
//                 bands keep control latency independent of data saturation.
//
// The conventional sweep additionally runs under a TelemetrySampler with a
// `backlog count:hiwat >= 1` SLO rule: peak_rate_* / topk_* columns report
// the peak-window invocation rate and the sketch's hottest stage (virtual-
// time facts, pinned by the counter gate like the rest), and two sidecars
// land per hiwat — TELEMETRY_overload_h<hiwat>.json (the windowed series;
// the hiwat crossing window is visible in the `hiwat` counter ring) and
// TELEMETRY_overload_tracks_h<hiwat>.json (Chrome trace with Perfetto
// counter tracks riding next to the spans).
#include <fstream>

#include "bench/bench_util.h"

#include "src/core/stream.h"
#include "src/eden/slo.h"
#include "src/eden/trace_export.h"

namespace eden {
namespace {

// Filter service time per item. Default transport cost per datum is a few
// hundred ticks (invocation_send 100 + dispatch + switches per hop), so this
// makes the consumer an order of magnitude slower than the producer.
constexpr Tick kSlowConsumer = 2500;

// Sum one counter across every queue in the snapshot's "flow" section.
uint64_t SumFlow(const MetricsRegistry& metrics, std::string_view field) {
  uint64_t total = 0;
  Value snapshot = metrics.Snapshot();  // keep alive while we walk into it
  if (const ValueMap* flows = snapshot.Field("flow").AsMap()) {
    for (const auto& [label, counters] : *flows) {
      total += static_cast<uint64_t>(counters.Field(field).IntOr(0));
    }
  }
  return total;
}

// Largest high_water over every acceptor/server face (each face is bounded
// by its hiwat; the "pipe/" gauge is the sum of both faces, so it is
// excluded from the per-face bound).
uint64_t MaxFaceHighWater(const MetricsRegistry& metrics) {
  uint64_t max_hw = 0;
  Value snapshot = metrics.Snapshot();  // keep alive while we walk into it
  if (const ValueMap* queues = snapshot.Field("queues").AsMap()) {
    for (const auto& [label, gauge] : *queues) {
      if (label.rfind("acceptor/", 0) == 0 || label.rfind("server/", 0) == 0) {
        uint64_t hw = static_cast<uint64_t>(gauge.Field("high_water").IntOr(0));
        max_hw = hw > max_hw ? hw : max_hw;
      }
    }
  }
  return max_hw;
}

void BM_OverloadConventional(benchmark::State& state) {
  size_t hiwat = static_cast<size_t>(state.range(0));
  int items = 256;
  PipelineRunStats last;
  uint64_t hiwat_hits = 0;
  uint64_t queue_hw = 0;
  bool survived = false;
  // Telemetry instruments live across iterations (cleared per run) so the
  // last iteration's series can be written as sidecars after the loop.
  TraceRecorder trace;
  TelemetrySampler telemetry;
  SloEngine slo;
  // Fires on the first window with a hiwat hit: the overload's onset, dated
  // by the window that completed the (sustain=1) streak.
  slo.Add("backlog count:hiwat >= 1");
  for (auto _ : state) {
    MetricsRegistry metrics;
    InvariantMonitor monitor;
    trace.Clear();
    telemetry.Clear();
    slo.ClearFirings();
    telemetry.set_slo(&slo);
    slo.set_trace_sink(trace.Hook());
    PipelineInstruments instruments;
    instruments.metrics = &metrics;
    instruments.monitor = &monitor;
    instruments.trace = &trace;
    instruments.telemetry = &telemetry;
    PipelineOptions options;
    options.discipline = Discipline::kConventional;
    options.processing_cost = kSlowConsumer;
    options.pipe_capacity = hiwat;
    options.acceptor_capacity = hiwat;
    options.work_ahead = hiwat;
    ValueList input = BenchLines(items);
    last = RunPipelineMeasured(KernelOptions(), input, CopyChain(1), options,
                               instruments);
    hiwat_hits = SumFlow(metrics, "hiwat_hits");
    queue_hw = MaxFaceHighWater(metrics);
    survived = last.output == input && last.invariant_violations == 0;
    benchmark::DoNotOptimize(last.items_out);
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["items_out"] = static_cast<double>(last.items_out);
  state.counters["survived"] = survived ? 1 : 0;
  state.counters["violations"] = static_cast<double>(last.invariant_violations);
  state.counters["hiwat_hits"] = static_cast<double>(hiwat_hits);
  state.counters["queue_hw_max"] = static_cast<double>(queue_hw);
  state.counters["queue_bounded"] = queue_hw <= hiwat ? 1 : 0;
  state.counters["virtual_us_per_datum"] =
      static_cast<double>(last.virtual_time) / static_cast<double>(items);
  // Telemetry columns: peak-window rate, heavy hitters and SLO firings. The
  // doctor's time axis for this data lives in the sidecars.
  TelemetryVerdict tv = DiagnoseTelemetry(telemetry);
  state.counters["peak_rate_invoke"] = tv.valid ? tv.peak_rate : 0;
  state.counters["peak_rate_window"] =
      tv.valid ? static_cast<double>(tv.peak_window) : -1;
  state.counters["topk_hot_count"] = static_cast<double>(tv.hot_count);
  state.counters["topk_hiwat_count"] = static_cast<double>(
      tv.top_hiwat.empty() ? 0 : tv.top_hiwat.front().count);
  state.counters["slo_fired"] = static_cast<double>(slo.firings().size());
  const std::string suffix = "_h" + std::to_string(hiwat) + ".json";
  std::ofstream("TELEMETRY_overload" + suffix,
                std::ios::binary | std::ios::trunc)
      << telemetry.ToJson();
  ChromeTraceExporter tracks(trace);
  tracks.set_telemetry(&telemetry);
  tracks.WriteFile("TELEMETRY_overload_tracks" + suffix);
}
BENCHMARK(BM_OverloadConventional)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Write-only overload with a control-band push injected mid-saturation: the
// sink timestamps the drain, giving the control latency the band exists for.
void BM_OverloadControlLatency(benchmark::State& state) {
  size_t hiwat = static_cast<size_t>(state.range(0));
  int items = 256;
  const Tick kInjectAt = 20'000;  // well inside the saturated phase
  double latency = -1;
  uint64_t hiwat_hits = 0;
  size_t items_out = 0;
  for (auto _ : state) {
    Kernel kernel;
    MetricsRegistry metrics;
    kernel.set_metrics(&metrics);
    PipelineOptions options;
    options.discipline = Discipline::kWriteOnly;
    options.processing_cost = kSlowConsumer;
    options.acceptor_capacity = hiwat;
    PipelineHandle handle =
        BuildPipeline(kernel, BenchLines(items), CopyChain(1), options);
    handle.LabelAll(metrics);
    Uid sink_uid = handle.sink;
    kernel.ScheduleAction(kInjectAt, [&kernel, sink_uid] {
      kernel.ExternalInvoke(
          sink_uid, "Push",
          PushArgs{Value(std::string(kChanIn)), {Value(std::string("ping"))}, false, Band::kControl},
          [](InvokeResult) {});
    });
    kernel.RunUntil([&handle] { return handle.done(); });
    items_out = handle.output().size();
    const std::vector<Tick>& drained = handle.push_sink->control_drained_at();
    latency = drained.empty() ? -1
                              : static_cast<double>(drained[0] - kInjectAt);
    hiwat_hits = SumFlow(metrics, "hiwat_hits");
    benchmark::DoNotOptimize(latency);
  }
  state.SetItemsProcessed(state.iterations() * items);
  state.counters["items_out"] = static_cast<double>(items_out);
  state.counters["hiwat_hits"] = static_cast<double>(hiwat_hits);
  state.counters["control_latency_ticks"] = latency;
}
BENCHMARK(BM_OverloadControlLatency)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN("overload")

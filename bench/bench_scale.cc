// Experiment SCALE — shard-count sweep over a wide multi-node topology.
//
// The sharded kernel's contract (DESIGN.md "Sharded kernel") is that the
// shard count is unobservable: partition nodes across workers and
// conservative windows keep per-seed output byte-identical. This bench pins
// that contract on one workload — 64 independent read-only chains, every
// Eject on its own node — run at 1/2/4/8 shards. Every counter (ejects,
// events, inv_per_datum, virtual_us_per_datum, cross_shard_sends and the
// audit_* columns) is deterministic and pinned by the bench/baselines gate.
// Wall-clock scaling belongs to perfbench's wide_sharded workload.
//
// The partitioned:1 rows re-run the same workload with every chain pinned to
// one shard (PipelineOptions::partition_shard, the fix ASC011 points at):
// cross_shard_sends collapses to zero while every identity column — and the
// determinism certificate — stays exactly the sweep's. Each row runs under a
// ShardRaceAnalyzer; the audit_* columns carry its event count and violation
// count, and the benchmark itself asserts the merged digest is identical
// across all shard counts and both placements, failing the row on any
// mismatch or violation.
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/eden/verify/shard_audit.h"

namespace eden {
namespace {

struct ScaleResult {
  uint64_t events = 0;
  uint64_t invocations = 0;
  uint64_t cross_shard_sends = 0;
  Tick virtual_time = 0;
  size_t ejects = 0;
  size_t items_out = 0;
  verify::RunDigest digest;
};

ScaleResult RunScaleSweep(int shards, int pipelines, int items, size_t depth,
                          bool partitioned) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  verify::ShardRaceAnalyzer auditor;
  kernel.set_auditor(&auditor);
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  options.work_ahead = 4;
  std::vector<TransformFactory> chain = CopyChain(depth);
  std::vector<PipelineHandle> handles;
  handles.reserve(static_cast<size_t>(pipelines));
  for (int p = 0; p < pipelines; ++p) {
    // Partitioned placement: chain p lives entirely on shard p % shards, so
    // stage-to-stage traffic never crosses a shard while the chains still
    // spread evenly over the workers.
    options.partition_shard = partitioned ? p % shards : -1;
    handles.push_back(
        BuildPipeline(kernel, BenchLines(items, 83 + static_cast<uint64_t>(p)),
                      chain, options));
  }
  Stats before = kernel.stats();
  // Independent chains all drain to quiescence; no predicate scan over
  // thousands of handles per event.
  kernel.Run();

  ScaleResult result;
  Stats delta = kernel.stats() - before;
  result.invocations = delta.invocations_sent;
  result.virtual_time = kernel.now();
  result.ejects = kernel.stats().ejects_created;
  for (const ShardCounters& c : kernel.shard_counters()) {
    result.events += c.events_processed;
    result.cross_shard_sends += c.cross_shard_sends;
  }
  for (const PipelineHandle& handle : handles) {
    result.items_out += handle.output().size();
  }
  result.digest = auditor.Digest();
  return result;
}

void BM_ScaleShardSweep(benchmark::State& state) {
  const int pipelines = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const bool partitioned = state.range(2) != 0;
  const int items = 4;
  const size_t depth = 4;
  ScaleResult last{};
  for (auto _ : state) {
    last = RunScaleSweep(shards, pipelines, items, depth, partitioned);
    benchmark::DoNotOptimize(last.items_out);
  }
  // The dual-run comparison, in-bench: one workload (keyed by `pipelines`
  // alone — neither the shard count nor the placement is allowed to matter)
  // must produce the same certificate on every row. Benchmarks run
  // sequentially, so a plain static map across rows is safe.
  const verify::RunDigest& digest = last.digest;
  static std::map<int, verify::RunDigest> expected_by_workload;
  auto it = expected_by_workload.emplace(pipelines, digest).first;
  std::string mismatch = verify::RunDigest::Compare(it->second, digest);
  if (!mismatch.empty()) {
    state.SkipWithError(("determinism " + mismatch).c_str());
    return;
  }
  if (!digest.certified()) {
    state.SkipWithError(("shard audit: " + std::to_string(digest.violations) +
                         " violation(s)")
                            .c_str());
    return;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(last.items_out));
  // Deterministic identities: must match the baseline at every shard count.
  state.counters["ejects"] = static_cast<double>(last.ejects);
  state.counters["events"] = static_cast<double>(last.events);
  state.counters["inv_per_datum"] = static_cast<double>(last.invocations) /
                                    static_cast<double>(last.items_out);
  state.counters["virtual_us_per_datum"] =
      static_cast<double>(last.virtual_time) /
      static_cast<double>(last.items_out);
  state.counters["cross_shard_sends"] = static_cast<double>(last.cross_shard_sends);
  state.counters["audit_events"] = static_cast<double>(digest.events);
  state.counters["audit_violations"] = static_cast<double>(digest.violations);
}
BENCHMARK(BM_ScaleShardSweep)
    ->ArgsProduct({{64}, {1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"pipelines", "shards", "partitioned"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN("scale")

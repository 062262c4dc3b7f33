// Pins what the six instruments report for one wide, partitioned topology:
// 64 read-only chains of 4 copy filters, every Eject on its own node and
// each chain hinted to one shard, with the tracer, metrics registry,
// invariant monitor, telemetry sampler, shard profiler and determinism
// auditor all installed.
//
// At shards {1,2,4,8} the test requires byte-identical
//   - MetricsRegistry::Snapshot() JSON, minus its per-shard "shards" section;
//   - InvariantMonitor::ToValue() JSON;
//   - TelemetrySampler::ToJson();
//   - the TraceRecorder's events;
//   - the ShardRaceAnalyzer's RunDigest certificate;
// and each of those texts is pinned by digest, so a change to how the
// instruments record or merge must leave every report unchanged.
//
// A second case runs twice with a re-partition in between (4 shards, then
// 2). A source produces in the first run and serves in the second, from a
// different shard, so its flow history spans both runs. The reports must
// match the same two runs on one shard, with no violation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/pipeline.h"
#include "src/core/stream.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/profile.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"
#include "src/eden/verify/shard_audit.h"
#include "src/filters/transforms.h"

namespace eden {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Instruments {
  TraceRecorder trace{1 << 18};
  MetricsRegistry metrics;
  InvariantMonitor monitor;
  TelemetrySampler telemetry;
  ShardProfiler profiler;
  verify::ShardRaceAnalyzer auditor;

  void Install(Kernel& kernel) {
    kernel.set_tracer(trace.Hook());
    kernel.set_metrics(&metrics);
    monitor.set_trace_sink(trace.Hook());
    kernel.set_monitor(&monitor);
    kernel.set_telemetry(&telemetry);
    kernel.set_profiler(&profiler);
    kernel.set_auditor(&auditor);
  }
};

// Everything the instruments report, one text each.
struct Reports {
  std::string metrics;
  std::string monitor;
  std::string telemetry;
  std::string trace;
  std::string certificate;
};

constexpr size_t kReportCount = 5;
using Digests = std::array<uint64_t, kReportCount>;

std::string TraceText(const TraceRecorder& trace) {
  std::string text;
  for (const TraceEvent& e : trace.events()) {
    text += std::to_string(static_cast<int>(e.kind)) + " " + std::to_string(e.at) +
            " " + e.from.ToString() + " " + e.to.ToString() + " " + e.op + " " +
            std::to_string(e.id) + " " + std::to_string(e.parent) + " " +
            (e.ok ? "1" : "0") + "\n";
  }
  return text;
}

Reports Collect(const Instruments& in) {
  Reports reports;
  Value snapshot = in.metrics.Snapshot();
  snapshot.AsMap()->erase("shards");  // shard counters differ by design
  reports.metrics = ValueToJson(snapshot);
  reports.monitor = ValueToJson(in.monitor.ToValue());
  reports.telemetry = in.telemetry.ToJson();
  reports.trace = TraceText(in.trace);
  reports.certificate = in.auditor.Digest().ToJson();
  return reports;
}

std::array<const std::string*, kReportCount> Named(const Reports& r) {
  return {&r.metrics, &r.monitor, &r.telemetry, &r.trace, &r.certificate};
}

constexpr const char* kNames[kReportCount] = {"metrics", "monitor", "telemetry",
                                              "trace", "certificate"};

ValueList Lines(int chain, int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("chain " + std::to_string(chain) + " line " +
                          std::to_string(i)));
  }
  return items;
}

std::vector<TransformFactory> CopyChain() {
  std::vector<TransformFactory> chain;
  for (int i = 0; i < 4; ++i) {
    chain.push_back([] { return std::make_unique<CopyTransform>(); });
  }
  return chain;
}

// Builds `chains` read-only chains of 4 copy filters, numbered from `first`.
std::vector<PipelineHandle> BuildChains(Kernel& kernel, int first, int chains) {
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  std::vector<PipelineHandle> handles;
  for (int p = first; p < first + chains; ++p) {
    options.partition_shard = p % 8;
    handles.push_back(BuildPipeline(kernel, Lines(p, 3), CopyChain(), options));
  }
  return handles;
}

void ExpectDelivered(const std::vector<PipelineHandle>& handles, int first) {
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_TRUE(handles[i].done()) << "chain " << first + static_cast<int>(i);
    EXPECT_EQ(handles[i].output(), Lines(first + static_cast<int>(i), 3))
        << "chain " << first + static_cast<int>(i);
  }
}

Reports RunWide(int shards) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  Instruments in;
  in.Install(kernel);
  std::vector<PipelineHandle> handles = BuildChains(kernel, 0, 64);
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(kernel.quiescent());
  ExpectDelivered(handles, 0);
  EXPECT_TRUE(in.monitor.ok()) << in.monitor.ToString();
  EXPECT_TRUE(in.auditor.ok()) << in.auditor.ToString();
  return Collect(in);
}

// Two runs with a re-partition between them. The source on `source_node`
// fills its work-ahead buffer in the first run with no reader attached; the
// sink created for the second run drains it, so the source's produced and
// served counts come from different runs (and, when sharded, from different
// shards: node 3 is shard 3 of 4, then shard 1 of 2).
Reports RunRepartitioned(int first_shards, int second_shards) {
  KernelOptions kernel_options;
  kernel_options.shards = first_shards;
  Kernel kernel(kernel_options);
  Instruments in;
  in.Install(kernel);
  NodeId sink_node = kernel.AddNode("sink");
  NodeId idle = kernel.AddNode("idle");
  NodeId source_node = kernel.AddNode("source");
  EXPECT_EQ(idle, 2);
  EXPECT_EQ(source_node, 3);
  VectorSource& source = kernel.Create<VectorSource>(source_node, Lines(-1, 10));
  std::vector<PipelineHandle> early = BuildChains(kernel, 0, 32);
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(kernel.quiescent());
  EXPECT_GT(source.produced_count(), 0u);
  EXPECT_LT(source.produced_count(), 10u);

  EXPECT_TRUE(kernel.set_shards(second_shards));
  PullSink& sink = kernel.Create<PullSink>(sink_node, source.uid(),
                                           Value(std::string(kChanOut)));
  std::vector<PipelineHandle> late = BuildChains(kernel, 32, 32);
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(kernel.quiescent());
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.items(), Lines(-1, 10));
  ExpectDelivered(early, 0);
  ExpectDelivered(late, 32);
  EXPECT_TRUE(in.monitor.violations().empty()) << in.monitor.ToString();
  EXPECT_TRUE(in.monitor.ok()) << in.monitor.ToString();
  EXPECT_TRUE(in.auditor.ok()) << in.auditor.ToString();
  return Collect(in);
}

void ExpectSame(const Reports& base, const Reports& run, const std::string& what) {
  auto b = Named(base);
  auto r = Named(run);
  for (size_t i = 0; i < kReportCount; ++i) {
    EXPECT_TRUE(*b[i] == *r[i]) << what << ": " << kNames[i] << " differs";
  }
}

void ExpectPinned(const Reports& reports, const Digests& pinned) {
  auto named = Named(reports);
  for (size_t i = 0; i < kReportCount; ++i) {
    EXPECT_EQ(Fnv1a(*named[i]), pinned[i])
        << kNames[i] << " changed; now:\n"
        << named[i]->substr(0, 4000);
  }
}

TEST(InstrumentPinTest, WideChainsAreShardCountInvariant) {
  const Reports base = RunWide(1);
  for (int shards : {2, 4, 8}) {
    ExpectSame(base, RunWide(shards), "shards=" + std::to_string(shards));
  }
  ExpectPinned(base, {0xf9a3f8c3661df212ULL, 0x63f65a092b20ab29ULL,
                      0x41f9371ab64c6ea9ULL, 0x9241ab9f958ee59bULL,
                      0xb7cd5564974cc807ULL});
}

TEST(InstrumentPinTest, RepartitionBetweenRunsKeepsFlowHistory) {
  const Reports base = RunRepartitioned(1, 1);
  ExpectSame(base, RunRepartitioned(4, 2), "shards 4 then 2");
  ExpectPinned(base, {0xdb7035c41bf4a5b3ULL, 0x9865be114f362f2aULL,
                      0x16dd582913b4b640ULL, 0x8b6b98356fc37b8fULL,
                      0x5bc05b5630e8d253ULL});
}

}  // namespace
}  // namespace eden

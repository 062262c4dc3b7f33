// Pins the metrics and monitor reports of the four figure pipelines over a
// run history that crosses every point where per-shard instrument tables
// could disagree with one another:
//   - a Kernel::Step loop before the first run;
//   - two consecutive runs;
//   - a stream-primitive call from the driver between them, outside any
//     event (a StreamServer::PutBack, which reports a queue depth and a
//     flow event);
//   - a set_shards re-partition before the second run, with the
//     instruments installed or, as the shell's toggles allow, not.
// At shards {1,2,4,8} (re-partitioned to {1,4,8,2}, and 4 to 2 with the
// instruments off meanwhile) the reports must be byte-identical to the
// 1-shard history's, minus the per-shard counters, and each text is pinned
// by digest. A side source carries its flow history and a last-value field,
// its work-ahead gauge, across the whole history: filled in the first run,
// grown by the driver's put-back, drained in the second run. Its node (2)
// changes shard at every re-partition, so its records change home tables.
//
// A second test pins when a violation found by a stream-primitive hook
// surfaces: in the monitor's trace sink at the end of the run that found
// it, before any monitor read.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/pipeline.h"
#include "src/core/stream.h"
#include "src/devices/devices.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/trace.h"
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

ValueList Lines(const std::string& tag, int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value(tag + " line " + std::to_string(i)));
  }
  return items;
}

std::vector<TransformFactory> CopyChain(size_t n) {
  std::vector<TransformFactory> chain;
  for (size_t i = 0; i < n; ++i) {
    chain.push_back([] { return std::make_unique<CopyTransform>(); });
  }
  return chain;
}

// Builds one copy of figure `figure` (1-4) on fresh nodes and returns the
// predicate that says it has delivered everything. Figures 1-3 are the
// three BuildPipeline disciplines; figure 4 is read-only with report
// channels into a ReportWindow.
std::function<bool()> BuildFigure(Kernel& kernel, int figure,
                                  const std::string& tag) {
  constexpr int kItems = 40;
  if (figure <= 3) {
    static constexpr Discipline kDisciplines[] = {
        Discipline::kConventional, Discipline::kReadOnly, Discipline::kWriteOnly};
    PipelineOptions options;
    options.discipline = kDisciplines[figure - 1];
    options.distinct_nodes = true;
    auto handle = std::make_shared<PipelineHandle>(
        BuildPipeline(kernel, Lines(tag, kItems), CopyChain(3), options));
    return [handle] { return handle->done(); };
  }
  constexpr int kReportEvery = 10;
  VectorSource::Options source_options;
  source_options.report_every = kReportEvery;
  VectorSource& source = kernel.Create<VectorSource>(
      kernel.AddNode(tag + "-source"), Lines(tag, kItems), source_options);
  ReadOnlyFilter::Options f1_options;
  f1_options.source = source.uid();
  ReadOnlyFilter& f1 = kernel.Create<ReadOnlyFilter>(
      kernel.AddNode(tag + "-f1"),
      std::make_unique<ReportingTransform>(std::make_unique<CopyTransform>(),
                                           kReportEvery),
      f1_options);
  ReadOnlyFilter::Options f2_options;
  f2_options.source = f1.uid();
  ReadOnlyFilter& f2 = kernel.Create<ReadOnlyFilter>(
      kernel.AddNode(tag + "-f2"), std::make_unique<CopyTransform>(), f2_options);
  PullSink& sink = kernel.Create<PullSink>(kernel.AddNode(tag + "-sink"), f2.uid(),
                                           Value(std::string(kChanOut)));
  ReportWindow& window = kernel.Create<ReportWindow>(kernel.AddNode(tag + "-window"));
  window.Attach(source.uid(), Value(std::string(kChanReport)), "source");
  window.Attach(f1.uid(), Value(std::string(kChanReport)), "F1");
  return [&sink, &window] { return sink.done() && window.idle(); };
}

// The four reports, each as one text.
struct Reports {
  std::string metrics_json;
  std::string metrics_text;
  std::string monitor_value;
  std::string monitor_check;
};

constexpr size_t kReportCount = 4;
using Digests = std::array<uint64_t, kReportCount>;

std::array<const std::string*, kReportCount> Named(const Reports& r) {
  return {&r.metrics_json, &r.metrics_text, &r.monitor_value, &r.monitor_check};
}

constexpr const char* kNames[kReportCount] = {"metrics ToJson", "metrics ToString",
                                              "monitor ToValue", "monitor Check"};

// The per-shard counters differ by shard count by design; everything else
// the registry reports must not.
std::string WithoutShardLines(const std::string& text) {
  std::string out;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    end = end == std::string::npos ? text.size() : end + 1;
    std::string_view line(text.data() + begin, end - begin);
    if (line.rfind("shard ", 0) != 0) {
      out.append(line);
    }
    begin = end;
  }
  return out;
}

Reports Collect(const MetricsRegistry& metrics, const InvariantMonitor& monitor) {
  Reports reports;
  Value snapshot = metrics.Snapshot();
  snapshot.AsMap()->erase("shards");
  reports.metrics_json = ValueToJson(snapshot);
  reports.metrics_text = WithoutShardLines(metrics.ToString());
  reports.monitor_value = ValueToJson(monitor.ToValue());
  for (const InvariantMonitor::Violation& v : monitor.Check()) {
    reports.monitor_check += std::to_string(static_cast<int>(v.kind)) + " " +
                             std::to_string(v.at) + " " + v.stage.ToString() +
                             " " + v.detail + "\n";
  }
  return reports;
}

// One history of figure `figure`: `shards` workers for the Step loop and
// the first run, `reshards` for the second. With `reinstall` the
// instruments are uninstalled across the re-partition.
Reports RunHistory(int figure, int shards, int reshards, bool reinstall = false) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  MetricsRegistry metrics;
  InvariantMonitor monitor;
  kernel.set_metrics(&metrics);
  kernel.set_monitor(&monitor);

  // No reader in the first run: the side source fills its work-ahead
  // buffer and blocks there.
  kernel.AddNode("idle");
  NodeId side_node = kernel.AddNode("side");
  EXPECT_EQ(side_node, 2);
  VectorSource& side = kernel.Create<VectorSource>(side_node, Lines("side", 10));
  std::function<bool()> first = BuildFigure(kernel, figure, "first");
  for (int i = 0; i < 150 && kernel.Step(); ++i) {
  }
  EXPECT_TRUE(kernel.RunUntil(first));
  EXPECT_TRUE(kernel.Run());
  const uint64_t filled = side.produced_count();
  EXPECT_GT(filled, 0u);
  EXPECT_LT(filled, 10u);

  // From the driver, outside any event.
  side.server().PutBack(kChanOut, Value(std::string("side put back")));
  if (reinstall) {
    kernel.set_metrics(nullptr);
    kernel.set_monitor(nullptr);
  }
  EXPECT_TRUE(kernel.set_shards(reshards));
  if (reinstall) {
    kernel.set_metrics(&metrics);
    kernel.set_monitor(&monitor);
  }

  PullSink& drain = kernel.Create<PullSink>(kernel.AddNode("drain"), side.uid(),
                                            Value(std::string(kChanOut)));
  std::function<bool()> second = BuildFigure(kernel, figure, "second");
  EXPECT_TRUE(kernel.RunUntil(second));
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(drain.done());
  EXPECT_EQ(drain.items().size(), 11u);
  EXPECT_TRUE(monitor.ok()) << monitor.ToString();
  const MetricsRegistry::QueueGauge* gauge = metrics.QueueFor("server", side.uid());
  EXPECT_NE(gauge, nullptr);
  if (gauge != nullptr) {
    EXPECT_EQ(gauge->depth, 0u);  // the last sample: drained in the second run
    EXPECT_EQ(gauge->high_water, filled + 1);  // the put-back's sample
  }
  return Collect(metrics, monitor);
}

void ExpectFigurePinned(int figure, const Digests& pinned) {
  const Reports base = RunHistory(figure, 1, 1);
  struct Partition {
    int shards;
    int reshards;
    bool reinstall;
  };
  const Partition partitions[] = {{2, 4, false}, {4, 8, false}, {8, 2, false}, {4, 2, true}};
  for (const auto& [shards, reshards, reinstall] : partitions) {
    const Reports run = RunHistory(figure, shards, reshards, reinstall);
    auto b = Named(base);
    auto r = Named(run);
    for (size_t i = 0; i < kReportCount; ++i) {
      EXPECT_TRUE(*b[i] == *r[i])
          << "fig" << figure << " shards " << shards << " then " << reshards
          << (reinstall ? " (reinstalled)" : "") << ": " << kNames[i]
          << " differs from the 1-shard history";
    }
  }
  auto named = Named(base);
  for (size_t i = 0; i < kReportCount; ++i) {
    EXPECT_EQ(Fnv1a(*named[i]), pinned[i])
        << "fig" << figure << " " << kNames[i] << " changed; now:\n"
        << named[i]->substr(0, 4000);
  }
}

TEST(InstrumentHistoryTest, Figure1ReportsMatchAcrossShards) {
  ExpectFigurePinned(1, {0x584c0d45dc507e35ULL, 0xc31fd508146901c3ULL,
                          0x42f416ed8355304dULL, 0xcbf29ce484222325ULL});
}

TEST(InstrumentHistoryTest, Figure2ReportsMatchAcrossShards) {
  ExpectFigurePinned(2, {0xb3d50824a7148962ULL, 0xc5834a80c13ce02bULL,
                          0x6fb0f95d4d2eb998ULL, 0xcbf29ce484222325ULL});
}

TEST(InstrumentHistoryTest, Figure3ReportsMatchAcrossShards) {
  ExpectFigurePinned(3, {0x7cc11bf65b87068bULL, 0x64a383ae6f9c201fULL,
                          0xcb7553fbf034c3b0ULL, 0xcbf29ce484222325ULL});
}

TEST(InstrumentHistoryTest, Figure4ReportsMatchAcrossShards) {
  ExpectFigurePinned(4, {0x12ae893eec78eccfULL, 0x692e406f3087c77bULL,
                          0xdb3a0192fbadd054ULL, 0xcbf29ce484222325ULL});
}

// Reports, on "Serve", one item served that the stage never produced: the
// served > produced flow a stream-primitive hook catches inline.
class Overserver : public Eject {
 public:
  explicit Overserver(Kernel& host) : Eject(host, "Overserver") {
    Register("Serve", [this](InvocationContext ctx) {
      kernel().ObserveItems(ItemFlow::kServed, *this, 1);
      ctx.Reply();
    });
  }
};

TEST(InstrumentHistoryTest, HookViolationReachesTheSinkWhenTheRunEnds) {
  KernelOptions options;
  options.shards = 4;
  Kernel kernel(options);
  TraceRecorder recorder;
  InvariantMonitor monitor;
  monitor.set_trace_sink(recorder.Hook());
  kernel.set_monitor(&monitor);
  NodeId node = 0;
  for (int i = 1; i <= 3; ++i) {
    node = kernel.AddNode("n" + std::to_string(i));
  }
  ASSERT_EQ(kernel.ShardOf(node), 3);  // found on a worker, not the driver
  const Uid stage = kernel.Create<Overserver>(node).uid();
  kernel.ExternalInvoke(stage, "Serve", Value(), [](InvokeResult) {});
  ASSERT_TRUE(kernel.Run());

  // No monitor read has happened yet: the run's end alone emitted it. The
  // recorder is only the monitor's sink, so it holds nothing else.
  ASSERT_EQ(recorder.size(), 1u);
  const TraceEvent& event = recorder.events().front();
  EXPECT_EQ(event.kind, TraceEvent::Kind::kViolation);
  EXPECT_EQ(event.from, stage);
  EXPECT_NE(event.op.find("flow-conservation"), std::string::npos) << event.op;

  // A read lists it once and emits nothing more.
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].stage, stage);
  EXPECT_EQ(recorder.size(), 1u);
}

}  // namespace
}  // namespace eden

// Pins the stream layer's observable facts on four runs that between them
// drive every stream end: a Figure 1 conventional pipeline, the Figure 3
// write-only topology with report streams, an overload run (watermarks,
// put-back, control band through an acceptor, a server and a pipe) and
// sequenced recovery runs with a crash and message loss in every discipline.
//
// For each run the test digests the sink output, the kernel Stats, the
// InvariantMonitor export (flows and band flows), the MetricsRegistry queue
// and flow sections, the telemetry JSON and the trace. A refactor of the
// stream ends must leave every digest unchanged: instrument reports keep
// their count and order. On a mismatch the message shows the new text.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/pipeline.h"
#include "src/core/stream_acceptor.h"
#include "src/core/stream_server.h"
#include "src/core/stream_writer.h"
#include "src/eden/fault.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/telemetry.h"
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

// Every instrument installed, so each report path runs.
struct Instruments {
  MetricsRegistry metrics;
  InvariantMonitor monitor;
  TelemetrySampler telemetry;
  TraceRecorder trace;

  void Install(Kernel& kernel) {
    kernel.set_metrics(&metrics);
    kernel.set_monitor(&monitor);
    kernel.set_telemetry(&telemetry);
    kernel.set_tracer(trace.Hook());
  }
  void Label(const Uid& uid, const std::string& name) {
    metrics.Label(uid, name);
    monitor.Label(uid, name);
    telemetry.Label(uid, name);
    trace.Label(uid, name);
  }
};

struct Facts {
  std::string output;
  std::string stats;
  std::string monitor;
  std::string queues;
  std::string flow;
  std::string telemetry;
  std::string trace;
};

std::string TraceText(const TraceRecorder& trace) {
  std::string text;
  for (const TraceEvent& e : trace.events()) {
    text += std::to_string(static_cast<int>(e.kind)) + " " +
            std::to_string(e.at) + " " + trace.NameOf(e.from) + " " +
            trace.NameOf(e.to) + " " + e.op + " " + std::to_string(e.id) +
            " " + std::to_string(e.parent) + " " + (e.ok ? "ok" : "fail") +
            "\n";
  }
  return text;
}

Facts Collect(const Kernel& kernel, const Instruments& instruments,
              const ValueList& output) {
  Value snapshot = instruments.metrics.Snapshot();
  Facts facts;
  facts.output = ValueToJson(Value(output));
  facts.stats = ValueToJson(kernel.stats().ToValue());
  facts.monitor = ValueToJson(instruments.monitor.ToValue());
  facts.queues = ValueToJson(snapshot.Field("queues"));
  facts.flow = ValueToJson(snapshot.Field("flow"));
  facts.telemetry = instruments.telemetry.ToJson();
  facts.trace = TraceText(instruments.trace);
  return facts;
}

ValueList NumberedLines(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("line " + std::to_string(i)));
  }
  return items;
}

// ----------------------------------------------------------------- Figure 1

Facts RunFigure1() {
  Kernel kernel;
  Instruments instruments;
  instruments.Install(kernel);
  PipelineOptions options;
  options.discipline = Discipline::kConventional;
  options.pipe_capacity = 3;
  options.processing_cost = 40;
  std::vector<TransformFactory> stages = {
      [] { return std::make_unique<GrepTransform>("1"); },
      [] { return std::make_unique<LineNumberTransform>(); },
  };
  PipelineHandle handle =
      BuildPipeline(kernel, NumberedLines(40), stages, options);
  for (size_t i = 0; i < handle.ejects.size(); ++i) {
    instruments.Label(handle.ejects[i], handle.stage_names[i]);
  }
  EXPECT_TRUE(kernel.RunUntil([&handle] { return handle.done(); }));
  kernel.Run();
  return Collect(kernel, instruments, handle.output());
}

// ----------------------------------------------------------------- Figure 3

Facts RunFigure3() {
  Kernel kernel;
  Instruments instruments;
  instruments.Install(kernel);
  PushSource::Options source_options;
  source_options.report_every = 4;
  PushSource& source =
      kernel.CreateLocal<PushSource>(NumberedLines(24), source_options);
  WriteOnlyFilter& f1 = kernel.CreateLocal<WriteOnlyFilter>(
      std::make_unique<ReportingTransform>(
          std::make_unique<GrepTransform>("line"), 6));
  WriteOnlyFilter& f2 = kernel.CreateLocal<WriteOnlyFilter>(
      std::make_unique<LineNumberTransform>());
  PushSink::Options sink_options;
  sink_options.hiwat = 2;
  PushSink& sink = kernel.CreateLocal<PushSink>(sink_options);
  PushSink& window = kernel.CreateLocal<PushSink>();
  instruments.Label(source.uid(), "source");
  instruments.Label(f1.uid(), "filter1");
  instruments.Label(f2.uid(), "filter2");
  instruments.Label(sink.uid(), "sink");
  instruments.Label(window.uid(), "window");
  f2.BindOutput(std::string(kChanOut), sink.uid(), Value(std::string(kChanIn)));
  f1.BindOutput(std::string(kChanOut), f2.uid(), Value(std::string(kChanIn)));
  f1.BindOutput(std::string(kChanReport), window.uid(),
                Value(std::string(kChanIn)));
  source.BindOutput(f1.uid(), Value(std::string(kChanIn)));
  source.BindReport(window.uid(), Value(std::string(kChanIn)));
  EXPECT_TRUE(kernel.RunUntil([&] { return sink.done(); }));
  kernel.Run(100000);
  ValueList output = sink.items();
  output.insert(output.end(), window.items().begin(), window.items().end());
  return Collect(kernel, instruments, output);
}

// ----------------------------------------------------------------- Overload

// Writes `count` data items, slipping a control item in every `control_every`.
class BandedProducer : public Eject {
 public:
  BandedProducer(Kernel& kernel, Uid sink, int count, int control_every)
      : Eject(kernel, "BandedProducer"),
        writer_(*this, sink, Value(std::string(kChanIn)), WriterOptions()),
        count_(count),
        control_every_(control_every) {}

  void OnStart() override { Spawn(Produce()); }

 private:
  static StreamWriter::Options WriterOptions() {
    StreamWriter::Options options;
    options.batch = 2;
    return options;
  }
  Task<void> Produce() {
    for (int i = 0; i < count_; ++i) {
      co_await writer_.Write(Value(int64_t{i}));
      if (i % control_every_ == control_every_ - 1) {
        co_await writer_.WriteControl(Value("ctl " + std::to_string(i)));
      }
    }
    co_await writer_.End();
  }

  StreamWriter writer_;
  int count_;
  int control_every_;
};

// Passive input to passive output with a slow middle: takes on either band,
// puts every fifth take back (and retakes it after a pause), and forwards
// each item on the band it arrived on.
class PutBackRelay : public Eject {
 public:
  explicit PutBackRelay(Kernel& kernel)
      : Eject(kernel, "PutBackRelay"), acceptor_(*this), server_(*this) {
    ChannelOptions in;
    in.hiwat = 4;
    in.lowat = 2;
    acceptor_.DeclareChannel(std::string(kChanIn), in);
    acceptor_.InstallOps();
    ChannelOptions out;
    out.hiwat = 3;
    out.lowat = 1;
    server_.DeclareChannel(std::string(kChanOut), out);
    server_.InstallOps();
  }

  void OnStart() override { Spawn(Relay()); }

 private:
  Task<void> Relay() {
    for (int takes = 1;; ++takes) {
      std::optional<StreamAcceptor::Taken> taken =
          co_await acceptor_.Take(kChanIn);
      if (!taken) {
        break;
      }
      if (takes % 5 == 0) {
        acceptor_.PutBack(kChanIn, std::move(taken->item), taken->band);
        co_await Sleep(30);
        continue;
      }
      co_await Sleep(60);
      co_await server_.Write(kChanOut, std::move(taken->item), taken->band);
    }
    server_.CloseAll();
  }

  StreamAcceptor acceptor_;
  StreamServer server_;
};

Facts RunOverload() {
  Kernel kernel;
  Instruments instruments;
  instruments.Install(kernel);
  PutBackRelay& relay = kernel.CreateLocal<PutBackRelay>();
  BandedProducer& producer =
      kernel.CreateLocal<BandedProducer>(relay.uid(), 30, 7);
  PullSink& relay_sink =
      kernel.CreateLocal<PullSink>(relay.uid(), Value(std::string(kChanOut)));
  PassiveBuffer::Options pipe_options;
  pipe_options.hiwat = 3;
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>(pipe_options);
  BandedProducer& pipe_producer =
      kernel.CreateLocal<BandedProducer>(pipe.uid(), 30, 5);
  PullSink::Options pipe_sink_options;
  pipe_sink_options.batch = 2;
  PullSink& pipe_sink = kernel.CreateLocal<PullSink>(
      pipe.uid(), Value(std::string(kChanOut)), pipe_sink_options);
  instruments.Label(relay.uid(), "relay");
  instruments.Label(producer.uid(), "producer");
  instruments.Label(relay_sink.uid(), "relay_sink");
  instruments.Label(pipe.uid(), "pipe");
  instruments.Label(pipe_producer.uid(), "pipe_producer");
  instruments.Label(pipe_sink.uid(), "pipe_sink");
  EXPECT_TRUE(kernel.RunUntil(
      [&] { return relay_sink.done() && pipe_sink.done(); }));
  kernel.Run();
  ValueList output = relay_sink.items();
  output.insert(output.end(), pipe_sink.items().begin(),
                pipe_sink.items().end());
  return Collect(kernel, instruments, output);
}

// ----------------------------------------------------------------- Recovery

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

Facts RunRecovery(Discipline discipline) {
  Kernel kernel;
  Instruments instruments;
  instruments.Install(kernel);
  FaultPlan plan;
  plan.drop_invocation = 0.02;
  plan.drop_reply = 0.02;
  FaultInjector injector(plan);
  kernel.set_fault_injector(&injector);
  PipelineOptions options;
  options.discipline = discipline;
  options.processing_cost = 20;
  options.recovery.enabled = true;
  options.recovery.checkpoint_every = 8;
  ValueList input;
  for (int64_t i = 0; i < 60; ++i) {
    input.push_back(Value(i));
  }
  std::vector<TransformFactory> stages = {
      MakeTransformFactory<RunningSum>(),
      [] { return std::make_unique<CopyTransform>(); },
  };
  PipelineHandle handle = BuildPipeline(kernel, input, stages, options);
  for (size_t i = 0; i < handle.ejects.size(); ++i) {
    instruments.Label(handle.ejects[i], handle.stage_names[i]);
  }
  // The stateful filter: conventional interposes a pipe ahead of it.
  Uid victim = discipline == Discipline::kConventional ? handle.ejects[2]
                                                       : handle.ejects[1];
  injector.ScheduleCrash(kernel, Tick{12'000}, victim);
  EXPECT_TRUE(kernel.RunUntil([&handle] { return handle.done(); }));
  EXPECT_EQ(kernel.stats().crashes, 1u);
  return Collect(kernel, instruments, handle.output());
}

// ---------------------------------------------------------------- The pins

// Digests, in order, of: output, stats, monitor, queues, flow, telemetry,
// trace.
using Digests = std::array<uint64_t, 7>;

void ExpectPinned(const char* run, const Facts& facts, const Digests& pinned) {
  const std::pair<const char*, const std::string*> named[] = {
      {"output", &facts.output},   {"stats", &facts.stats},
      {"monitor", &facts.monitor}, {"queues", &facts.queues},
      {"flow", &facts.flow},       {"telemetry", &facts.telemetry},
      {"trace", &facts.trace},
  };
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(Fnv1a(*named[i].second), pinned[i])
        << run << " " << named[i].first << " changed; now:\n"
        << named[i].second->substr(0, 4000);
  }
}

TEST(StreamPinTest, Figure1Conventional) {
  ExpectPinned("fig1", RunFigure1(),
               {0x76150eca2e22801dULL, 0x9e00cde630524164ULL,
                0xb04700afac9ae18bULL, 0xebe538d8e9b269bbULL,
                0xbee0ff16422fd2feULL, 0xd1c597061d9f74fcULL,
                0x7631a4dc6f4f046fULL});
}

TEST(StreamPinTest, Figure3WriteOnlyWithReports) {
  ExpectPinned("fig3", RunFigure3(),
               {0xea2039fa845e9c53ULL, 0x7092ab0eb89af8f0ULL,
                0xe93d5909737e8b68ULL, 0x4ce020aada33859dULL,
                0x5b9bc4ba528108e4ULL, 0x0dad5a71a91280eeULL,
                0xa0372c6c2e518d9fULL});
}

TEST(StreamPinTest, OverloadWithPutBackAndControlBand) {
  ExpectPinned("overload", RunOverload(),
               {0xe1b2b3145340a06fULL, 0xce8416c81ddf4abaULL,
                0x31a47b3de45e1038ULL, 0x79b2a858e0b610adULL,
                0xe771a5f58032d67dULL, 0xd06659dcb7b03d06ULL,
                0x12fac43c1f34f450ULL});
}

TEST(StreamPinTest, SequencedRecoveryWithCrash) {
  ExpectPinned("recovery/read-only", RunRecovery(Discipline::kReadOnly),
               {0xed493535cfeb2839ULL, 0x390db42c96a1c7deULL,
                0x3a527627a31c51bcULL, 0xc78be6d15967fa54ULL,
                0x9e5b2eb0f0348639ULL, 0x65ed7534fce859acULL,
                0x8c96a4df5dbc25bdULL});
  ExpectPinned("recovery/write-only", RunRecovery(Discipline::kWriteOnly),
               {0xed493535cfeb2839ULL, 0x6148e7b05c236e15ULL,
                0xef05cb149fe8dfdeULL, 0x0e12e584ecd8609dULL,
                0x4757e3329e881d55ULL, 0x8ff7c598631d9e89ULL,
                0x983d9977445394c4ULL});
  ExpectPinned("recovery/conventional", RunRecovery(Discipline::kConventional),
               {0xed493535cfeb2839ULL, 0x5244630ef69bf2bfULL,
                0x2554f4f5c8037678ULL, 0x13bf55d5219a2963ULL,
                0x88d227b47e9a63aeULL, 0x063111cc0534fefdULL,
                0x47d287a18c09a69eULL});
}

}  // namespace
}  // namespace eden

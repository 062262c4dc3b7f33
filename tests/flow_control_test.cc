// Flow-control tests: watermark boundaries and hysteresis on both passive
// ends (acceptor withholding, server blocking), canput/putbq semantics,
// priority-band overtaking, deferred service coalescing, and overload runs
// in every discipline proving that a saturated pipeline loses nothing and
// that output content is invariant under any watermark setting.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/passive_buffer.h"
#include "src/core/pipeline.h"
#include "src/core/stream.h"
#include "src/core/stream_acceptor.h"
#include "src/core/stream_server.h"
#include "src/core/stream_writer.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"

namespace eden {
namespace {

ValueList Items(size_t n) {
  ValueList input;
  for (size_t i = 0; i < n; ++i) {
    input.push_back(Value(static_cast<int64_t>(i)));
  }
  return input;
}

std::vector<TransformFactory> Copies(size_t n) {
  std::vector<TransformFactory> chain;
  for (size_t i = 0; i < n; ++i) {
    chain.push_back([] {
      return std::make_unique<LambdaTransform>(
          "copy", [](const Value& v, const Transform::EmitFn& emit) {
            emit(kChanOut, v);
          });
    });
  }
  return chain;
}

// ------------------------------------------------------------- FlowLimits

TEST(FlowLimitsTest, ResolveDerivesAndClampsLowat) {
  // Zero lowat derives as hiwat/2...
  EXPECT_EQ(FlowLimits::Resolve(8, 0).lowat, 4u);
  EXPECT_EQ(FlowLimits::Resolve(8, 0).hiwat, 8u);
  // ...but never derives to zero while hiwat is positive.
  EXPECT_EQ(FlowLimits::Resolve(1, 0).lowat, 1u);
  // hiwat 0 (pure laziness) forces lowat 0.
  EXPECT_EQ(FlowLimits::Resolve(0, 5).lowat, 0u);
  // An explicit lowat above hiwat clamps down (the linter flags it too).
  EXPECT_EQ(FlowLimits::Resolve(4, 9).lowat, 4u);
  // An explicit sane lowat passes through.
  EXPECT_EQ(FlowLimits::Resolve(10, 3).lowat, 3u);
}

// ------------------------------------------------- StreamAcceptor watermarks

// Bare Eject hosting a StreamAcceptor we drain by hand.
class ManualSink : public Eject {
 public:
  explicit ManualSink(Kernel& kernel,
                      ChannelOptions options = {})
      : Eject(kernel, "ManualSink"), acceptor(*this) {
    acceptor.DeclareChannel(std::string(kChanIn), options);
    acceptor.InstallOps();
  }

  void TakeOne() { Spawn(DoTake()); }

  std::vector<StreamAcceptor::Taken> taken;
  StreamAcceptor acceptor;

 private:
  Task<void> DoTake() {
    std::optional<StreamAcceptor::Taken> t = co_await acceptor.Take(kChanIn);
    if (t) {
      taken.push_back(std::move(*t));
    }
  }
};

// One data-band push of one item, counting the (possibly withheld) reply.
void PushOne(Kernel& kernel, ManualSink& sink, Value item, int& acked,
             Band band = Band::kData) {
  kernel.ExternalInvoke(
      sink.uid(), "Push",
      PushArgs{Value(std::string(kChanIn)), {std::move(item)}, false, band},
      [&acked](InvokeResult r) {
        EXPECT_TRUE(r.ok());
        acked++;
      });
}

TEST(AcceptorFlowTest, WithholdsExactlyAtHiwat) {
  // The seed disagreed with itself about the boundary (acceptor withheld at
  // depth > capacity, server parked at >= capacity). This pins the unified
  // rule: the reply that *reaches* hiwat is the first one withheld.
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 4;
  options.lowat = 2;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(options);
  int acked = 0;
  for (int i = 0; i < 4; ++i) {
    PushOne(kernel, sink, Value(int64_t{i}), acked);
  }
  kernel.Run();
  // Depths after each push: 1, 2, 3, 4. Only the fourth reached hiwat.
  EXPECT_EQ(acked, 3);
  EXPECT_EQ(sink.acceptor.buffered(kChanIn), 4u);
}

TEST(AcceptorFlowTest, ReleasesOnlyBelowLowat) {
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 4;
  options.lowat = 2;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(options);
  int acked = 0;
  for (int i = 0; i < 4; ++i) {
    PushOne(kernel, sink, Value(int64_t{i}), acked);
  }
  kernel.Run();
  ASSERT_EQ(acked, 3);

  // Hysteresis: draining to lowat is not enough — the withheld reply stays
  // withheld until the queue is strictly *below* lowat.
  sink.TakeOne();  // depth 3
  kernel.Run();
  EXPECT_EQ(acked, 3);
  sink.TakeOne();  // depth 2 == lowat: still withheld
  kernel.Run();
  EXPECT_EQ(acked, 3);
  sink.TakeOne();  // depth 1 < lowat: released
  kernel.Run();
  EXPECT_EQ(acked, 4);
}

TEST(AcceptorFlowTest, HiwatAloneDerivesLowat) {
  // hiwat alone (no explicit lowat) resolves to lowat = hiwat / 2.
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 8;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(options);
  EXPECT_EQ(sink.acceptor.limits(kChanIn).hiwat, 8u);
  EXPECT_EQ(sink.acceptor.limits(kChanIn).lowat, 4u);
}

TEST(AcceptorFlowTest, EndReleasesWithheldRepliesImmediately) {
  // The end-vs-drain race: a producer whose reply is withheld must not hang
  // once the stream ends — end short-circuits the lowat rule.
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 2;
  options.lowat = 1;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(options);
  int acked = 0;
  for (int i = 0; i < 3; ++i) {
    PushOne(kernel, sink, Value(int64_t{i}), acked);
  }
  kernel.Run();
  EXPECT_EQ(acked, 1);  // pushes 2 and 3 withheld (depth 2 then joined queue)

  kernel.ExternalInvoke(
      sink.uid(), "Push",
      PushArgs{Value(std::string(kChanIn)), {}, /*end=*/true},
      [&acked](InvokeResult r) {
        EXPECT_TRUE(r.ok());
        acked++;
      });
  kernel.Run();
  // All three withheld replies (two data + the end) answered without any
  // consumer draining a single item.
  EXPECT_EQ(acked, 4);
  EXPECT_EQ(sink.acceptor.buffered(kChanIn), 3u);
}

TEST(AcceptorFlowTest, ControlBandIsNeverWithheldAndOvertakes) {
  Kernel kernel;
  MetricsRegistry metrics;
  kernel.set_metrics(&metrics);
  ChannelOptions options;
  options.hiwat = 2;
  options.lowat = 1;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(options);
  int acked = 0;
  for (int i = 0; i < 3; ++i) {
    PushOne(kernel, sink, Value(int64_t{i}), acked);
  }
  kernel.Run();
  ASSERT_EQ(acked, 1);  // data band saturated

  // A control push sails through the saturated queue, reply unwithheld.
  PushOne(kernel, sink, Value(std::string("ctl")), acked, Band::kControl);
  kernel.Run();
  EXPECT_EQ(acked, 2);

  // And Take serves it ahead of the three queued data items.
  sink.TakeOne();
  kernel.Run();
  ASSERT_EQ(sink.taken.size(), 1u);
  EXPECT_EQ(sink.taken[0].band, Band::kControl);
  EXPECT_EQ(sink.taken[0].item.StrOr(""), "ctl");
  const MetricsRegistry::FlowCounters* flow =
      metrics.FlowFor("acceptor", sink.uid());
  ASSERT_NE(flow, nullptr);
  EXPECT_GE(flow->band_overtakes, 1u);
  EXPECT_GE(flow->hiwat_hits, 1u);

  // Data order is untouched underneath.
  sink.TakeOne();
  kernel.Run();
  ASSERT_EQ(sink.taken.size(), 2u);
  EXPECT_EQ(sink.taken[1].band, Band::kData);
  EXPECT_EQ(sink.taken[1].item.IntOr(-1), 0);
}

TEST(AcceptorFlowTest, PutBackPreservesOrderWithinBand) {
  Kernel kernel;
  MetricsRegistry metrics;
  kernel.set_metrics(&metrics);
  ChannelOptions options;
  options.hiwat = 16;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(options);
  int acked = 0;
  for (int i = 0; i < 3; ++i) {
    PushOne(kernel, sink, Value(int64_t{i}), acked);
  }
  kernel.Run();

  sink.TakeOne();
  kernel.Run();
  ASSERT_EQ(sink.taken.size(), 1u);
  ASSERT_EQ(sink.taken[0].item.IntOr(-1), 0);

  // putbq: the returned item goes to the *front* of its band, so the next
  // consumer round sees the stream exactly as before the aborted take.
  sink.acceptor.PutBack(kChanIn, sink.taken[0].item);
  sink.taken.clear();
  for (int i = 0; i < 3; ++i) {
    sink.TakeOne();
  }
  kernel.Run();
  ASSERT_EQ(sink.taken.size(), 3u);
  EXPECT_EQ(sink.taken[0].item.IntOr(-1), 0);
  EXPECT_EQ(sink.taken[1].item.IntOr(-1), 1);
  EXPECT_EQ(sink.taken[2].item.IntOr(-1), 2);
  const MetricsRegistry::FlowCounters* flow =
      metrics.FlowFor("acceptor", sink.uid());
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->putbacks, 1u);
}

TEST(AcceptorFlowTest, CanPutTracksWatermarkAndBand) {
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 2;
  options.lowat = 1;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(options);
  int acked = 0;
  EXPECT_TRUE(sink.acceptor.CanPut(kChanIn));
  PushOne(kernel, sink, Value(int64_t{0}), acked);
  kernel.Run();
  EXPECT_TRUE(sink.acceptor.CanPut(kChanIn));
  PushOne(kernel, sink, Value(int64_t{1}), acked);
  kernel.Run();
  // Depth 2 == hiwat: a data push would be withheld; control always admits.
  EXPECT_FALSE(sink.acceptor.CanPut(kChanIn));
  EXPECT_TRUE(sink.acceptor.CanPut(kChanIn, Band::kControl));
}

// --------------------------------------------------- StreamServer watermarks

// Bare Eject hosting a StreamServer with a hand-driven producer loop.
class ManualSource : public Eject {
 public:
  explicit ManualSource(Kernel& kernel,
                        ChannelOptions options = {})
      : Eject(kernel, "ManualSource"), server(*this) {
    server.DeclareChannel(std::string(kChanOut), options);
    server.InstallOps();
  }

  void ProduceUpTo(int n) { Spawn(Loop(n)); }
  void ProduceControl(Value item) { Spawn(OneControl(std::move(item))); }

  int written = 0;
  StreamServer server;

 private:
  Task<void> Loop(int n) {
    for (int i = 0; i < n; ++i) {
      co_await server.Write(kChanOut, Value(int64_t{i}));
      written++;
    }
    server.Close(std::string(kChanOut));
  }
  Task<void> OneControl(Value item) {
    co_await server.Write(kChanOut, std::move(item), Band::kControl);
  }
};

InvokeResult TransferN(Kernel& kernel, const ManualSource& source, int n) {
  return kernel.InvokeAndRun(
      source.uid(), "Transfer",
      TransferArgs{Value(std::string(kChanOut)), n});
}

TEST(ServerFlowTest, BlocksAtHiwatAndResumesBelowLowat) {
  Kernel kernel;
  MetricsRegistry metrics;
  kernel.set_metrics(&metrics);
  ChannelOptions options;
  options.hiwat = 4;
  options.lowat = 2;
  ManualSource& source = kernel.CreateLocal<ManualSource>(options);
  source.ProduceUpTo(20);
  kernel.Run();
  // Work-ahead fills to hiwat, then the producer parks.
  EXPECT_EQ(source.written, 4);
  EXPECT_EQ(source.server.buffered(kChanOut), 4u);

  // Hysteresis: one-item drains at depth 4 and 3 do not wake it...
  ASSERT_TRUE(TransferN(kernel, source, 1).ok());  // depth 3
  EXPECT_EQ(source.written, 4);
  ASSERT_TRUE(TransferN(kernel, source, 1).ok());  // depth 2 == lowat
  EXPECT_EQ(source.written, 4);
  // ...only dropping *below* lowat does, and then it refills to hiwat in
  // one wakeup instead of once per item.
  ASSERT_TRUE(TransferN(kernel, source, 1).ok());  // depth 1 < lowat
  EXPECT_EQ(source.written, 7);
  EXPECT_EQ(source.server.buffered(kChanOut), 4u);

  // Two saturation episodes, each counted once (the latch, not per retry).
  const MetricsRegistry::FlowCounters* flow =
      metrics.FlowFor("server", source.uid());
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->hiwat_hits, 2u);
}

TEST(ServerFlowTest, CanPutMirrorsTheBlockingRule) {
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 2;
  options.lowat = 1;
  ManualSource& source = kernel.CreateLocal<ManualSource>(options);
  EXPECT_TRUE(source.server.CanPut(kChanOut));
  source.ProduceUpTo(10);
  kernel.Run();
  ASSERT_EQ(source.written, 2);
  EXPECT_FALSE(source.server.CanPut(kChanOut));
  // Control is exempt from the producer-side watermark too.
  EXPECT_TRUE(source.server.CanPut(kChanOut, Band::kControl));
}

TEST(ServerFlowTest, ControlWriteBypassesFlowControlAndLeadsTheBatch) {
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 2;
  options.lowat = 1;
  ManualSource& source = kernel.CreateLocal<ManualSource>(options);
  source.ProduceUpTo(10);
  kernel.Run();
  ASSERT_EQ(source.written, 2);  // data band saturated

  // The control write completes immediately despite the full buffer...
  source.ProduceControl(Value(std::string("ctl")));
  kernel.Run();

  // ...and the next Transfer delivers it ahead of the queued data.
  InvokeResult r = TransferN(kernel, source, 3);
  ASSERT_TRUE(r.ok());
  const BatchReply* batch = r.As<BatchReply>();
  ASSERT_NE(batch, nullptr);
  const ValueList* items = &batch->items;
  ASSERT_EQ(items->size(), 3u);
  EXPECT_EQ((*items)[0].StrOr(""), "ctl");
  EXPECT_EQ((*items)[1].IntOr(-1), 0);
  EXPECT_EQ((*items)[2].IntOr(-1), 1);
}

TEST(ServerFlowTest, PutBackRestoresTheFrontOfTheBand) {
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 8;
  ManualSource& source = kernel.CreateLocal<ManualSource>(options);
  source.ProduceUpTo(3);
  kernel.Run();
  source.server.PutBack(kChanOut, Value(int64_t{-1}));
  InvokeResult r = TransferN(kernel, source, 4);
  ASSERT_TRUE(r.ok());
  const BatchReply* batch = r.As<BatchReply>();
  ASSERT_NE(batch, nullptr);
  const ValueList* items = &batch->items;
  ASSERT_EQ(items->size(), 4u);
  EXPECT_EQ((*items)[0].IntOr(0), -1);  // the put-back item leads
  EXPECT_EQ((*items)[1].IntOr(-1), 0);
}

TEST(ServerFlowTest, PutBackServesParkedDemand) {
  // A Transfer parked on an empty buffer is answered by the put-back itself,
  // not left waiting for the producer's next Write or Close.
  Kernel kernel;
  ChannelOptions options;
  options.hiwat = 8;
  ManualSource& source = kernel.CreateLocal<ManualSource>(options);
  std::optional<InvokeResult> reply;
  kernel.ExternalInvoke(source.uid(), "Transfer",
                        TransferArgs{Value(std::string(kChanOut)), 4},
                        [&reply](InvokeResult r) { reply = std::move(r); });
  kernel.Run();
  ASSERT_EQ(source.server.parked_requests(kChanOut), 1u);
  source.server.PutBack(kChanOut, Value(int64_t{-1}));
  kernel.Run();
  EXPECT_EQ(source.server.parked_requests(kChanOut), 0u);
  EXPECT_EQ(source.server.buffered(kChanOut), 0u);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->ok());
  const BatchReply* batch = reply->As<BatchReply>();
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->items, (ValueList{Value(int64_t{-1})}));
  EXPECT_FALSE(batch->end);
}

// ------------------------------------------------------------- ServiceProc

TEST(ServiceProcTest, CoalescesBurstsIntoOneRun) {
  Kernel kernel;
  int runs = 0;
  ServiceProc service(kernel, [&runs] { runs++; });
  // Three schedules before any event runs: one deferred execution.
  service.Schedule();
  EXPECT_TRUE(service.pending());
  service.Schedule();
  service.Schedule();
  kernel.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(service.pending());
  EXPECT_EQ(kernel.stats().services_run, 1u);
  EXPECT_EQ(kernel.stats().services_coalesced, 2u);

  // After running it re-arms.
  service.Schedule();
  kernel.Run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(kernel.stats().services_run, 2u);
}

// --------------------------------------------------------- pipeline overload

// A slow consumer behind a fast producer, tight watermarks: the canonical
// overload. The pipeline must lose nothing, keep queues bounded by hiwat,
// and actually exercise flow control (hiwat hits observed).
void RunOverloaded(Discipline discipline) {
  Kernel kernel;
  InvariantMonitor monitor;
  MetricsRegistry metrics;
  kernel.set_monitor(&monitor);
  kernel.set_metrics(&metrics);

  PipelineOptions options;
  options.discipline = discipline;
  options.processing_cost = 50;  // every filter is 50 ticks/item slow
  options.work_ahead = 3;
  options.pipe_capacity = 3;
  options.acceptor_capacity = 3;
  const size_t kItems = 32;

  PipelineHandle handle =
      BuildPipeline(kernel, Items(kItems), Copies(2), options);
  handle.LabelAll(monitor);
  handle.LabelAll(metrics);
  kernel.RunUntil([&handle] { return handle.done(); });

  // Nothing lost, nothing reordered.
  EXPECT_EQ(handle.output(), Items(kItems)) << DisciplineName(discipline);
  // Flow conservation holds at every stage under saturation.
  EXPECT_TRUE(monitor.ok()) << monitor.ToString();

  // Memory stayed bounded: no single queue face ever exceeded its hiwat,
  // and the overload genuinely engaged the watermarks somewhere.
  uint64_t hiwat_hits = 0;
  for (const Uid& uid : handle.ejects) {
    for (std::string_view component : {"acceptor", "server"}) {
      if (const MetricsRegistry::QueueGauge* q =
              metrics.QueueFor(component, uid)) {
        EXPECT_LE(q->high_water, 3u)
            << DisciplineName(discipline) << " " << component;
      }
      if (const MetricsRegistry::FlowCounters* f =
              metrics.FlowFor(component, uid)) {
        hiwat_hits += f->hiwat_hits;
      }
    }
  }
  EXPECT_GT(hiwat_hits, 0u) << DisciplineName(discipline);
}

TEST(OverloadTest, ReadOnlySurvivesSlowConsumer) {
  RunOverloaded(Discipline::kReadOnly);
}

TEST(OverloadTest, WriteOnlySurvivesSlowConsumer) {
  RunOverloaded(Discipline::kWriteOnly);
}

TEST(OverloadTest, ConventionalSurvivesSlowConsumer) {
  RunOverloaded(Discipline::kConventional);
}

TEST(OverloadTest, OutputIsInvariantUnderAnyWatermarkSetting) {
  // Flow control may only change *when* things happen, never *what* comes
  // out: every discipline, at every watermark, produces the same bytes as
  // the defaults (the satellite regression for the seed's off-by-one —
  // unifying the boundary must not change any output).
  const ValueList expect = Items(20);
  for (Discipline discipline : {Discipline::kReadOnly, Discipline::kWriteOnly,
                                Discipline::kConventional}) {
    for (size_t watermark : {size_t{1}, size_t{2}, size_t{5}, size_t{16}}) {
      Kernel kernel;
      PipelineOptions options;
      options.discipline = discipline;
      options.work_ahead = watermark;
      options.pipe_capacity = watermark;
      options.acceptor_capacity = watermark;
      ValueList out = RunPipeline(kernel, Items(20), Copies(2), options);
      EXPECT_EQ(out, expect)
          << DisciplineName(discipline) << " hiwat=" << watermark;
    }
  }
}

// ------------------------------------------------- control through the pipe

TEST(BandTest, ControlOvertakesASaturatedPassiveBuffer) {
  // Conventional-discipline latency claim: a control item written into a
  // pipe whose both faces are jammed with data still comes out first —
  // the per-band service loops never let it queue behind stuck data.
  Kernel kernel;
  PassiveBuffer::Options popt;
  popt.hiwat = 3;
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>(popt);

  class Producer : public Eject {
   public:
    Producer(Kernel& kernel, Uid pipe)
        : Eject(kernel, "Producer"),
          writer(*this, pipe, Value(std::string(kChanIn))) {}
    void Start(int n) {
      Spawn(Data(n));
      Spawn(Control());
    }
    StreamWriter writer;

   private:
    Task<void> Data(int n) {
      for (int i = 0; i < n; ++i) {
        co_await writer.Write(Value(int64_t{i}));
      }
      co_await writer.End();
    }
    Task<void> Control() {
      // Let the data band saturate the pipe first.
      co_await Sleep(100);
      co_await writer.WriteControl(Value(std::string("ctl")));
    }
  };

  Producer& producer = kernel.CreateLocal<Producer>(pipe.uid());
  producer.Start(12);
  kernel.Run();

  // First item out of the jammed pipe is the control item...
  ValueList collected;
  bool end = false;
  while (!end) {
    InvokeResult r = kernel.InvokeAndRun(
        pipe.uid(), "Transfer",
        TransferArgs{Value(std::string(kChanOut)), 100});
    ASSERT_TRUE(r.ok());
    const BatchReply* batch = r.As<BatchReply>();
    ASSERT_NE(batch, nullptr);
    const ValueList* items = &batch->items;
    collected.insert(collected.end(), items->begin(), items->end());
    end = batch->end;
  }
  ASSERT_EQ(collected.size(), 13u);
  EXPECT_EQ(collected[0].StrOr(""), "ctl");
  // ...and the 12 data items follow intact and in order: overtaking never
  // loses or reorders the band it overtook.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(collected[i + 1].IntOr(-1), i);
  }
}

TEST(BandTest, PushSinkRoutesControlItemsAside) {
  // End-to-end write-only: a control push lands in the sink's control
  // drawer, stamped with its arrival tick, without disturbing data.
  Kernel kernel;
  PushSinkOptions options;
  options.hiwat = 4;
  PushSink& sink = kernel.CreateLocal<PushSink>(options);
  kernel.ExternalInvoke(
      sink.uid(), "Push",
      PushArgs{Value(std::string(kChanIn)), {Value(int64_t{0})}, false},
      [](InvokeResult r) { EXPECT_TRUE(r.ok()); });
  kernel.ExternalInvoke(
      sink.uid(), "Push",
      PushArgs{Value(std::string(kChanIn)), {Value(std::string("ctl"))}, false, Band::kControl},
      [](InvokeResult r) { EXPECT_TRUE(r.ok()); });
  kernel.ExternalInvoke(
      sink.uid(), "Push",
      PushArgs{Value(std::string(kChanIn)), {}, /*end=*/true},
      [](InvokeResult r) { EXPECT_TRUE(r.ok()); });
  kernel.Run();
  ASSERT_TRUE(sink.done());
  EXPECT_EQ(sink.items(), ValueList{Value(int64_t{0})});
  ASSERT_EQ(sink.control_items().size(), 1u);
  EXPECT_EQ(sink.control_items()[0].StrOr(""), "ctl");
  ASSERT_EQ(sink.control_drained_at().size(), 1u);
  EXPECT_GE(sink.control_drained_at()[0], 0);
}

}  // namespace
}  // namespace eden

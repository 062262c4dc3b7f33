// Unit tests for the four transput primitives at component level: parked
// request accounting, flow-control windows, abort paths, lookahead
// equivalence, and counter correctness.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/passive_buffer.h"
#include "src/core/stream.h"
#include "src/core/stream_acceptor.h"
#include "src/core/stream_reader.h"
#include "src/core/stream_server.h"
#include "src/core/stream_writer.h"
#include "src/eden/kernel.h"

namespace eden {
namespace {

ValueList MakeInts(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value(int64_t{i}));
  }
  return items;
}

// A bare Eject hosting a StreamServer whose production we control by hand.
class ManualSource : public Eject {
 public:
  explicit ManualSource(Kernel& kernel, size_t hiwat = 4)
      : Eject(kernel, "ManualSource"), server(*this) {
    ChannelOptions options;
    options.hiwat = hiwat;
    server.DeclareChannel(std::string(kChanOut), options);
    server.InstallOps();
  }

  void Produce(Value item) {
    Spawn(WriteOne(std::move(item)));
  }
  void CloseOut() { server.Close(std::string(kChanOut)); }
  void Fail(Status status) { server.AbortAll(std::move(status)); }

  StreamServer server;

 private:
  Task<void> WriteOne(Value item) {
    co_await server.Write(kChanOut, std::move(item));
  }
};

TEST(StreamServerTest, ParkedRequestsCountTheVacuum) {
  Kernel kernel;
  ManualSource& source = kernel.CreateLocal<ManualSource>();
  for (int i = 0; i < 4; ++i) {
    kernel.ExternalInvoke(source.uid(), "Transfer",
                          TransferArgs{Value(std::string(kChanOut)), 1},
                          [](InvokeResult) {});
  }
  kernel.Run();
  EXPECT_EQ(source.server.parked_requests(kChanOut), 4u);
  source.Produce(Value(1));
  kernel.Run();
  EXPECT_EQ(source.server.parked_requests(kChanOut), 3u);
  EXPECT_EQ(source.server.items_delivered(), 1u);
}

TEST(StreamServerTest, BatchedTransferTakesUpToMax) {
  Kernel kernel;
  ManualSource& source = kernel.CreateLocal<ManualSource>(8);
  for (int i = 0; i < 5; ++i) {
    source.Produce(Value(int64_t{i}));
  }
  kernel.Run();
  InvokeResult r = kernel.InvokeAndRun(
      source.uid(), "Transfer", TransferArgs{Value(std::string(kChanOut)), 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.As<BatchReply>()->items.size(), 3u);
  EXPECT_FALSE(r.As<BatchReply>()->end);
  EXPECT_EQ(source.server.buffered(kChanOut), 2u);
}

TEST(StreamServerTest, EndAccompaniesFinalItems) {
  Kernel kernel;
  ManualSource& source = kernel.CreateLocal<ManualSource>(8);
  source.Produce(Value(1));
  kernel.Run();
  source.CloseOut();
  InvokeResult r = kernel.InvokeAndRun(
      source.uid(), "Transfer", TransferArgs{Value(std::string(kChanOut)), 8});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.As<BatchReply>()->items.size(), 1u);
  EXPECT_TRUE(r.As<BatchReply>()->end);  // no extra round trip
}

TEST(StreamServerTest, TransferAfterEndIsEmptyEnd) {
  Kernel kernel;
  ManualSource& source = kernel.CreateLocal<ManualSource>();
  source.CloseOut();
  for (int i = 0; i < 2; ++i) {
    InvokeResult r = kernel.InvokeAndRun(
        source.uid(), "Transfer", TransferArgs{Value(std::string(kChanOut)), 1});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.As<BatchReply>()->items.size(), 0u);
    EXPECT_TRUE(r.As<BatchReply>()->end);
  }
}

TEST(StreamServerTest, WritesAfterCloseAreDropped) {
  Kernel kernel;
  ManualSource& source = kernel.CreateLocal<ManualSource>();
  source.CloseOut();
  source.Produce(Value(1));
  kernel.Run();
  EXPECT_EQ(source.server.buffered(kChanOut), 0u);
}

TEST(StreamServerTest, AbortFailsParkedAndFutureTransfers) {
  Kernel kernel;
  ManualSource& source = kernel.CreateLocal<ManualSource>();
  Status parked_status;
  kernel.ExternalInvoke(source.uid(), "Transfer",
                        TransferArgs{Value(std::string(kChanOut)), 1},
                        [&](InvokeResult r) { parked_status = r.status; });
  kernel.Run();
  source.Fail(Status(StatusCode::kUnavailable, "upstream died"));
  kernel.Run();
  EXPECT_TRUE(parked_status.is(StatusCode::kUnavailable));

  InvokeResult later = kernel.InvokeAndRun(
      source.uid(), "Transfer", TransferArgs{Value(std::string(kChanOut)), 1});
  EXPECT_TRUE(later.status.is(StatusCode::kUnavailable));
}

// A StreamServer the test can destroy while Transfers are parked on it.
class DroppableSource : public Eject {
 public:
  explicit DroppableSource(Kernel& kernel)
      : Eject(kernel, "DroppableSource"), server(std::make_unique<StreamServer>(*this)) {
    server->DeclareChannel(std::string(kChanOut));
    server->InstallOps();
  }

  std::unique_ptr<StreamServer> server;
};

// Destroying a server destroys its parked reply handles front to back, so
// the callers hear kCancelled in arrival order. Two requests are served
// first and six more park after them, so the parked queue's front is no
// longer where it started and the queue has grown since.
TEST(StreamServerTest, TeardownCancelsParkedTransfersInArrivalOrder) {
  Kernel kernel;
  DroppableSource& source = kernel.CreateLocal<DroppableSource>();
  std::vector<std::pair<int, StatusCode>> answers;
  auto transfer = [&](int caller) {
    kernel.ExternalInvoke(source.uid(), "Transfer",
                          TransferArgs{Value(std::string(kChanOut)), 1},
                          [&answers, caller](InvokeResult r) {
                            answers.emplace_back(caller, r.status.code());
                          });
  };
  for (int caller = 0; caller < 3; ++caller) {
    transfer(caller);
  }
  kernel.Run();
  source.server->PutBack(kChanOut, Value(int64_t{0}));
  source.server->PutBack(kChanOut, Value(int64_t{1}));
  for (int caller = 3; caller < 8; ++caller) {
    transfer(caller);
  }
  kernel.Run();
  ASSERT_EQ(source.server->parked_requests(kChanOut), 6u);
  source.server.reset();
  kernel.Run();
  std::vector<std::pair<int, StatusCode>> expected = {{0, StatusCode::kOk},
                                                      {1, StatusCode::kOk}};
  for (int caller = 2; caller < 8; ++caller) {
    expected.emplace_back(caller, StatusCode::kCancelled);
  }
  EXPECT_EQ(answers, expected);
}

TEST(StreamServerTest, ZeroCapacityIsPureRendezvous) {
  Kernel kernel;
  ManualSource& source = kernel.CreateLocal<ManualSource>(0);
  source.Produce(Value(42));
  kernel.Run();
  // Producer parked: nothing buffered, nothing produced.
  EXPECT_EQ(source.server.buffered(kChanOut), 0u);

  InvokeResult r = kernel.InvokeAndRun(
      source.uid(), "Transfer", TransferArgs{Value(std::string(kChanOut)), 1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.As<BatchReply>()->items.size(), 1u);
}

// ------------------------------------------------------------ StreamAcceptor

class ManualSink : public Eject {
 public:
  explicit ManualSink(Kernel& kernel, size_t hiwat = 2)
      : Eject(kernel, "ManualSink"), acceptor(*this) {
    ChannelOptions options;
    options.hiwat = hiwat;
    acceptor.DeclareChannel(std::string(kChanIn), options);
    acceptor.InstallOps();
  }

  // Pops one item synchronously (test helper).
  void PopOne() {
    Spawn(DoPop());
  }
  std::optional<Value> last;

  StreamAcceptor acceptor;

 private:
  Task<void> DoPop() {
    last = co_await acceptor.Next(kChanIn);
  }
};

TEST(StreamAcceptorTest, WithholdsPushRepliesOverCapacity) {
  Kernel kernel;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(2);
  int acknowledged = 0;
  for (int i = 0; i < 5; ++i) {
    kernel.ExternalInvoke(
        sink.uid(), "Push",
        PushArgs{Value(std::string(kChanIn)), {Value(int64_t{i})}, false},
        [&](InvokeResult r) {
          EXPECT_TRUE(r.ok());
          acknowledged++;
        });
  }
  kernel.Run();
  EXPECT_LT(acknowledged, 5);  // flow control engaged
  int before = acknowledged;
  // Hysteresis: the withheld replies release only once the queue drains
  // strictly below lowat (capacity/2 = 1 here, i.e. empty).
  for (int i = 0; i < 4; ++i) {
    sink.PopOne();
  }
  kernel.Run();
  EXPECT_EQ(acknowledged, before);  // still at/above lowat
  sink.PopOne();
  kernel.Run();
  EXPECT_GT(acknowledged, before);  // draining released withheld replies
  EXPECT_EQ(acknowledged, 5);
}

TEST(StreamAcceptorTest, EndWakesConsumer) {
  Kernel kernel;
  ManualSink& sink = kernel.CreateLocal<ManualSink>();
  sink.PopOne();
  kernel.Run();
  EXPECT_FALSE(sink.last.has_value());  // still blocked
  kernel.ExternalInvoke(sink.uid(), "Push",
                        PushArgs{Value(std::string(kChanIn)), {}, true},
                        [](InvokeResult) {});
  kernel.Run();
  EXPECT_TRUE(sink.acceptor.ended(kChanIn));
}

TEST(StreamAcceptorTest, UnknownChannelRejected) {
  Kernel kernel;
  ManualSink& sink = kernel.CreateLocal<ManualSink>();
  InvokeResult r = kernel.InvokeAndRun(
      sink.uid(), "Push", PushArgs{Value("bogus"), {Value(1)}, false});
  EXPECT_TRUE(r.status.is(StatusCode::kNoSuchChannel));
}

// -------------------------------------------------------------- StreamReader

TEST(StreamReaderTest, LookaheadYieldsSameSequenceAsInline) {
  auto run = [](size_t lookahead) {
    Kernel kernel;
    VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(25));
    PullSink::Options options;
    options.lookahead = lookahead;
    options.batch = 3;
    PullSink& sink = kernel.CreateLocal<PullSink>(
        source.uid(), Value(std::string(kChanOut)), options);
    kernel.RunUntil([&] { return sink.done(); });
    return sink.items();
  };
  EXPECT_EQ(run(0), run(4));
  EXPECT_EQ(run(0), run(16));
}

TEST(StreamReaderTest, LookaheadSurfacesCrashToo) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(1000));
  PullSink::Options options;
  options.lookahead = 4;
  PullSink& sink = kernel.CreateLocal<PullSink>(
      source.uid(), Value(std::string(kChanOut)), options);
  kernel.RunUntil([&] { return sink.items().size() >= 5; });
  kernel.Crash(source.uid());
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_TRUE(sink.done());
  EXPECT_FALSE(sink.stream_status().ok_or_end());
}

// -------------------------------------------------------------- StreamWriter

TEST(StreamWriterTest, BatchesPushes) {
  Kernel kernel;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(100);

  class Producer : public Eject {
   public:
    Producer(Kernel& kernel, Uid sink)
        : Eject(kernel, "Producer"),
          writer(*this, sink, Value(std::string(kChanIn)),
                 StreamWriter::Options{4}) {}
    Task<void> Produce(int n) {
      for (int i = 0; i < n; ++i) {
        co_await writer.Write(Value(int64_t{i}));
      }
      co_await writer.End();
    }
    StreamWriter writer;
  };
  Producer& producer = kernel.CreateLocal<Producer>(sink.uid());
  producer.Spawn(producer.Produce(10));
  kernel.Run();
  // 10 items at batch 4: 2 full pushes + final (2 items + end) = 3 pushes.
  EXPECT_EQ(producer.writer.pushes_sent(), 3u);
  EXPECT_EQ(producer.writer.items_written(), 10u);
  EXPECT_EQ(sink.acceptor.items_received(), 10u);
  EXPECT_EQ(sink.acceptor.buffered(kChanIn), 10u);
  // ended() reports end-AND-drained; drain everything first.
  for (int i = 0; i < 10; ++i) {
    sink.PopOne();
  }
  kernel.Run();
  EXPECT_TRUE(sink.acceptor.ended(kChanIn));
}

TEST(StreamWriterTest, EndIsIdempotentAndWritesAfterEndFail) {
  Kernel kernel;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(100);
  class Producer : public Eject {
   public:
    Producer(Kernel& kernel, Uid sink)
        : Eject(kernel, "Producer"),
          writer(*this, sink, Value(std::string(kChanIn))) {}
    Task<void> Go() {
      co_await writer.End();
      co_await writer.End();  // no second end Push
      Status late = co_await writer.Write(Value(1));
      late_status = late;
    }
    StreamWriter writer;
    Status late_status;
  };
  Producer& producer = kernel.CreateLocal<Producer>(sink.uid());
  producer.Spawn(producer.Go());
  kernel.Run();
  EXPECT_EQ(producer.writer.pushes_sent(), 1u);
  EXPECT_TRUE(producer.late_status.is(StatusCode::kEndOfStream));
}

TEST(StreamWriterTest, SurfacesSinkFailure) {
  Kernel kernel;
  ManualSink& sink = kernel.CreateLocal<ManualSink>(100);
  Uid sink_uid = sink.uid();
  class Producer : public Eject {
   public:
    Producer(Kernel& kernel, Uid sink)
        : Eject(kernel, "Producer"),
          writer(*this, sink, Value(std::string(kChanIn))) {}
    Task<void> Go() {
      first = co_await writer.Write(Value(1));
      second = co_await writer.Write(Value(2));
    }
    StreamWriter writer;
    Status first;
    Status second;
  };
  Producer& producer = kernel.CreateLocal<Producer>(sink_uid);
  kernel.Crash(sink_uid);
  producer.Spawn(producer.Go());
  kernel.Run();
  EXPECT_TRUE(producer.first.is(StatusCode::kNoSuchEject));
  // After a failure the writer refuses further writes with the same status.
  EXPECT_FALSE(producer.second.ok());
}

// ------------------------------------------------------------- PassiveBuffer

TEST(PassiveBufferTest, CountsItemsThrough) {
  Kernel kernel;
  PushSource& source = kernel.CreateLocal<PushSource>(MakeInts(12));
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>();
  PullSink& sink = kernel.CreateLocal<PullSink>(pipe.uid(),
                                                Value(std::string(kChanOut)));
  source.BindOutput(pipe.uid(), Value(std::string(kChanIn)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(pipe.items_through(), 12u);
  EXPECT_EQ(sink.items(), MakeInts(12));
}

TEST(PassiveBufferTest, CapacityOnePipeStillDeliversEverything) {
  Kernel kernel;
  PassiveBuffer::Options options;
  options.hiwat = 1;
  PushSource& source = kernel.CreateLocal<PushSource>(MakeInts(20));
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>(options);
  PullSink& sink = kernel.CreateLocal<PullSink>(pipe.uid(),
                                                Value(std::string(kChanOut)));
  source.BindOutput(pipe.uid(), Value(std::string(kChanIn)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items(), MakeInts(20));
}

}  // namespace
}  // namespace eden

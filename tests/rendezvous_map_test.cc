// Tests for the §3 CSP rendezvous channel and the §6 Map-protocol file.
#include <gtest/gtest.h>

#include "src/core/endpoints.h"
#include "src/core/rendezvous.h"
#include "src/eden/kernel.h"
#include "src/fs/map_file.h"

namespace eden {
namespace {

// ------------------------------------------------------------- CSP channel

TEST(CspChannelTest, SenderParksUntilReceiver) {
  Kernel kernel;
  CspChannel& channel = kernel.CreateLocal<CspChannel>();
  bool sent = false;
  kernel.ExternalInvoke(channel.uid(), "Send", Value().Set("item", Value(42)),
                        [&](InvokeResult r) {
                          EXPECT_TRUE(r.ok());
                          sent = true;
                        });
  kernel.Run();
  EXPECT_FALSE(sent);  // ! blocks until ? arrives
  EXPECT_EQ(channel.parked_senders(), 1u);

  Value got;
  kernel.ExternalInvoke(channel.uid(), "Receive", Value(), [&](InvokeResult r) {
    ASSERT_TRUE(r.ok());
    got = r.value().Field("item");
  });
  kernel.Run();
  EXPECT_TRUE(sent);  // both completed together
  EXPECT_EQ(got, Value(42));
  EXPECT_EQ(channel.exchanged(), 1u);
}

TEST(CspChannelTest, ReceiverParksUntilSender) {
  Kernel kernel;
  CspChannel& channel = kernel.CreateLocal<CspChannel>();
  bool received = false;
  kernel.ExternalInvoke(channel.uid(), "Receive", Value(), [&](InvokeResult r) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value().Field("item"), Value("x"));
    received = true;
  });
  kernel.Run();
  EXPECT_FALSE(received);
  EXPECT_EQ(channel.parked_receivers(), 1u);

  kernel.ExternalInvoke(channel.uid(), "Send", Value().Set("item", Value("x")),
                        [](InvokeResult) {});
  kernel.Run();
  EXPECT_TRUE(received);
}

TEST(CspChannelTest, FifoMatchingIsDeterministic) {
  Kernel kernel;
  CspChannel& channel = kernel.CreateLocal<CspChannel>();
  for (int i = 0; i < 3; ++i) {
    kernel.ExternalInvoke(channel.uid(), "Send",
                          Value().Set("item", Value(int64_t{i})),
                          [](InvokeResult) {});
  }
  std::vector<int64_t> got;
  for (int i = 0; i < 3; ++i) {
    kernel.ExternalInvoke(channel.uid(), "Receive", Value(), [&](InvokeResult r) {
      got.push_back(r.value().Field("item").IntOr(-1));
    });
  }
  kernel.Run();
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2}));
}

TEST(CspChannelTest, CloseReleasesBothSides) {
  Kernel kernel;
  CspChannel& channel = kernel.CreateLocal<CspChannel>();
  Status send_status;
  bool receive_end = false;
  kernel.ExternalInvoke(channel.uid(), "Receive", Value(), [&](InvokeResult r) {
    receive_end = r.value().Field("end").BoolOr(false);
  });
  kernel.Run();
  ASSERT_TRUE(kernel.InvokeAndRun(channel.uid(), "Close").ok());
  EXPECT_TRUE(receive_end);

  kernel.ExternalInvoke(channel.uid(), "Send", Value().Set("item", Value(1)),
                        [&](InvokeResult r) { send_status = r.status; });
  kernel.Run();
  EXPECT_TRUE(send_status.is(StatusCode::kEndOfStream));

  // Receive after close: immediate end.
  bool end2 = false;
  kernel.ExternalInvoke(channel.uid(), "Receive", Value(), [&](InvokeResult r) {
    end2 = r.value().Field("end").BoolOr(false);
  });
  kernel.Run();
  EXPECT_TRUE(end2);
}

TEST(CspChannelTest, ParkedSenderFailsOnClose) {
  Kernel kernel;
  CspChannel& channel = kernel.CreateLocal<CspChannel>();
  Status send_status;
  kernel.ExternalInvoke(channel.uid(), "Send", Value().Set("item", Value(1)),
                        [&](InvokeResult r) { send_status = r.status; });
  kernel.Run();
  ASSERT_TRUE(kernel.InvokeAndRun(channel.uid(), "Close").ok());
  EXPECT_TRUE(send_status.is(StatusCode::kEndOfStream));
}

// A pipeline of Ejects communicating CSP-style: producer ! channel ? filter
// ! channel2 ? consumer. Structural cost: 2 invocations per datum per
// junction — the §3 "both active" interpretation.
class CspCopier : public Eject {
 public:
  CspCopier(Kernel& kernel, Uid in, Uid out)
      : Eject(kernel, "CspCopier"), in_(in), out_(out) {}
  void OnStart() override {
    Spawn(Run());
  }
  Task<void> Run() {
    for (;;) {
      InvokeResult r = co_await Invoke(in_, "Receive", Value());
      if (!r.ok() || r.value().Field("end").BoolOr(false)) {
        break;
      }
      (void)co_await Invoke(out_, "Send",
                            Value().Set("item", r.value().Field("item")));
    }
    (void)co_await Invoke(out_, "Close", Value());
  }

 private:
  Uid in_;
  Uid out_;
};

TEST(CspChannelTest, PipelineOfRendezvousChannels) {
  Kernel kernel;
  CspChannel& a = kernel.CreateLocal<CspChannel>();
  CspChannel& b = kernel.CreateLocal<CspChannel>();
  kernel.CreateLocal<CspCopier>(a.uid(), b.uid());

  Stats before = kernel.stats();
  // Producer pushes 5 items into a, then closes — only after every Send has
  // rendezvoused (Close would otherwise fail still-parked senders).
  int sends_completed = 0;
  for (int i = 0; i < 5; ++i) {
    kernel.ExternalInvoke(a.uid(), "Send", Value().Set("item", Value(int64_t{i})),
                          [&](InvokeResult) {
                            if (++sends_completed == 5) {
                              kernel.ExternalInvoke(a.uid(), "Close", Value(),
                                                    [](InvokeResult) {});
                            }
                          });
  }

  std::vector<int64_t> got;
  bool done = false;
  std::function<void()> pull = [&] {
    kernel.ExternalInvoke(b.uid(), "Receive", Value(), [&](InvokeResult r) {
      if (!r.ok() || r.value().Field("end").BoolOr(false)) {
        done = true;
        return;
      }
      got.push_back(r.value().Field("item").IntOr(-1));
      pull();
    });
  };
  pull();
  kernel.RunUntil([&] { return done; });
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  // Structural check: per datum, Send+Receive at each of two junctions.
  Stats delta = kernel.stats() - before;
  EXPECT_GE(delta.invocations_sent, 4u * 5u);
}

// ---------------------------------------------------------------- Map file

TEST(MapFileTest, RandomAccessReadWrite) {
  Kernel kernel;
  MapFileEject& file = kernel.CreateLocal<MapFileEject>(
      ValueList{Value("r0"), Value("r1"), Value("r2")});
  InvokeResult read = kernel.InvokeAndRun(file.uid(), "ReadAt",
                                          Value().Set("index", Value(1)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().Field("item"), Value("r1"));

  ASSERT_TRUE(kernel
                  .InvokeAndRun(file.uid(), "WriteAt",
                                Value().Set("index", Value(1)).Set("item", Value("R1")))
                  .ok());
  read = kernel.InvokeAndRun(file.uid(), "ReadAt", Value().Set("index", Value(1)));
  EXPECT_EQ(read.value().Field("item"), Value("R1"));
}

TEST(MapFileTest, WriteBeyondEndExtends) {
  Kernel kernel;
  MapFileEject& file = kernel.CreateLocal<MapFileEject>();
  ASSERT_TRUE(kernel
                  .InvokeAndRun(file.uid(), "WriteAt",
                                Value().Set("index", Value(3)).Set("item", Value("x")))
                  .ok());
  InvokeResult length = kernel.InvokeAndRun(file.uid(), "Length");
  EXPECT_EQ(length.value().Field("length"), Value(4));
  InvokeResult hole = kernel.InvokeAndRun(file.uid(), "ReadAt",
                                          Value().Set("index", Value(1)));
  ASSERT_TRUE(hole.ok());
  EXPECT_TRUE(hole.value().Field("item").is_nil());
}

TEST(MapFileTest, OutOfRangeAndBadArgs) {
  Kernel kernel;
  MapFileEject& file = kernel.CreateLocal<MapFileEject>(ValueList{Value(1)});
  EXPECT_TRUE(kernel.InvokeAndRun(file.uid(), "ReadAt", Value().Set("index", Value(5)))
                  .status.is(StatusCode::kNotFound));
  EXPECT_TRUE(kernel.InvokeAndRun(file.uid(), "ReadAt", Value())
                  .status.is(StatusCode::kNotFound));
  EXPECT_TRUE(kernel
                  .InvokeAndRun(file.uid(), "WriteAt",
                                Value().Set("index", Value(-2)).Set("item", Value(0)))
                  .status.is(StatusCode::kInvalidArgument));
  EXPECT_TRUE(kernel.InvokeAndRun(file.uid(), "Truncate", Value())
                  .status.is(StatusCode::kInvalidArgument));
}

TEST(MapFileTest, SupportsBothProtocols) {
  // §6: "it may support both protocols" — stream the same records the Map
  // protocol wrote.
  Kernel kernel;
  MapFileEject& file = kernel.CreateLocal<MapFileEject>();
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(kernel
                    .InvokeAndRun(file.uid(), "WriteAt",
                                  Value()
                                      .Set("index", Value(i))
                                      .Set("item", Value("rec " + std::to_string(i))))
                    .ok());
  }
  PullSink& sink = kernel.CreateLocal<PullSink>(file.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  ASSERT_EQ(sink.items().size(), 5u);
  EXPECT_EQ(sink.items()[2], Value("rec 2"));
}

TEST(MapFileTest, CheckpointAndRecovery) {
  Kernel kernel;
  MapFileEject::RegisterType(kernel);
  MapFileEject& file = kernel.CreateLocal<MapFileEject>(ValueList{Value("a")});
  Uid uid = file.uid();
  (void)kernel.InvokeAndRun(uid, "Checkpoint");
  (void)kernel.InvokeAndRun(uid, "WriteAt",
                            Value().Set("index", Value(0)).Set("item", Value("b")));
  kernel.Crash(uid);
  InvokeResult read = kernel.InvokeAndRun(uid, "ReadAt", Value().Set("index", Value(0)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().Field("item"), Value("a"));  // uncheckpointed write lost
}

TEST(MapFileTest, TruncateResetsCursorSafely) {
  Kernel kernel;
  MapFileEject& file = kernel.CreateLocal<MapFileEject>(
      ValueList{Value(1), Value(2), Value(3)});
  // Read one item on the shared channel, then truncate below the cursor.
  InvokeResult first = kernel.InvokeAndRun(file.uid(), "Transfer",
                                           TransferArgs{Value(0), 2});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(kernel.InvokeAndRun(file.uid(), "Truncate",
                                  Value().Set("length", Value(1)))
                  .ok());
  InvokeResult rest = kernel.InvokeAndRun(file.uid(), "Transfer",
                                          TransferArgs{Value(0), 10});
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(rest.As<BatchReply>()->end);
}

}  // namespace
}  // namespace eden

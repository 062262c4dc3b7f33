// The stream records' wire sizes. Each record's EncodedSize() must equal
// Codec::EncodedSize of the canonical Value map it stands for, because the
// kernel charges message bytes (and so virtual time) from it. Every shape is
// spelled out below as that map, with each kind of channel identifier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/stream.h"
#include "src/eden/codec.h"
#include "src/eden/kernel.h"
#include "src/eden/message.h"

namespace eden {
namespace {

// The three kinds of channel identifier (§5, §7): an integer, a name, and a
// capability UID.
std::vector<Value> Channels() {
  return {Value(int64_t{0}), Value(std::string(kChanOut)), Value(Uid(0x1234, 0x5678))};
}

ValueList Items(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("line " + std::to_string(i)));
  }
  return items;
}

size_t MapSize(const Value& map) { return Codec::EncodedSize(map); }

TEST(StreamWireTest, TransferArgsMatchTheirMap) {
  for (const Value& chan : Channels()) {
    SCOPED_TRACE(chan.ToString());
    TransferArgs classic{chan, 4};
    EXPECT_EQ(classic.EncodedSize(), MapSize(Value::Map({{"chan", chan}, {"max", Value(4)}})));

    TransferArgs sequenced{chan, 4, 17, 9};
    EXPECT_EQ(sequenced.EncodedSize(),
              MapSize(Value::Map({{"chan", chan},
                                  {"max", Value(4)},
                                  {"seq", Value(17)},
                                  {"ack", Value(9)}})));
  }
}

TEST(StreamWireTest, PushArgsMatchTheirMap) {
  for (const Value& chan : Channels()) {
    SCOPED_TRACE(chan.ToString());
    for (int n : {0, 1, 5}) {
      SCOPED_TRACE(n);
      PushArgs data{chan, Items(n), false};
      EXPECT_EQ(data.EncodedSize(),
                MapSize(Value::Map(
                    {{"chan", chan}, {"items", Value(Items(n))}, {"end", Value(false)}})));

      PushArgs control{chan, Items(n), true, Band::kControl};
      EXPECT_EQ(control.EncodedSize(), MapSize(Value::Map({{"chan", chan},
                                                           {"items", Value(Items(n))},
                                                           {"end", Value(true)},
                                                           {"band", Value(1)}})));

      PushArgs sequenced{chan, Items(n), false, Band::kData, 300};
      EXPECT_EQ(sequenced.EncodedSize(), MapSize(Value::Map({{"chan", chan},
                                                             {"items", Value(Items(n))},
                                                             {"end", Value(false)},
                                                             {"seq", Value(300)}})));
    }
  }
}

TEST(StreamWireTest, BatchRepliesMatchTheirMap) {
  for (int n : {0, 1, 5, 200}) {
    SCOPED_TRACE(n);
    for (bool end : {false, true}) {
      BatchReply classic{Items(n), end};
      EXPECT_EQ(classic.EncodedSize(),
                MapSize(Value::Map({{"items", Value(Items(n))}, {"end", Value(end)}})));

      BatchReply sequenced{Items(n), end, 42};
      EXPECT_EQ(sequenced.EncodedSize(), MapSize(Value::Map({{"items", Value(Items(n))},
                                                             {"end", Value(end)},
                                                             {"seq", Value(42)}})));
    }
  }
}

TEST(StreamWireTest, PushAcksMatchTheirReply) {
  // A classic channel's ack was always the nil reply.
  EXPECT_EQ(PushAck{}.EncodedSize(), Codec::EncodedSize(Value()));
  PushAck sequenced{3, 7};
  EXPECT_EQ(sequenced.EncodedSize(),
            MapSize(Value::Map({{"ack", Value(3)}, {"next", Value(7)}})));
}

TEST(StreamWireTest, BodySizeIsTheRecordsOrTheValues) {
  Value map = Value::Map({{"name", Value("out")}});
  EXPECT_EQ(EncodedSize(Body(map)), Codec::EncodedSize(map));
  BatchReply reply{Items(3), true};
  EXPECT_EQ(EncodedSize(Body(reply)), reply.EncodedSize());
}

// The kernel charges a record exactly what it charged the map form, so
// invocation bytes (and virtual time) do not depend on the form.
TEST(StreamWireTest, KernelChargesTheRecordAsItsMap) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(Items(3));
  const Value chan{std::string(kChanOut)};

  uint64_t before = kernel.stats().invocation_bytes;
  InvokeResult as_map = kernel.InvokeAndRun(
      source.uid(), std::string(kOpTransfer), Value::Map({{"chan", chan}, {"max", Value(2)}}));
  uint64_t map_bytes = kernel.stats().invocation_bytes - before;
  EXPECT_TRUE(as_map.status.is(StatusCode::kInvalidArgument)) << as_map.status;

  before = kernel.stats().invocation_bytes;
  uint64_t reply_before = kernel.stats().reply_bytes;
  InvokeResult as_record =
      kernel.InvokeAndRun(source.uid(), std::string(kOpTransfer), TransferArgs{chan, 2});
  EXPECT_EQ(kernel.stats().invocation_bytes - before, map_bytes);

  ASSERT_TRUE(as_record.ok());
  const BatchReply* batch = as_record.As<BatchReply>();
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->items, Items(2));
  EXPECT_FALSE(batch->end);
  uint64_t reply_bytes = kernel.stats().reply_bytes - reply_before;
  size_t header = map_bytes - kOpTransfer.size() -
                  Codec::EncodedSize(Value::Map({{"chan", chan}, {"max", Value(2)}}));
  EXPECT_EQ(reply_bytes, header + MapSize(Value::Map({{"items", Value(Items(2))},
                                                      {"end", Value(false)}})));
}

// Transfer and Push have one wire form: a Value body is refused.
TEST(StreamWireTest, ValueBodiedTransferAndPushAreInvalid) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(Items(3));
  PushSink& sink = kernel.CreateLocal<PushSink>();

  InvokeResult transfer = kernel.InvokeAndRun(
      source.uid(), std::string(kOpTransfer),
      Value::Map({{"chan", Value(std::string(kChanOut))}, {"max", Value(1)}}));
  EXPECT_TRUE(transfer.status.is(StatusCode::kInvalidArgument)) << transfer.status;

  InvokeResult push = kernel.InvokeAndRun(
      sink.uid(), std::string(kOpPush),
      Value::Map({{"chan", Value(std::string(kChanIn))},
                  {"items", Value(Items(1))},
                  {"end", Value(false)}}));
  EXPECT_TRUE(push.status.is(StatusCode::kInvalidArgument)) << push.status;

  // The refused invocations moved nothing: the stream still serves from the
  // start, and the sink took no item.
  InvokeResult first =
      kernel.InvokeAndRun(source.uid(), std::string(kOpTransfer),
                          TransferArgs{Value(std::string(kChanOut)), 1});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.As<BatchReply>()->items, Items(1));
  EXPECT_TRUE(sink.items().empty());
  EXPECT_EQ(sink.acceptor().buffered(kChanIn), 0u);
}

}  // namespace
}  // namespace eden

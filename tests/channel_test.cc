// Channel identifiers & the §5 security / fan-in / fan-out arguments.
#include <gtest/gtest.h>

#include "src/core/channel.h"
#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/stream.h"
#include "src/eden/kernel.h"
#include "src/filters/transforms.h"

namespace eden {
namespace {

ValueList MakeInts(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value(int64_t{i}));
  }
  return items;
}

TEST(ChannelTableTest, ResolvesByIndexNameAndCapability) {
  Kernel kernel;
  ChannelTable table;
  ASSERT_TRUE(table.Declare("out"));
  ASSERT_TRUE(table.Declare("report"));
  EXPECT_FALSE(table.Declare("out"));  // duplicate

  EXPECT_EQ(table.Resolve(Value(int64_t{0})), "out");
  EXPECT_EQ(table.Resolve(Value(int64_t{1})), "report");
  EXPECT_EQ(table.Resolve(Value("report")), "report");
  EXPECT_EQ(table.Resolve(Value(int64_t{2})), std::nullopt);
  EXPECT_EQ(table.Resolve(Value(int64_t{-1})), std::nullopt);
  EXPECT_EQ(table.Resolve(Value("bogus")), std::nullopt);
  EXPECT_EQ(table.Resolve(Value()), std::nullopt);

  auto cap = table.MintCapability("report", kernel);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(table.Resolve(Value(*cap)), "report");
  // A random UID is not a capability.
  EXPECT_EQ(table.Resolve(Value(Uid(123, 456))), std::nullopt);
}

TEST(ChannelTableTest, CapabilityOnlyHidesOtherSpellings) {
  Kernel kernel;
  ChannelTable table;
  table.Declare("secret", /*capability_only=*/true);
  EXPECT_EQ(table.Resolve(Value(int64_t{0})), std::nullopt);
  EXPECT_EQ(table.Resolve(Value("secret")), std::nullopt);
  auto cap = table.MintCapability("secret", kernel);
  EXPECT_EQ(table.Resolve(Value(*cap)), "secret");
}

// A multi-channel source: the tee filter splits a stream onto "out" and
// "copy" — the fan-out solution of §5 via channel identifiers.
TEST(ChannelTest, FanOutViaChannelIdentifiers) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(8));
  ReadOnlyFilter::Options options;
  options.source = source.uid();
  ReadOnlyFilter& tee =
      kernel.CreateLocal<ReadOnlyFilter>(std::make_unique<TeeTransform>(), options);
  PullSink& main_sink = kernel.CreateLocal<PullSink>(tee.uid(),
                                                     Value(std::string(kChanOut)));
  PullSink& copy_sink = kernel.CreateLocal<PullSink>(tee.uid(), Value("copy"));
  kernel.RunUntil([&] { return main_sink.done() && copy_sink.done(); });
  EXPECT_EQ(main_sink.items(), MakeInts(8));
  EXPECT_EQ(copy_sink.items(), MakeInts(8));
}

// Integer channel identifiers, as in the §7 prototype.
TEST(ChannelTest, IntegerChannelIdentifiersWork) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(4));
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(), Value(int64_t{0}));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items(), MakeInts(4));
}

TEST(ChannelTest, UnknownChannelIsRejected) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(4));
  InvokeResult r = kernel.InvokeAndRun(source.uid(), "Transfer",
                                       TransferArgs{Value("nope"), 1});
  EXPECT_TRUE(r.status.is(StatusCode::kNoSuchChannel));
}

// §5: "Arranging for two or more Ejects to make Read invocations on F does
// not help: F cannot distinguish this from one Eject making the same total
// number of Read invocations." Two sinks on ONE channel split the stream;
// they do not each get a copy.
TEST(ChannelTest, TwoReadersOnOneChannelSplitTheStream) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(10));
  PullSink& a = kernel.CreateLocal<PullSink>(source.uid(),
                                             Value(std::string(kChanOut)));
  PullSink& b = kernel.CreateLocal<PullSink>(source.uid(),
                                             Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return a.done() && b.done(); });
  EXPECT_EQ(a.items().size() + b.items().size(), 10u);
  EXPECT_FALSE(a.items().empty());
  EXPECT_FALSE(b.items().empty());
  // Together they hold each item exactly once.
  ValueList merged = a.items();
  merged.insert(merged.end(), b.items().begin(), b.items().end());
  std::sort(merged.begin(), merged.end(), [](const Value& x, const Value& y) {
    return x.IntOr(0) < y.IntOr(0);
  });
  EXPECT_EQ(merged, MakeInts(10));
}

// §5 security: with capability-only channels, a dishonest Eject that was
// given channel "out" cannot also read channel "report".
TEST(ChannelTest, CapabilityChannelsPreventSnooping) {
  Kernel kernel;
  VectorSource::Options options;
  options.report_every = 2;
  options.capability_only_channels = true;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(6), options);

  // The honest interconnector asks the source for capabilities (§5: "Whoever
  // sets up a pipeline must ask each filter for the UIDs of its channels").
  InvokeResult out_cap = kernel.InvokeAndRun(
      source.uid(), std::string(kOpOpenChannel),
      Value().Set(std::string(kFieldName), Value(std::string(kChanOut))));
  ASSERT_TRUE(out_cap.ok());
  Value out_channel = out_cap.value().Field(kFieldChannel);

  // A dishonest reader guesses spellings for the report channel: all fail,
  // indistinguishably from the channel not existing.
  for (Value guess : {Value("report"), Value(int64_t{1}), Value(Uid(1, 2))}) {
    InvokeResult r = kernel.InvokeAndRun(source.uid(), "Transfer",
                                         TransferArgs{guess, 1});
    EXPECT_TRUE(r.status.is(StatusCode::kNoSuchChannel)) << guess.ToString();
  }

  // The legitimate capability works.
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(), out_channel);
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items().size(), 6u);
}

// After the channel table is locked, even OpenChannel is refused: the interconnection phase
// is over and the channel set is frozen.
TEST(ChannelTest, LockedChannelsRefuseMinting) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(3));
  source.server().table().Lock();
  InvokeResult r = kernel.InvokeAndRun(
      source.uid(), std::string(kOpOpenChannel),
      Value().Set(std::string(kFieldName), Value(std::string(kChanOut))));
  EXPECT_TRUE(r.status.is(StatusCode::kPermissionDenied));
}

TEST(ChannelTest, OpenChannelForUnknownNameFails) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(3));
  InvokeResult r = kernel.InvokeAndRun(
      source.uid(), std::string(kOpOpenChannel),
      Value().Set(std::string(kFieldName), Value("no-such")));
  EXPECT_TRUE(r.status.is(StatusCode::kNoSuchChannel));
}

// An Eject embedding both passive ends (a PassiveBuffer) answers OpenChannel
// from its output side's table: "out" mints a working Transfer capability,
// while the input side's "in" is unknown there.
TEST(ChannelTest, PassiveBufferOpensOutputChannels) {
  Kernel kernel;
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>();
  InvokeResult in = kernel.InvokeAndRun(
      pipe.uid(), std::string(kOpOpenChannel),
      Value().Set(std::string(kFieldName), Value(std::string(kChanIn))));
  EXPECT_TRUE(in.status.is(StatusCode::kNoSuchChannel));
  InvokeResult out = kernel.InvokeAndRun(
      pipe.uid(), std::string(kOpOpenChannel),
      Value().Set(std::string(kFieldName), Value(std::string(kChanOut))));
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(kernel
                  .InvokeAndRun(pipe.uid(), "Push",
                                PushArgs{Value(std::string(kChanIn)), {Value(int64_t{7})}, true})
                  .ok());
  InvokeResult r = kernel.InvokeAndRun(
      pipe.uid(), "Transfer",
      TransferArgs{out.value().Field(kFieldChannel), 4});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.As<BatchReply>()->items, (ValueList{Value(int64_t{7})}));
}

// Each minted capability is distinct, and all address the same channel.
TEST(ChannelTest, MultipleCapabilitiesForOneChannel) {
  Kernel kernel;
  ChannelTable table;
  table.Declare("out");
  auto cap1 = table.MintCapability("out", kernel);
  auto cap2 = table.MintCapability("out", kernel);
  ASSERT_TRUE(cap1 && cap2);
  EXPECT_NE(*cap1, *cap2);
  EXPECT_EQ(table.Resolve(Value(*cap1)), "out");
  EXPECT_EQ(table.Resolve(Value(*cap2)), "out");
  EXPECT_EQ(table.minted_count(), 2u);
}

}  // namespace
}  // namespace eden

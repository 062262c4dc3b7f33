// Pins the resolved FlowLimits {hiwat, lowat} of every channel owner in the
// tree: the two passive ends declared without options, both faces of a
// PassiveBuffer, PushSink, the WriteOnlyFilter input, ReadOnlyFilter
// work-ahead (the default and 0), VectorSource's output and report
// channels, the three multi-input filters and the keyboard device.
//
// Owners that expose their stream end are read through limits(). The rest
// (CmpEject, MergeEject and PassiveBuffer) are probed from outside: the
// producer is left to stall with no consumer, so the queue's depth is its
// hiwat, and then one item per Transfer is drained until the producer
// refills, which happens on the first drain below lowat.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/stream.h"
#include "src/core/stream_acceptor.h"
#include "src/core/stream_server.h"
#include "src/core/transform.h"
#include "src/devices/devices.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/filters/multi_input.h"

namespace eden {
namespace {

void ExpectLimits(const FlowLimits& limits, size_t hiwat, size_t lowat) {
  EXPECT_EQ(limits.hiwat, hiwat);
  EXPECT_EQ(limits.lowat, lowat);
}

ValueList Ints(int64_t first, size_t n) {
  ValueList items;
  for (size_t i = 0; i < n; ++i) {
    items.push_back(Value(first + static_cast<int64_t>(i)));
  }
  return items;
}

std::unique_ptr<Transform> Copy() {
  return std::make_unique<LambdaTransform>(
      "copy", [](const Value& v, const Transform::EmitFn& emit) {
        emit(kChanOut, v);
      });
}

size_t Depth(const MetricsRegistry& metrics, std::string_view component,
             const Uid& owner) {
  const MetricsRegistry::QueueGauge* queue = metrics.QueueFor(component, owner);
  return queue == nullptr ? 0 : queue->depth;
}

// The limits of `owner`'s server channel "out", seen from outside. Its
// producer must have more items than the channel holds and no consumer.
FlowLimits ProbeServer(Kernel& kernel, const MetricsRegistry& metrics,
                       const Uid& owner) {
  kernel.Run();
  FlowLimits seen;
  seen.hiwat = Depth(metrics, "server", owner);
  for (size_t depth = seen.hiwat; depth > 0;) {
    InvokeResult taken = kernel.InvokeAndRun(
        owner, "Transfer", TransferArgs{Value(std::string(kChanOut)), 1});
    EXPECT_TRUE(taken.ok());
    kernel.Run();
    size_t now = Depth(metrics, "server", owner);
    if (now >= depth) {
      // Draining to depth - 1 released the producer, and draining to depth
      // did not: depth - 1 < lowat <= depth.
      seen.lowat = depth;
      break;
    }
    depth = now;
  }
  return seen;
}

// A bare Eject declaring one channel on each passive end, without options.
class BareEnds : public Eject {
 public:
  explicit BareEnds(Kernel& kernel)
      : Eject(kernel, "BareEnds"), server(*this), acceptor(*this) {
    server.DeclareChannel(std::string(kChanOut));
    acceptor.DeclareChannel(std::string(kChanIn));
  }

  StreamServer server;
  StreamAcceptor acceptor;
};

TEST(FlowLimitsPinTest, PassiveEndDefaults) {
  Kernel kernel;
  BareEnds& ends = kernel.CreateLocal<BareEnds>();
  ExpectLimits(ends.server.limits(kChanOut), 4, 2);
  ExpectLimits(ends.acceptor.limits(kChanIn), 8, 4);
  // An undeclared channel has no limits.
  ExpectLimits(ends.server.limits("nowhere"), 0, 0);
  ExpectLimits(ends.acceptor.limits("nowhere"), 0, 0);
}

TEST(FlowLimitsPinTest, PushSinkInput) {
  Kernel kernel;
  PushSink& plain = kernel.CreateLocal<PushSink>();
  ExpectLimits(plain.acceptor().limits(kChanIn), 8, 4);
  PushSink::Options options;
  options.hiwat = 3;
  PushSink& tight = kernel.CreateLocal<PushSink>(options);
  ExpectLimits(tight.acceptor().limits(kChanIn), 3, 1);
  options.hiwat = 6;
  options.lowat = 5;
  PushSink& explicit_lowat = kernel.CreateLocal<PushSink>(options);
  ExpectLimits(explicit_lowat.acceptor().limits(kChanIn), 6, 5);
}

TEST(FlowLimitsPinTest, WriteOnlyFilterInput) {
  Kernel kernel;
  WriteOnlyFilter& plain = kernel.CreateLocal<WriteOnlyFilter>(Copy());
  ExpectLimits(plain.acceptor().limits(kChanIn), 8, 4);
  WriteOnlyFilter::Options options;
  options.input_hiwat = 5;
  WriteOnlyFilter& tight = kernel.CreateLocal<WriteOnlyFilter>(Copy(), options);
  ExpectLimits(tight.acceptor().limits(kChanIn), 5, 2);
  options.input_lowat = 9;
  WriteOnlyFilter& clamped = kernel.CreateLocal<WriteOnlyFilter>(Copy(), options);
  ExpectLimits(clamped.acceptor().limits(kChanIn), 5, 5);
}

TEST(FlowLimitsPinTest, ReadOnlyFilterWorkAhead) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(Ints(0, 4));
  ReadOnlyFilter::Options options;
  options.source = source.uid();
  ReadOnlyFilter& plain = kernel.CreateLocal<ReadOnlyFilter>(Copy(), options);
  ExpectLimits(plain.server().limits(plain.primary_channel()), 4, 2);
  options.work_ahead = 0;  // pure §4 laziness
  ReadOnlyFilter& lazy = kernel.CreateLocal<ReadOnlyFilter>(Copy(), options);
  ExpectLimits(lazy.server().limits(lazy.primary_channel()), 0, 0);
  options.work_ahead = 7;
  options.work_ahead_lowat = 2;
  ReadOnlyFilter& tuned = kernel.CreateLocal<ReadOnlyFilter>(Copy(), options);
  ExpectLimits(tuned.server().limits(tuned.primary_channel()), 7, 2);
}

TEST(FlowLimitsPinTest, VectorSourceChannels) {
  Kernel kernel;
  VectorSource::Options options;
  options.report_every = 2;
  VectorSource& plain = kernel.CreateLocal<VectorSource>(Ints(0, 4), options);
  ExpectLimits(plain.server().limits(kChanOut), 4, 2);
  ExpectLimits(plain.server().limits(kChanReport), 4, 2);
  options.work_ahead = 0;
  VectorSource& lazy = kernel.CreateLocal<VectorSource>(Ints(0, 4), options);
  ExpectLimits(lazy.server().limits(kChanOut), 0, 0);
  ExpectLimits(lazy.server().limits(kChanReport), 0, 0);
  options.work_ahead = 10;
  options.work_ahead_lowat = 3;
  VectorSource& tuned = kernel.CreateLocal<VectorSource>(Ints(0, 4), options);
  ExpectLimits(tuned.server().limits(kChanOut), 10, 3);
  ExpectLimits(tuned.server().limits(kChanReport), 10, 3);
}

TEST(FlowLimitsPinTest, KeyboardDevice) {
  Kernel kernel;
  KeyboardSource& keyboard =
      kernel.CreateLocal<KeyboardSource>(std::vector<Keystroke>{{0, "x"}});
  ExpectLimits(keyboard.server().limits(kChanOut), size_t{1} << 20,
               size_t{1} << 19);
}

TEST(FlowLimitsPinTest, SedOutput) {
  Kernel kernel;
  VectorSource& commands = kernel.CreateLocal<VectorSource>(ValueList{});
  VectorSource& text = kernel.CreateLocal<VectorSource>(Ints(0, 4));
  SedLite& plain = kernel.CreateLocal<SedLite>(StreamRef{commands.uid()},
                                               StreamRef{text.uid()});
  ExpectLimits(plain.server().limits(kChanOut), 4, 2);
  SedLite& wide = kernel.CreateLocal<SedLite>(StreamRef{commands.uid()},
                                              StreamRef{text.uid()}, 9);
  ExpectLimits(wide.server().limits(kChanOut), 9, 4);
}

TEST(FlowLimitsPinTest, CmpOutput) {
  for (auto [work_ahead, hiwat, lowat] :
       std::vector<std::tuple<size_t, size_t, size_t>>{{4, 4, 2}, {6, 6, 3}}) {
    Kernel kernel;
    MetricsRegistry metrics;
    kernel.set_metrics(&metrics);
    VectorSource& left = kernel.CreateLocal<VectorSource>(Ints(0, 40));
    VectorSource& right = kernel.CreateLocal<VectorSource>(Ints(100, 40));
    CmpEject& cmp = kernel.CreateLocal<CmpEject>(
        StreamRef{left.uid()}, StreamRef{right.uid()}, work_ahead);
    ExpectLimits(ProbeServer(kernel, metrics, cmp.uid()), hiwat, lowat);
  }
}

TEST(FlowLimitsPinTest, MergeOutput) {
  for (auto [work_ahead, hiwat, lowat] :
       std::vector<std::tuple<size_t, size_t, size_t>>{{4, 4, 2}, {5, 5, 2}}) {
    Kernel kernel;
    MetricsRegistry metrics;
    kernel.set_metrics(&metrics);
    VectorSource& a = kernel.CreateLocal<VectorSource>(Ints(0, 40));
    VectorSource& b = kernel.CreateLocal<VectorSource>(Ints(100, 40));
    MergeEject& merge = kernel.CreateLocal<MergeEject>(
        std::vector<StreamRef>{{a.uid()}, {b.uid()}}, work_ahead);
    ExpectLimits(ProbeServer(kernel, metrics, merge.uid()), hiwat, lowat);
  }
}

// A PassiveBuffer fed 100 items and never read: the output face stalls at
// its hiwat, then the input face fills to its own and withholds the rest.
// Draining the output face one item at a time recovers the output face's
// limits; the number of Push replies released by then pins the input face's
// lowat.
struct PipeProbe {
  FlowLimits out;
  size_t in_hiwat = 0;
  uint64_t produced_before = 0;
  uint64_t produced_after = 0;
};

PipeProbe ProbePipe(const PassiveBuffer::Options& options) {
  Kernel kernel;
  MetricsRegistry metrics;
  kernel.set_metrics(&metrics);
  PushSource& source = kernel.CreateLocal<PushSource>(Ints(0, 100));
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>(options);
  source.BindOutput(pipe.uid(), Value(std::string(kChanIn)));
  kernel.Run();
  PipeProbe probe;
  probe.in_hiwat = Depth(metrics, "acceptor", pipe.uid());
  probe.produced_before = source.produced_count();
  probe.out = ProbeServer(kernel, metrics, pipe.uid());
  probe.produced_after = source.produced_count();
  return probe;
}

TEST(FlowLimitsPinTest, PassiveBufferFaces) {
  PipeProbe plain = ProbePipe(PassiveBuffer::Options{});
  ExpectLimits(plain.out, 16, 8);
  EXPECT_EQ(plain.in_hiwat, 16u);
  // 16 items in the output face, one in the data loop's hand and 16 in the
  // input face, whose last Push reply is withheld.
  EXPECT_EQ(plain.produced_before, 32u);
  EXPECT_EQ(plain.produced_after, 41u);

  PassiveBuffer::Options tight;
  tight.hiwat = 6;
  tight.lowat = 2;
  PipeProbe small = ProbePipe(tight);
  ExpectLimits(small.out, 6, 2);
  EXPECT_EQ(small.in_hiwat, 6u);
  EXPECT_EQ(small.produced_before, 12u);
  EXPECT_EQ(small.produced_after, 17u);
}

}  // namespace
}  // namespace eden

// Core transput tests: the four primitives, passive buffers, the three
// disciplines, and the §4 invocation-count claims.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/pipeline.h"
#include "src/core/stream.h"
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

TransformFactory Identity() {
  return [] {
    return std::make_unique<LambdaTransform>(
        "identity", [](const Value& v, const Transform::EmitFn& emit) {
          emit(kChanOut, v);
        });
  };
}

TransformFactory Doubler() {
  return [] {
    return std::make_unique<LambdaTransform>(
        "double", [](const Value& v, const Transform::EmitFn& emit) {
          emit(kChanOut, Value(v.IntOr(0) * 2));
        });
  };
}

TransformFactory EvenOnly() {
  return [] {
    return std::make_unique<LambdaTransform>(
        "even", [](const Value& v, const Transform::EmitFn& emit) {
          if (v.IntOr(1) % 2 == 0) {
            emit(kChanOut, v);
          }
        });
  };
}

TEST(StreamTest, SourceToSinkDirect) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(5));
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items(), MakeInts(5));
  EXPECT_TRUE(sink.stream_status().is(StatusCode::kEndOfStream));
}

TEST(StreamTest, EmptySourceEndsImmediately) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(ValueList{});
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_TRUE(sink.items().empty());
  EXPECT_TRUE(sink.done());
}

TEST(StreamTest, BatchedTransferMovesFewerMessages) {
  auto run = [](int64_t batch) {
    Kernel kernel;
    VectorSource::Options source_options;
    source_options.work_ahead = 16;  // enough buffered to fill whole batches
    VectorSource& source =
        kernel.CreateLocal<VectorSource>(MakeInts(64), source_options);
    PullSink::Options options;
    options.batch = batch;
    PullSink& sink = kernel.CreateLocal<PullSink>(
        source.uid(), Value(std::string(kChanOut)), options);
    kernel.RunUntil([&] { return sink.done(); });
    EXPECT_EQ(sink.items().size(), 64u);
    return kernel.stats().invocations_sent.load();
  };
  uint64_t unbatched = run(1);
  uint64_t batched = run(8);
  EXPECT_GT(unbatched, batched * 4);
}

TEST(StreamTest, PushSourceToPushSink) {
  Kernel kernel;
  PushSource& source = kernel.CreateLocal<PushSource>(MakeInts(5));
  PushSink& sink = kernel.CreateLocal<PushSink>();
  source.BindOutput(sink.uid(), Value(std::string(kChanIn)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items(), MakeInts(5));
}

TEST(StreamTest, PassiveBufferConnectsActiveWriterToActiveReader) {
  Kernel kernel;
  PushSource& source = kernel.CreateLocal<PushSource>(MakeInts(7));
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>();
  PullSink& sink = kernel.CreateLocal<PullSink>(pipe.uid(),
                                                Value(std::string(kChanOut)));
  source.BindOutput(pipe.uid(), Value(std::string(kChanIn)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items(), MakeInts(7));
  EXPECT_EQ(pipe.items_through(), 7u);
}

TEST(StreamTest, PassiveBufferFlowControlBoundsBuffering) {
  // A fast producer against an absent consumer must stall at the pipe's
  // capacity instead of buffering everything.
  Kernel kernel;
  PushSource& source = kernel.CreateLocal<PushSource>(MakeInts(100));
  PassiveBuffer::Options options;
  options.hiwat = 4;
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>(options);
  source.BindOutput(pipe.uid(), Value(std::string(kChanIn)));
  kernel.Run();
  // Producer blocked: far fewer than 100 items produced.
  EXPECT_LT(source.produced_count(), 10u);

  PullSink& sink = kernel.CreateLocal<PullSink>(pipe.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items().size(), 100u);
}

TEST(StreamTest, ReaderSurfacesSourceCrash) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(1000));
  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  // Let a few items through, then kill the source.
  kernel.RunUntil([&] { return sink.items().size() >= 3; });
  kernel.Crash(source.uid());
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_TRUE(sink.done());
  EXPECT_FALSE(sink.stream_status().ok_or_end());
  EXPECT_LT(sink.items().size(), 1000u);
}

// ---------------------------------------------------------------- disciplines

class DisciplineTest : public ::testing::TestWithParam<Discipline> {};

TEST_P(DisciplineTest, PureFilterChainProducesSameOutput) {
  Kernel kernel;
  PipelineOptions options;
  options.discipline = GetParam();
  ValueList output =
      RunPipeline(kernel, MakeInts(20), {EvenOnly(), Doubler(), Doubler()}, options);
  ValueList expected;
  for (int i = 0; i < 20; i += 2) {
    expected.push_back(Value(int64_t{i} * 4));
  }
  EXPECT_EQ(output, expected);
}

TEST_P(DisciplineTest, EjectCensusMatchesPrediction) {
  Kernel kernel;
  PipelineOptions options;
  options.discipline = GetParam();
  size_t before = kernel.active_eject_count();
  PipelineHandle handle =
      BuildPipeline(kernel, MakeInts(4), {Identity(), Identity(), Identity()}, options);
  EXPECT_EQ(handle.eject_count(), PredictedEjectCount(GetParam(), 3));
  EXPECT_EQ(kernel.active_eject_count() - before, handle.eject_count());
  kernel.RunUntil([&] { return handle.done(); });
  EXPECT_EQ(handle.output().size(), 4u);
}

TEST_P(DisciplineTest, EmptyStageListStillFlows) {
  Kernel kernel;
  PipelineOptions options;
  options.discipline = GetParam();
  ValueList output = RunPipeline(kernel, MakeInts(6), {}, options);
  EXPECT_EQ(output, MakeInts(6));
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, DisciplineTest,
                         ::testing::Values(Discipline::kReadOnly,
                                           Discipline::kWriteOnly,
                                           Discipline::kConventional),
                         [](const ::testing::TestParamInfo<Discipline>& info) {
                           std::string name(DisciplineName(info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ------------------------------------------------- §4 invocation count claims

// Measures steady-state Transfer/Push invocations per datum by running M
// items through the pipeline and dividing out the per-stream constant
// overhead using a second run with a different M.
double MeasuredInvocationsPerDatum(Discipline discipline, size_t stages,
                                   int items_small, int items_large) {
  auto run = [&](int n) {
    Kernel kernel;
    PipelineOptions options;
    options.discipline = discipline;
    options.work_ahead = 4;
    std::vector<TransformFactory> factories;
    for (size_t i = 0; i < stages; ++i) {
      factories.push_back([] {
        return std::make_unique<LambdaTransform>(
            "id", [](const Value& v, const Transform::EmitFn& emit) {
              emit(kChanOut, v);
            });
      });
    }
    ValueList out = RunPipeline(kernel, MakeInts(n), factories, options);
    EXPECT_EQ(out.size(), static_cast<size_t>(n));
    return kernel.stats().invocations_sent.load();
  };
  uint64_t small = run(items_small);
  uint64_t large = run(items_large);
  return static_cast<double>(large - small) / (items_large - items_small);
}

TEST(InvocationCountTest, ReadOnlyNeedsNPlusOnePerDatum) {
  for (size_t n : {0u, 1u, 3u, 6u}) {
    double measured = MeasuredInvocationsPerDatum(Discipline::kReadOnly, n, 64, 192);
    EXPECT_NEAR(measured, static_cast<double>(n + 1), 0.25)
        << "stages=" << n;
  }
}

TEST(InvocationCountTest, WriteOnlyNeedsNPlusOnePerDatum) {
  for (size_t n : {0u, 1u, 3u, 6u}) {
    double measured = MeasuredInvocationsPerDatum(Discipline::kWriteOnly, n, 64, 192);
    EXPECT_NEAR(measured, static_cast<double>(n + 1), 0.25)
        << "stages=" << n;
  }
}

TEST(InvocationCountTest, ConventionalNeedsTwoNPlusTwoPerDatum) {
  for (size_t n : {0u, 1u, 3u, 6u}) {
    double measured =
        MeasuredInvocationsPerDatum(Discipline::kConventional, n, 64, 192);
    EXPECT_NEAR(measured, static_cast<double>(2 * n + 2), 0.25)
        << "stages=" << n;
  }
}

// ---------------------------------------------------------------- laziness §4

TEST(LazinessTest, NoWorkUntilSinkConnects) {
  Kernel kernel;
  VectorSource::Options options;
  options.start_on_demand = true;
  options.work_ahead = 0;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(10), options);
  kernel.Run();
  EXPECT_EQ(source.produced_count(), 0u);  // "No data flows until a sink..."

  PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items().size(), 10u);
}

TEST(LazinessTest, WorkAheadBuffersInAdvance) {
  Kernel kernel;
  VectorSource::Options options;
  options.work_ahead = 6;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeInts(100), options);
  kernel.Run();
  // "each Eject does a certain amount of computation in advance": exactly
  // the work-ahead allowance, then suspends pending a request.
  EXPECT_EQ(source.produced_count(), 6u);
  EXPECT_EQ(source.server().buffered(kChanOut), 6u);
}

}  // namespace
}  // namespace eden

// Heap calls per datum on the figure chains, counted inside Kernel::Run only
// (the pipeline build and the input are outside the count). Its own binary:
// counting_new.cc replaces the global operator new for everything linked in.
//
// The input is the benchmark's chain input for seed 1: 2000 Fortran-card
// lines through Figure 2's six filters. With the stream messages as
// string-keyed Value maps, Run made 98.2 heap calls per datum on the
// read-only chain and 219.7 on the conventional one. As typed records, with
// each filter reusing its emitted-items buffer and a Push moving its items
// when no retry can need them, it makes 64.2 and 145.9. The bounds sit
// 32 and 48 calls below the map form.
//
// The write-only chain (no processing cost, as the read-only one) makes
// 71.6. No benchmark workload runs WriteOnlyFilter, so this row is the only
// bound on its per-datum cost; it sits at 73, the read-only row's margin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/eden/kernel.h"
#include "src/eden/random.h"
#include "src/filters/registry.h"
#include "tests/counting_new.h"

namespace eden {
namespace {

constexpr int kLines = 2000;

// The benchmark's seed mixer and line generator, so the input matches its
// chain workloads for seed 1.
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x == 0 ? 1 : x;
}

ValueList CardLines(int n, uint64_t seed) {
  Rng rng(seed);
  ValueList items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line = rng.Chance(0.25) ? "C " : "      ";
    line += rng.Word(3, 10) + " = " + rng.Word(1, 6);
    items.emplace_back(std::move(line));
  }
  return items;
}

std::vector<TransformFactory> Figure2Chain() {
  std::vector<TransformFactory> chain;
  for (const char* command : {"expand 8", "upper", "rot13", "replace = :=", "nl", "copy"}) {
    std::istringstream words(command);
    std::string name;
    words >> name;
    std::vector<std::string> args;
    for (std::string arg; words >> arg;) {
      args.push_back(arg);
    }
    std::optional<TransformFactory> factory = MakeTransformByName(name, args);
    EXPECT_TRUE(factory.has_value()) << command;
    chain.push_back(*factory);
  }
  return chain;
}

// Heap calls per datum made by Run over the chain in `discipline`.
double HeapCallsPerDatum(Discipline discipline, Tick processing_cost) {
  KernelOptions kernel_options;
  kernel_options.uid_seed = MixSeed(1, 0xE1D);
  Kernel kernel(kernel_options);
  PipelineOptions options;
  options.discipline = discipline;
  options.processing_cost = processing_cost;
  PipelineHandle handle =
      BuildPipeline(kernel, CardLines(kLines, MixSeed(1, 1)), Figure2Chain(), options);

  size_t before = Allocations();
  EXPECT_TRUE(kernel.Run());
  size_t calls = Allocations() - before;

  EXPECT_EQ(handle.output().size(), static_cast<size_t>(kLines));
  return static_cast<double>(calls) / kLines;
}

TEST(HeapBudgetTest, ReadOnlyChainStaysUnder66CallsPerDatum) {
  double per_datum = HeapCallsPerDatum(Discipline::kReadOnly, 0);
  std::printf("heap calls per datum: %.1f\n", per_datum);
  EXPECT_LE(per_datum, 66.0);
}

TEST(HeapBudgetTest, WriteOnlyChainStaysUnder73CallsPerDatum) {
  double per_datum = HeapCallsPerDatum(Discipline::kWriteOnly, 0);
  std::printf("heap calls per datum: %.1f\n", per_datum);
  EXPECT_LE(per_datum, 73.0);
}

TEST(HeapBudgetTest, ConventionalChainStaysUnder172CallsPerDatum) {
  double per_datum = HeapCallsPerDatum(Discipline::kConventional, 50);
  std::printf("heap calls per datum: %.1f\n", per_datum);
  EXPECT_LE(per_datum, 172.0);
}

}  // namespace
}  // namespace eden

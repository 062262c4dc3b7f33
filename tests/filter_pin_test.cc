// Pins what the three filter disciplines do, so a change to how a filter is
// written must leave every value unchanged. For each discipline, with
// recovery off and on, and for two chains over the same 40 lines, the test
// digests:
//   * the sink output;
//   * the kernel Stats delta of the build and run;
//   * kernel.store().total_bytes();
//   * Codec::Encode(SaveState()) of every filter once the run is over.
// One chain ends in `head 7`: a done Transform stops an active input but
// drains a passive one, and with a checkpoint every 7 items the passive
// input's seventh item is checkpointed where an active input stops first.
// The other holds everything back in `sort`.
//
// It also pins what a sink sees when a filter's upstream fails mid-stream
// in a two-copy pipeline: a read-only filter aborts its passive output, so
// the sink ends with the error; a conventional filter ends its active
// output cleanly, so the sink ends with END_OF_STREAM.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/pipeline.h"
#include "src/eden/codec.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/filters/registry.h"

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

ValueList Lines(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("line " + std::to_string((i * 7) % 11) + " of " +
                          std::to_string(i)));
  }
  return items;
}

std::vector<TransformFactory> Chain(const std::vector<std::string>& commands) {
  std::vector<TransformFactory> chain;
  for (const std::string& command : commands) {
    std::vector<std::string> words;
    size_t start = 0;
    for (size_t space; (space = command.find(' ', start)) != std::string::npos;
         start = space + 1) {
      words.push_back(command.substr(start, space - start));
    }
    words.push_back(command.substr(start));
    std::string name = words.front();
    words.erase(words.begin());
    std::optional<TransformFactory> factory = MakeTransformByName(name, words);
    EXPECT_TRUE(factory.has_value()) << command;
    chain.push_back(*factory);
  }
  return chain;
}

const std::vector<std::string> kHeadChain = {"upper", "head 7", "nl"};
const std::vector<std::string> kSortChain = {"rot13", "sort", "nl"};

struct Facts {
  std::string output;
  std::string stats;
  uint64_t store_bytes = 0;
  std::string states;       // every filter's encoded state, concatenated
  std::string states_text;  // the same states, rendered for messages
};

Facts Run(Discipline discipline, bool recovery,
          const std::vector<std::string>& chain) {
  Kernel kernel;
  PipelineOptions options;
  options.discipline = discipline;
  options.recovery.enabled = recovery;
  options.recovery.checkpoint_every = 7;
  const Stats before = kernel.stats();
  PipelineHandle handle = BuildPipeline(kernel, Lines(40), Chain(chain), options);
  EXPECT_TRUE(kernel.RunUntil([&] { return handle.done(); }));
  kernel.Run();
  Facts facts;
  facts.output = ValueToJson(Value(handle.output()));
  facts.stats = (kernel.stats() - before).ToString();
  facts.store_bytes = kernel.store().total_bytes();
  for (size_t i = 0; i < handle.ejects.size(); ++i) {
    if (handle.stage_names[i].rfind("filter", 0) != 0) {
      continue;
    }
    Eject* filter = kernel.Find(handle.ejects[i]);
    EXPECT_NE(filter, nullptr) << handle.stage_names[i];
    if (filter == nullptr) {
      continue;
    }
    Value state = filter->SaveState();
    Bytes encoded = Codec::Encode(state);
    facts.states.append(encoded.begin(), encoded.end());
    facts.states_text += handle.stage_names[i] + " " + state.ToString() + "\n";
  }
  return facts;
}

// Digests of output, stats and states, and the store's total bytes.
struct Pinned {
  uint64_t output;
  uint64_t stats;
  uint64_t states;
  uint64_t store_bytes;
};

void ExpectPinned(Discipline discipline, bool recovery,
                  const std::vector<std::string>& chain, const Pinned& pinned) {
  const Facts facts = Run(discipline, recovery, chain);
  const std::string where = std::string(DisciplineName(discipline)) +
                            (recovery ? " recovery " : " plain ") + chain[1];
  EXPECT_EQ(Fnv1a(facts.output), pinned.output)
      << where << " output changed; now:\n" << facts.output;
  EXPECT_EQ(Fnv1a(facts.stats), pinned.stats)
      << where << " stats changed; now:\n" << facts.stats;
  EXPECT_EQ(Fnv1a(facts.states), pinned.states)
      << where << " states changed; now:\n" << facts.states_text;
  EXPECT_EQ(facts.store_bytes, pinned.store_bytes) << where;
}

TEST(FilterPinTest, ReadOnly) {
  ExpectPinned(Discipline::kReadOnly, false, kHeadChain,
               {0x4a6e6b16b53b5d39ULL, 0x4ea85b758fc7aa53ULL,
                0x148cd125e9eb7e68ULL, 0});
  ExpectPinned(Discipline::kReadOnly, true, kHeadChain,
               {0x4a6e6b16b53b5d39ULL, 0xb6df4966c475ccedULL,
                0x9cdba6fbd84cb14cULL, 523});
  ExpectPinned(Discipline::kReadOnly, false, kSortChain,
               {0x3d65cff66a2ae01bULL, 0x5fda92db15e38a97ULL,
                0x1d701bd99d649238ULL, 0});
  ExpectPinned(Discipline::kReadOnly, true, kSortChain,
               {0x3d65cff66a2ae01bULL, 0x0b51fa0cbcc5f1c9ULL,
                0xb0adabeb158dc18fULL, 478});
}

TEST(FilterPinTest, WriteOnly) {
  ExpectPinned(Discipline::kWriteOnly, false, kHeadChain,
               {0x4a6e6b16b53b5d39ULL, 0xd0c1ab57663af712ULL,
                0x784c660eb88595daULL, 0});
  ExpectPinned(Discipline::kWriteOnly, true, kHeadChain,
               {0x4a6e6b16b53b5d39ULL, 0x0bf42fbb3ada8837ULL,
                0x263c912880153a48ULL, 842});
  ExpectPinned(Discipline::kWriteOnly, false, kSortChain,
               {0x3d65cff66a2ae01bULL, 0x0252ed8729c5640dULL,
                0x635c8c67121f555aULL, 0});
  ExpectPinned(Discipline::kWriteOnly, true, kSortChain,
               {0x3d65cff66a2ae01bULL, 0x8d6184d6f70ac9c7ULL,
                0x88fc356deb10f065ULL, 519});
}

TEST(FilterPinTest, Conventional) {
  ExpectPinned(Discipline::kConventional, false, kHeadChain,
               {0x4a6e6b16b53b5d39ULL, 0x4c0c3922bc3f50a2ULL,
                0x2223614c86aad9a2ULL, 0});
  ExpectPinned(Discipline::kConventional, true, kHeadChain,
               {0x4a6e6b16b53b5d39ULL, 0x2f6c42ccebfb792fULL,
                0xd7eb34d8b400722aULL, 481});
  ExpectPinned(Discipline::kConventional, false, kSortChain,
               {0x3d65cff66a2ae01bULL, 0x00c5d9577eeb85f6ULL,
                0x133e82935f3b62a7ULL, 0});
  ExpectPinned(Discipline::kConventional, true, kSortChain,
               {0x3d65cff66a2ae01bULL, 0x3082c70d1853f412ULL,
                0x32147b716e564d0eULL, 351});
}

// Crashes stage `crashed` of a two-copy pipeline over 100 lines once the
// sink holds 5 items; returns the sink's item count and final status.
std::pair<size_t, Status> UpstreamFailure(Discipline discipline,
                                          std::string_view crashed) {
  Kernel kernel;
  PipelineOptions options;
  options.discipline = discipline;
  options.work_ahead = 1;
  PipelineHandle handle =
      BuildPipeline(kernel, Lines(100), Chain({"copy", "copy"}), options);
  kernel.RunUntil([&] { return handle.output().size() >= 5; });
  for (size_t i = 0; i < handle.ejects.size(); ++i) {
    if (handle.stage_names[i] == crashed) {
      kernel.Crash(handle.ejects[i]);
    }
  }
  EXPECT_TRUE(kernel.RunUntil([&] { return handle.done(); }));
  EXPECT_NE(handle.pull_sink, nullptr);
  if (handle.pull_sink == nullptr) {
    return {0, Status()};
  }
  return {handle.output().size(), handle.pull_sink->stream_status()};
}

// A read-only filter aborts its passive output when its upstream fails: the
// sink sees the failure.
TEST(FilterPinTest, ReadOnlyUpstreamFailureAbortsOutput) {
  auto [items, status] = UpstreamFailure(Discipline::kReadOnly, "filter1");
  EXPECT_EQ(items, 5u);
  EXPECT_EQ(StatusCodeName(status.code()), "NO_SUCH_EJECT") << status.ToString();
}

// A conventional filter ends its active output cleanly when its upstream
// fails: the sink cannot tell the truncated stream from a finished one.
TEST(FilterPinTest, ConventionalUpstreamFailureEndsOutputCleanly) {
  auto [items, status] = UpstreamFailure(Discipline::kConventional, "pipe1");
  EXPECT_EQ(items, 5u);
  EXPECT_EQ(StatusCodeName(status.code()), "END_OF_STREAM") << status.ToString();
}

}  // namespace
}  // namespace eden

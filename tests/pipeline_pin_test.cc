// Pins what BuildPipeline constructs, for every discipline with recovery off
// and on, under two placements: every Eject on node 0 of a one-shard kernel,
// and distinct_nodes + partition_shard on a four-shard kernel that already
// holds one pipeline (so node ids, shard hints and the reactivation type
// names' "#2" suffixes all start past the first build).
//
// For each case the test digests the handle's census (ejects, stage names,
// passive buffer count, monitor), each Eject's node and type name, the
// kernel's node count and registered type names, the sink output and the
// ShardRaceAnalyzer certificate of the run. A change to how pipelines are
// built must leave every digest unchanged. On a mismatch the message shows
// the new text.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/eden/verify/shard_audit.h"
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

struct Facts {
  std::string census;
  std::string ejects;
  std::string kernel;
  std::string output;
  std::string certificate;
};

std::string CensusText(const PipelineHandle& handle) {
  std::string text = std::string(DisciplineName(handle.discipline)) + "\n";
  for (size_t i = 0; i < handle.ejects.size(); ++i) {
    text += handle.ejects[i].ToString() + " " + handle.stage_names[i] + "\n";
  }
  text += "names " + std::to_string(handle.stage_names.size()) + "\n";
  text += "pipes " + std::to_string(handle.passive_buffer_count) + "\n";
  text += "source " + handle.source.ToString() + "\n";
  text += "sink " + handle.sink.ToString() + "\n";
  text += "monitor " + handle.monitor.ToString() + "\n";
  return text;
}

std::string EjectText(Kernel& kernel, const PipelineHandle& handle) {
  std::vector<Uid> uids = handle.ejects;
  if (!handle.monitor.IsNil()) {
    uids.push_back(handle.monitor);
  }
  std::string text;
  for (const Uid& uid : uids) {
    const Eject* eject = kernel.Find(uid);
    text += eject == nullptr ? std::string("missing")
                             : std::to_string(eject->node()) + " " +
                                   std::to_string(kernel.ShardOf(eject->node())) +
                                   " " + eject->type_name();
    text += "\n";
  }
  return text;
}

std::string KernelText(Kernel& kernel) {
  std::string text = "nodes " + std::to_string(kernel.node_count()) + "\n";
  for (const std::string& name : kernel.types().TypeNames()) {
    text += name + "\n";
  }
  return text;
}

ValueList Lines(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("line " + std::to_string(i % 7) + " of " +
                          std::to_string(i)));
  }
  return items;
}

std::vector<TransformFactory> Stages() {
  return {
      [] { return std::make_unique<GrepTransform>("1"); },
      [] { return std::make_unique<LineNumberTransform>(); },
      [] { return std::make_unique<CopyTransform>(); },
  };
}

Facts Run(Discipline discipline, bool recovery, bool sharded) {
  KernelOptions kernel_options;
  kernel_options.shards = sharded ? 4 : 1;
  Kernel kernel(kernel_options);
  verify::ShardRaceAnalyzer auditor;
  kernel.set_auditor(&auditor);
  PipelineOptions options;
  options.discipline = discipline;
  options.pipe_capacity = 3;
  options.processing_cost = 30;
  options.recovery.enabled = recovery;
  if (sharded) {
    options.distinct_nodes = true;
    options.partition_shard = 2;
  }
  PipelineHandle first;
  if (sharded) {
    first = BuildPipeline(kernel, Lines(12), Stages(), options);
  }
  PipelineHandle handle = BuildPipeline(kernel, Lines(40), Stages(), options);
  Facts facts;
  facts.census = CensusText(handle);
  facts.ejects = EjectText(kernel, handle);
  facts.kernel = KernelText(kernel);
  EXPECT_TRUE(kernel.RunUntil([&] {
    return handle.done() && (!sharded || first.done());
  }));
  kernel.Run();
  facts.output = ValueToJson(Value(handle.output()));
  if (sharded) {
    facts.output += ValueToJson(Value(first.output()));
  }
  EXPECT_TRUE(auditor.ok()) << auditor.ToString();
  facts.certificate = auditor.Digest().ToJson();
  return facts;
}

// Digests, in order, of: census, ejects, kernel, output, certificate.
using Digests = std::array<uint64_t, 5>;

void ExpectPinned(Discipline discipline, bool recovery, bool sharded,
                  const Digests& pinned) {
  const Facts facts = Run(discipline, recovery, sharded);
  const std::pair<const char*, const std::string*> named[] = {
      {"census", &facts.census},
      {"ejects", &facts.ejects},
      {"kernel", &facts.kernel},
      {"output", &facts.output},
      {"certificate", &facts.certificate},
  };
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(Fnv1a(*named[i].second), pinned[i])
        << DisciplineName(discipline) << (recovery ? " recovery" : "")
        << (sharded ? " sharded" : " node0") << " " << named[i].first
        << " changed; now:\n"
        << named[i].second->substr(0, 4000);
  }
}

TEST(PipelinePinTest, ReadOnly) {
  ExpectPinned(Discipline::kReadOnly, false, false,
               {0xfe85ca49c4910491ULL, 0x25398ba6a997dd8bULL,
                0x09a540e114f1b8c5ULL, 0x9f3ca05f209a3e31ULL,
                0x821ecd4ab6b0c871ULL});
  ExpectPinned(Discipline::kReadOnly, true, false,
               {0xa1e216884ba23b7fULL, 0x17e6cd2a8c637bc3ULL,
                0xcb80f6c476520ad7ULL, 0x9f3ca05f209a3e31ULL,
                0x1d17915df9f298bbULL});
  ExpectPinned(Discipline::kReadOnly, false, true,
               {0x7dfd8960b0034c80ULL, 0xcd813e314dfd653eULL,
                0x5560ab76969d44faULL, 0x044f5db7969bea36ULL,
                0xe8c0472a1844efebULL});
  ExpectPinned(Discipline::kReadOnly, true, true,
               {0x166cc2b6e22ca425ULL, 0xcaec16f1d9c2b8c3ULL,
                0x140b169fdc24694dULL, 0x044f5db7969bea36ULL,
                0x4fd7501ece8a25e1ULL});
}

TEST(PipelinePinTest, WriteOnly) {
  ExpectPinned(Discipline::kWriteOnly, false, false,
               {0xaa119eb225bc4a78ULL, 0x222d9b92ad244430ULL,
                0x09a540e114f1b8c5ULL, 0x9f3ca05f209a3e31ULL,
                0x3359626d35fb4134ULL});
  ExpectPinned(Discipline::kWriteOnly, true, false,
               {0xb7d74d9f7e44af36ULL, 0x935b852d61727e2cULL,
                0xf9e948075d1b29d4ULL, 0x9f3ca05f209a3e31ULL,
                0xc4758855f2dd28d1ULL});
  ExpectPinned(Discipline::kWriteOnly, false, true,
               {0xe17d7ae0ce669bb1ULL, 0x3efcf0ce51645eedULL,
                0x5560ab76969d44faULL, 0x044f5db7969bea36ULL,
                0xa3c6d1ea72551dc4ULL});
  ExpectPinned(Discipline::kWriteOnly, true, true,
               {0x89ea32c9149b1220ULL, 0x773b091e24dd1f92ULL,
                0x61e87bcf489c4cd9ULL, 0x044f5db7969bea36ULL,
                0x1c9f16a4a263c367ULL});
}

TEST(PipelinePinTest, Conventional) {
  ExpectPinned(Discipline::kConventional, false, false,
               {0xb78500efbf8dbbc8ULL, 0xaf913518ba494376ULL,
                0x09a540e114f1b8c5ULL, 0x9f3ca05f209a3e31ULL,
                0x2f4f3ab501800408ULL});
  ExpectPinned(Discipline::kConventional, true, false,
               {0xc17f7877c0b71ca2ULL, 0xeab82cfd7a49ac22ULL,
                0x4d967dd7b0060287ULL, 0x9f3ca05f209a3e31ULL,
                0x453b58c26d68d3d4ULL});
  ExpectPinned(Discipline::kConventional, false, true,
               {0x0b0e1d637991dc2aULL, 0xd2a4310b522e1157ULL,
                0x55456b7696861082ULL, 0x044f5db7969bea36ULL,
                0xdf9e1d1dad5fe690ULL});
  ExpectPinned(Discipline::kConventional, true, true,
               {0x4026d211eec58d83ULL, 0x62418f37fcb2353cULL,
                0x09ea7854e84eb545ULL, 0x044f5db7969bea36ULL,
                0xd53d38e5549b098dULL});
}

}  // namespace
}  // namespace eden

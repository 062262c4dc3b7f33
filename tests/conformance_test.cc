// Runs the Sequence-protocol conformance harness against every source-like
// Eject in the repository — the executable form of §2's "any Eject which
// responds in the appropriate way is a satisfactory [source]".
#include <gtest/gtest.h>

#include "src/core/conformance.h"
#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/devices/devices.h"
#include "src/eden/kernel.h"
#include "src/filters/multi_input.h"
#include "src/filters/transforms.h"
#include "src/fs/directory.h"
#include "src/fs/file.h"
#include "src/fs/map_file.h"
#include "src/fs/unix_fs.h"

namespace eden {
namespace {

ValueList MakeItems(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("item " + std::to_string(i)));
  }
  return items;
}

TEST(ConformanceTest, VectorSource) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeItems(10));
  ConformanceReport report = CheckSourceConformance(kernel, source.uid());
  EXPECT_TRUE(report.conformant) << report.Summary();
  EXPECT_EQ(report.items.size(), 10u);
}

TEST(ConformanceTest, EmptyVectorSource) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(ValueList{});
  ConformanceReport report = CheckSourceConformance(kernel, source.uid());
  EXPECT_TRUE(report.conformant) << report.Summary();
  EXPECT_TRUE(report.items.empty());
}

TEST(ConformanceTest, ReadOnlyFilter) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(MakeItems(7));
  ReadOnlyFilter::Options options;
  options.source = source.uid();
  ReadOnlyFilter& filter = kernel.CreateLocal<ReadOnlyFilter>(
      std::make_unique<CopyTransform>(), options);
  ConformanceReport report = CheckSourceConformance(kernel, filter.uid());
  EXPECT_TRUE(report.conformant) << report.Summary();
  EXPECT_EQ(report.items.size(), 7u);
}

TEST(ConformanceTest, PassiveBuffer) {
  Kernel kernel;
  PushSource& producer = kernel.CreateLocal<PushSource>(MakeItems(5));
  PassiveBuffer& pipe = kernel.CreateLocal<PassiveBuffer>();
  producer.BindOutput(pipe.uid(), Value(std::string(kChanIn)));
  ConformanceReport report = CheckSourceConformance(kernel, pipe.uid());
  EXPECT_TRUE(report.conformant) << report.Summary();
  EXPECT_EQ(report.items.size(), 5u);
}

TEST(ConformanceTest, FileSharedChannelRewinds) {
  Kernel kernel;
  FileEject& file = kernel.CreateLocal<FileEject>("a\nb\nc\n");
  ConformanceOptions options;
  options.post_end = PostEndBehavior::kRewind;
  ConformanceReport report = CheckSourceConformance(kernel, file.uid(), options);
  EXPECT_TRUE(report.conformant) << report.Summary();
  EXPECT_EQ(report.items.size(), 3u);
}

TEST(ConformanceTest, MapFileSharedChannelRewinds) {
  Kernel kernel;
  MapFileEject& file = kernel.CreateLocal<MapFileEject>(MakeItems(4));
  ConformanceOptions options;
  options.post_end = PostEndBehavior::kRewind;
  ConformanceReport report = CheckSourceConformance(kernel, file.uid(), options);
  EXPECT_TRUE(report.conformant) << report.Summary();
}

TEST(ConformanceTest, UnixFileSourceVanishes) {
  Kernel kernel;
  HostFs host;
  host.Put("/f", "1\n2\n");
  UnixFileSystemEject& ufs = kernel.CreateLocal<UnixFileSystemEject>(host);
  InvokeResult opened = kernel.InvokeAndRun(ufs.uid(), "NewStream",
                                            Value().Set("path", Value("/f")));
  Uid stream = *opened.value().Field("stream").AsUid();
  ConformanceOptions options;
  options.post_end = PostEndBehavior::kVanish;
  // The bootstrap UnixFile accepts any channel spelling; skip that probe.
  options.check_unknown_channel = false;
  ConformanceReport report = CheckSourceConformance(kernel, stream, options);
  EXPECT_TRUE(report.conformant) << report.Summary();
  EXPECT_EQ(report.items.size(), 2u);
}

TEST(ConformanceTest, MergeEject) {
  Kernel kernel;
  VectorSource& a = kernel.CreateLocal<VectorSource>(MakeItems(3));
  VectorSource& b = kernel.CreateLocal<VectorSource>(MakeItems(2));
  MergeEject& merge = kernel.CreateLocal<MergeEject>(
      std::vector<StreamRef>{{a.uid()}, {b.uid()}});
  ConformanceReport report = CheckSourceConformance(kernel, merge.uid());
  EXPECT_TRUE(report.conformant) << report.Summary();
  EXPECT_EQ(report.items.size(), 5u);
}

TEST(ConformanceTest, DirectoryListingSession) {
  Kernel kernel;
  DirectoryEject& dir = kernel.CreateLocal<DirectoryEject>();
  dir.AddEntryLocal("x", Uid(1, 1));
  InvokeResult listed = kernel.InvokeAndRun(dir.uid(), "List");
  ConformanceOptions options;
  options.channel = listed.value().Field(kFieldChannel);
  // A drained listing session is forgotten: its capability no longer
  // resolves, which the harness sees as NO_SUCH_CHANNEL — i.e. the session
  // channel "vanishes" even though the directory itself stays. That is a
  // deliberate deviation from kEmptyEnd, so probe manually:
  options.post_end = PostEndBehavior::kEmptyEnd;
  ConformanceReport report = CheckSourceConformance(kernel, dir.uid(), options);
  // Expect exactly one violation: the post-end probe on the retired session.
  EXPECT_FALSE(report.conformant);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("post-end"), std::string::npos);
  EXPECT_EQ(report.items.size(), 2u);  // entry + total line
}

TEST(ConformanceTest, HarnessDetectsViolations) {
  // A deliberately broken source: ignores max and never ends.
  class Broken : public Eject {
   public:
    explicit Broken(Kernel& kernel) : Eject(kernel, "Broken") {
      Register("Transfer", [](InvocationContext ctx) {
        ValueList items;
        for (int i = 0; i < 10; ++i) {
          items.push_back(Value(i));
        }
        ctx.Reply(BatchReply{std::move(items), false});
      });
    }
  };
  Kernel kernel;
  Broken& broken = kernel.CreateLocal<Broken>();
  ConformanceOptions options;
  options.max_transfers = 20;
  options.check_unknown_channel = false;
  ConformanceReport report = CheckSourceConformance(kernel, broken.uid(), options);
  EXPECT_FALSE(report.conformant);
  // Both the max violation and the non-termination are reported.
  EXPECT_GE(report.violations.size(), 2u);
  EXPECT_NE(report.Summary().find("NON-CONFORMANT"), std::string::npos);
}

}  // namespace
}  // namespace eden

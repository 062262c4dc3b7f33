// Eden file system tests: File, Directory, Concatenator, paths, checkpoint
// recovery, and the §7 bootstrap UnixFileSystem.
#include <gtest/gtest.h>

#include "src/core/endpoints.h"
#include "src/core/stream.h"
#include "src/core/stream_reader.h"
#include "src/eden/kernel.h"
#include "src/fs/directory.h"
#include "src/fs/file.h"
#include "src/fs/path.h"
#include "src/fs/unix_fs.h"

namespace eden {
namespace {

std::vector<std::string> AsStrings(const ValueList& items) {
  std::vector<std::string> out;
  for (const Value& item : items) {
    out.push_back(item.StrOr(item.ToString()));
  }
  return out;
}

ValueList CollectFrom(Kernel& kernel, Uid source, Value channel) {
  PullSink& sink = kernel.CreateLocal<PullSink>(source, std::move(channel));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_TRUE(sink.done());
  return sink.items();
}

// ---------------------------------------------------------------------- File

TEST(FileTest, StreamsContentAsLines) {
  Kernel kernel;
  FileEject& file = kernel.CreateLocal<FileEject>("one\ntwo\nthree\n");
  ValueList items = CollectFrom(kernel, file.uid(), Value(std::string(kChanOut)));
  EXPECT_EQ(AsStrings(items), (std::vector<std::string>{"one", "two", "three"}));
}

TEST(FileTest, SharedChannelRewindsForNextReader) {
  Kernel kernel;
  FileEject& file = kernel.CreateLocal<FileEject>("a\nb\n");
  ValueList first = CollectFrom(kernel, file.uid(), Value(std::string(kChanOut)));
  ValueList second = CollectFrom(kernel, file.uid(), Value(std::string(kChanOut)));
  EXPECT_EQ(first, second);
}

TEST(FileTest, OpenGivesIndependentSessions) {
  Kernel kernel;
  FileEject& file = kernel.CreateLocal<FileEject>("a\nb\nc\n");
  InvokeResult s1 = kernel.InvokeAndRun(file.uid(), "Open");
  InvokeResult s2 = kernel.InvokeAndRun(file.uid(), "Open");
  ASSERT_TRUE(s1.ok() && s2.ok());
  Value chan1 = s1.value().Field(kFieldChannel);
  Value chan2 = s2.value().Field(kFieldChannel);
  EXPECT_NE(chan1, chan2);

  // Interleaved reads do not disturb each other.
  InvokeResult r1 = kernel.InvokeAndRun(file.uid(), "Transfer",
                                        TransferArgs{chan1, 2});
  InvokeResult r2 = kernel.InvokeAndRun(file.uid(), "Transfer",
                                        TransferArgs{chan2, 1});
  EXPECT_EQ(r1.As<BatchReply>()->items.size(), 2u);
  EXPECT_EQ(r2.As<BatchReply>()->items, (ValueList{Value("a")}));
}

TEST(FileTest, CloseInvalidatesSession) {
  Kernel kernel;
  FileEject& file = kernel.CreateLocal<FileEject>("a\n");
  InvokeResult opened = kernel.InvokeAndRun(file.uid(), "Open");
  Value chan = opened.value().Field(kFieldChannel);
  ASSERT_TRUE(kernel.InvokeAndRun(file.uid(), "Close",
                                  Value().Set(std::string(kFieldChannel), chan))
                  .ok());
  InvokeResult r = kernel.InvokeAndRun(file.uid(), "Transfer",
                                       TransferArgs{chan, 1});
  EXPECT_TRUE(r.status.is(StatusCode::kNoSuchChannel));
}

TEST(FileTest, WriteAppendsLines) {
  Kernel kernel;
  FileEject& file = kernel.CreateLocal<FileEject>("first\n");
  Value args;
  args.Set(std::string(kFieldItems),
           Value(ValueList{Value("second"), Value("third")}));
  ASSERT_TRUE(kernel.InvokeAndRun(file.uid(), "Write", args).ok());
  EXPECT_EQ(file.ContentsAsText(), "first\nsecond\nthird\n");
}

TEST(FileTest, AbsorbPullsWholeStreamAndCheckpoints) {
  // §4: "A file opened for output would immediately issue a Read invocation,
  // and would continue reading until it received an end of file indicator."
  Kernel kernel;
  FileEject::RegisterType(kernel);
  VectorSource& source = kernel.CreateLocal<VectorSource>(
      ValueList{Value("x"), Value("y"), Value("z")});
  FileEject& file = kernel.CreateLocal<FileEject>();
  InvokeResult r = kernel.InvokeAndRun(file.uid(), "Absorb",
                                       Value().Set("source", Value(source.uid())));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_EQ(r.value().Field("count"), Value(3));
  EXPECT_EQ(file.ContentsAsText(), "x\ny\nz\n");
  // Absorb checkpointed: a crash must not lose the data.
  Uid uid = file.uid();
  kernel.Crash(uid);
  InvokeResult size = kernel.InvokeAndRun(uid, "Size");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value().Field("lines"), Value(3));
}

TEST(FileTest, UncheckpointedWritesAreLostOnCrash) {
  Kernel kernel;
  FileEject::RegisterType(kernel);
  FileEject& file = kernel.CreateLocal<FileEject>("kept\n");
  Uid uid = file.uid();
  (void)kernel.InvokeAndRun(uid, "Checkpoint");
  Value args;
  args.Set(std::string(kFieldItems), Value(ValueList{Value("volatile")}));
  (void)kernel.InvokeAndRun(uid, "Write", args);
  kernel.Crash(uid);
  InvokeResult size = kernel.InvokeAndRun(uid, "Size");
  EXPECT_EQ(size.value().Field("lines"), Value(1));  // "volatile" gone
}

// ----------------------------------------------------------------- Directory

TEST(DirectoryTest, AddLookupDelete) {
  Kernel kernel;
  DirectoryEject& dir = kernel.CreateLocal<DirectoryEject>();
  Uid target(7, 8);
  Value add;
  add.Set("name", Value("alpha")).Set("uid", Value(target));
  ASSERT_TRUE(kernel.InvokeAndRun(dir.uid(), "AddEntry", add).ok());

  InvokeResult found = kernel.InvokeAndRun(dir.uid(), "Lookup",
                                           Value().Set("name", Value("alpha")));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().Field("uid"), Value(target));

  EXPECT_TRUE(kernel.InvokeAndRun(dir.uid(), "AddEntry", add)
                  .status.is(StatusCode::kAlreadyExists));
  ASSERT_TRUE(kernel.InvokeAndRun(dir.uid(), "DeleteEntry",
                                  Value().Set("name", Value("alpha")))
                  .ok());
  EXPECT_TRUE(kernel.InvokeAndRun(dir.uid(), "Lookup",
                                  Value().Set("name", Value("alpha")))
                  .status.is(StatusCode::kNotFound));
}

TEST(DirectoryTest, ListStreamsPrintableRepresentation) {
  // §4: directories behave as sources; List prepares a stream of Reads.
  Kernel kernel;
  DirectoryEject& dir = kernel.CreateLocal<DirectoryEject>();
  dir.AddEntryLocal("beta", Uid(1, 1));
  dir.AddEntryLocal("alpha", Uid(2, 2));

  InvokeResult listed = kernel.InvokeAndRun(dir.uid(), "List");
  ASSERT_TRUE(listed.ok());
  Value chan = listed.value().Field(kFieldChannel);
  ValueList lines = CollectFrom(kernel, dir.uid(), chan);
  std::vector<std::string> strings = AsStrings(lines);
  ASSERT_EQ(strings.size(), 3u);
  EXPECT_EQ(strings[0].rfind("alpha\t", 0), 0u);  // sorted
  EXPECT_EQ(strings[1].rfind("beta\t", 0), 0u);
  EXPECT_EQ(strings[2], "total 2");
}

TEST(DirectoryTest, ListingSessionIsSingleUse) {
  Kernel kernel;
  DirectoryEject& dir = kernel.CreateLocal<DirectoryEject>();
  dir.AddEntryLocal("x", Uid(1, 1));
  InvokeResult listed = kernel.InvokeAndRun(dir.uid(), "List");
  Value chan = listed.value().Field(kFieldChannel);
  (void)CollectFrom(kernel, dir.uid(), chan);
  InvokeResult again = kernel.InvokeAndRun(dir.uid(), "Transfer",
                                           TransferArgs{chan, 1});
  EXPECT_TRUE(again.status.is(StatusCode::kNoSuchChannel));
}

TEST(DirectoryTest, CheckpointedDirectorySurvivesCrash) {
  Kernel kernel;
  DirectoryEject::RegisterType(kernel);
  DirectoryEject& dir = kernel.CreateLocal<DirectoryEject>();
  Uid uid = dir.uid();
  dir.AddEntryLocal("persist", Uid(3, 4));
  (void)kernel.InvokeAndRun(uid, "Checkpoint");
  kernel.Crash(uid);
  InvokeResult found = kernel.InvokeAndRun(uid, "Lookup",
                                           Value().Set("name", Value("persist")));
  ASSERT_TRUE(found.ok()) << found.status;
  EXPECT_EQ(found.value().Field("uid"), Value(Uid(3, 4)));
}

TEST(DirectoryTest, ConcatenatorSearchesInOrder) {
  // §2: the PATH-like Directory Concatenator.
  Kernel kernel;
  DirectoryEject& first = kernel.CreateLocal<DirectoryEject>();
  DirectoryEject& second = kernel.CreateLocal<DirectoryEject>();
  first.AddEntryLocal("both", Uid(1, 0));
  second.AddEntryLocal("both", Uid(2, 0));
  second.AddEntryLocal("only2", Uid(3, 0));
  DirectoryConcatenator& path = kernel.CreateLocal<DirectoryConcatenator>(
      std::vector<Uid>{first.uid(), second.uid()});

  InvokeResult both = kernel.InvokeAndRun(path.uid(), "Lookup",
                                          Value().Set("name", Value("both")));
  EXPECT_EQ(both.value().Field("uid"), Value(Uid(1, 0)));  // first wins
  InvokeResult only2 = kernel.InvokeAndRun(path.uid(), "Lookup",
                                           Value().Set("name", Value("only2")));
  EXPECT_EQ(only2.value().Field("uid"), Value(Uid(3, 0)));
  InvokeResult missing = kernel.InvokeAndRun(path.uid(), "Lookup",
                                             Value().Set("name", Value("nope")));
  EXPECT_TRUE(missing.status.is(StatusCode::kNotFound));
}

TEST(DirectoryTest, ConcatenatorListsAllDirectories) {
  Kernel kernel;
  DirectoryEject& first = kernel.CreateLocal<DirectoryEject>();
  DirectoryEject& second = kernel.CreateLocal<DirectoryEject>();
  first.AddEntryLocal("a", Uid(1, 0));
  second.AddEntryLocal("b", Uid(2, 0));
  DirectoryConcatenator& path = kernel.CreateLocal<DirectoryConcatenator>(
      std::vector<Uid>{first.uid(), second.uid()});
  InvokeResult listed = kernel.InvokeAndRun(path.uid(), "List");
  ASSERT_TRUE(listed.ok());
  ValueList lines = CollectFrom(kernel, path.uid(),
                                listed.value().Field(kFieldChannel));
  EXPECT_EQ(lines.size(), 4u);  // a, total 1, b, total 1
}

// ---------------------------------------------------------------------- Path

TEST(PathTest, SplitPath) {
  EXPECT_EQ(SplitPath("a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitPath("/a//b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitPath("").empty());
  EXPECT_TRUE(SplitPath("///").empty());
}

TEST(PathTest, ResolvesThroughNestedDirectories) {
  Kernel kernel;
  DirectoryEject& root = kernel.CreateLocal<DirectoryEject>();
  DirectoryEject& sub = kernel.CreateLocal<DirectoryEject>();
  FileEject& file = kernel.CreateLocal<FileEject>("data\n");
  root.AddEntryLocal("sub", sub.uid());
  sub.AddEntryLocal("file", file.uid());

  ResolveResult r = ResolvePathBlocking(kernel, root.uid(), "sub/file");
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_EQ(r.uid, file.uid());

  ResolveResult missing = ResolvePathBlocking(kernel, root.uid(), "sub/nope");
  EXPECT_TRUE(missing.status.is(StatusCode::kNotFound));
}

TEST(PathTest, CyclicDirectoriesResolveFinitely) {
  // "arbitrary networks of directories can be constructed" (§2) — including
  // cycles; resolution of a looping path is depth-limited.
  Kernel kernel;
  DirectoryEject& a = kernel.CreateLocal<DirectoryEject>();
  DirectoryEject& b = kernel.CreateLocal<DirectoryEject>();
  a.AddEntryLocal("b", b.uid());
  b.AddEntryLocal("a", a.uid());

  // A long but legal walk around the cycle succeeds...
  std::string path = "b/a/b/a/b";
  ResolveResult ok = ResolvePathBlocking(kernel, a.uid(), path);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.uid, b.uid());

  // ...but a walk beyond the depth limit is rejected rather than looping.
  std::string deep;
  for (int i = 0; i < kMaxPathDepth + 1; ++i) {
    deep += i % 2 == 0 ? "b/" : "a/";
  }
  ResolveResult too_deep = ResolvePathBlocking(kernel, a.uid(), deep);
  EXPECT_TRUE(too_deep.status.is(StatusCode::kInvalidArgument));
}

// --------------------------------------------------------------- UnixFS (§7)

TEST(UnixFsTest, NewStreamStreamsHostFileThenDisappears) {
  Kernel kernel;
  HostFs host;
  host.Put("/src/hello.txt", "hello\nworld\n");
  UnixFileSystemEject& ufs = kernel.CreateLocal<UnixFileSystemEject>(host);

  InvokeResult opened = kernel.InvokeAndRun(
      ufs.uid(), "NewStream", Value().Set("path", Value("/src/hello.txt")));
  ASSERT_TRUE(opened.ok());
  auto stream = opened.value().Field("stream").AsUid();
  ASSERT_TRUE(stream.has_value());

  ValueList items = CollectFrom(kernel, *stream, Value(std::string(kChanOut)));
  EXPECT_EQ(AsStrings(items), (std::vector<std::string>{"hello", "world"}));

  // "the UnixFile Eject deactivates itself and, since it has never
  // Checkpointed, disappears." (§7)
  kernel.Run();
  EXPECT_FALSE(kernel.IsActive(*stream));
  InvokeResult gone = kernel.InvokeAndRun(*stream, "Transfer",
                                          TransferArgs{Value(0), 1});
  EXPECT_TRUE(gone.status.is(StatusCode::kNoSuchEject));
}

TEST(UnixFsTest, NewStreamForMissingPathFails) {
  Kernel kernel;
  HostFs host;
  UnixFileSystemEject& ufs = kernel.CreateLocal<UnixFileSystemEject>(host);
  InvokeResult r = kernel.InvokeAndRun(ufs.uid(), "NewStream",
                                       Value().Set("path", Value("/absent")));
  EXPECT_TRUE(r.status.is(StatusCode::kNotFound));
}

TEST(UnixFsTest, UseStreamRecordsStreamIntoHostFile) {
  Kernel kernel;
  HostFs host;
  UnixFileSystemEject& ufs = kernel.CreateLocal<UnixFileSystemEject>(host);
  VectorSource& source = kernel.CreateLocal<VectorSource>(
      ValueList{Value("alpha"), Value("beta")});

  InvokeResult used = kernel.InvokeAndRun(
      ufs.uid(), "UseStream",
      Value().Set("path", Value("/dst/out.txt")).Set("source", Value(source.uid())));
  ASSERT_TRUE(used.ok());
  auto file = used.value().Field("file").AsUid();
  ASSERT_TRUE(file.has_value());

  kernel.Run();
  EXPECT_EQ(host.Get("/dst/out.txt"), "alpha\nbeta\n");
  EXPECT_FALSE(kernel.IsActive(*file));  // transient sink vanished
}

TEST(UnixFsTest, RoundTripCopyThroughEdenStreams) {
  // The §7 bootstrap end to end: Unix file -> Eden stream -> Unix file.
  Kernel kernel;
  HostFs host;
  host.Put("/a", "1\n2\n3\n");
  UnixFileSystemEject& ufs = kernel.CreateLocal<UnixFileSystemEject>(host);

  InvokeResult opened = kernel.InvokeAndRun(ufs.uid(), "NewStream",
                                            Value().Set("path", Value("/a")));
  InvokeResult used = kernel.InvokeAndRun(
      ufs.uid(), "UseStream",
      Value()
          .Set("path", Value("/b"))
          .Set("source", Value(*opened.value().Field("stream").AsUid())));
  ASSERT_TRUE(used.ok());
  kernel.Run();
  EXPECT_EQ(host.Get("/b"), host.Get("/a"));
}

}  // namespace
}  // namespace eden

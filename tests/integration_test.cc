// Cross-module integration tests: the paper's figure topologies end to end,
// failure injection across pipelines, and bootstrap + filters + devices
// working together.
#include <gtest/gtest.h>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/pipeline.h"
#include "src/devices/devices.h"
#include "src/eden/kernel.h"
#include "src/filters/registry.h"
#include "src/filters/transforms.h"
#include "src/fs/directory.h"
#include "src/fs/file.h"
#include "src/fs/unix_fs.h"
#include "src/shell/shell.h"

namespace eden {
namespace {

ValueList NumberedLines(int n) {
  ValueList items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Value("line " + std::to_string(i)));
  }
  return items;
}

// Figure 3: write-only pipeline where the source and a middle filter emit
// report streams to a shared window.
TEST(FigureTest, Figure3WriteOnlyWithReports) {
  Kernel kernel;

  PushSource::Options source_options;
  source_options.report_every = 4;
  PushSource& source =
      kernel.CreateLocal<PushSource>(NumberedLines(12), source_options);

  auto reporting = std::make_unique<ReportingTransform>(
      std::make_unique<GrepTransform>("line"), 6);
  WriteOnlyFilter& f1 = kernel.CreateLocal<WriteOnlyFilter>(std::move(reporting));
  WriteOnlyFilter& f2 = kernel.CreateLocal<WriteOnlyFilter>(
      std::make_unique<LineNumberTransform>());

  PushSink& sink = kernel.CreateLocal<PushSink>();
  // Reports go to a common destination, "perhaps a window on a display".
  PushSink& window = kernel.CreateLocal<PushSink>();

  f2.BindOutput(std::string(kChanOut), sink.uid(), Value(std::string(kChanIn)));
  f1.BindOutput(std::string(kChanOut), f2.uid(), Value(std::string(kChanIn)));
  f1.BindOutput(std::string(kChanReport), window.uid(), Value(std::string(kChanIn)));
  source.BindOutput(f1.uid(), Value(std::string(kChanIn)));
  source.BindReport(window.uid(), Value(std::string(kChanIn)));

  kernel.RunUntil([&] { return sink.done(); });
  kernel.Run(100000);  // let the report streams drain

  EXPECT_EQ(sink.items().size(), 12u);
  // Window saw reports from BOTH source (every 4: 3 of them) and f1
  // (every 6: 2 + final): write-only fan-out needs no extra machinery.
  EXPECT_EQ(window.items().size(), 6u);
}

// Figure 4: the same topology in the read-only discipline with channel
// identifiers, and a multi-source ReportWindow.
TEST(FigureTest, Figure4ReadOnlyWithChannelIdentifiers) {
  Kernel kernel;

  VectorSource::Options source_options;
  source_options.report_every = 4;
  VectorSource& source =
      kernel.CreateLocal<VectorSource>(NumberedLines(12), source_options);

  ReadOnlyFilter::Options f1_options;
  f1_options.source = source.uid();
  ReadOnlyFilter& f1 = kernel.CreateLocal<ReadOnlyFilter>(
      std::make_unique<ReportingTransform>(std::make_unique<GrepTransform>("line"), 6),
      f1_options);

  ReadOnlyFilter::Options f2_options;
  f2_options.source = f1.uid();
  ReadOnlyFilter& f2 = kernel.CreateLocal<ReadOnlyFilter>(
      std::make_unique<LineNumberTransform>(), f2_options);

  PullSink& sink = kernel.CreateLocal<PullSink>(f2.uid(),
                                                Value(std::string(kChanOut)));
  ReportWindow& window = kernel.CreateLocal<ReportWindow>();
  // Double lines in the figure: Read(ReportStream) requests.
  window.Attach(source.uid(), Value(std::string(kChanReport)), "source");
  window.Attach(f1.uid(), Value(std::string(kChanReport)), "F1");

  kernel.RunUntil([&] { return sink.done() && window.idle(); });

  EXPECT_EQ(sink.items().size(), 12u);
  EXPECT_EQ(window.lines().size(), 6u);
  // Census: same function as Figure 3, but no passive buffers anywhere.
  // source, f1, f2, sink, window = 5 Ejects.
  EXPECT_EQ(kernel.stats().ejects_created, 5u);
}

// A filter crash mid-stream surfaces at the sink as a failed stream, not a
// hang.
TEST(FailureTest, FilterCrashTerminatesPipeline) {
  Kernel kernel;
  PipelineOptions options;
  options.work_ahead = 1;
  PipelineHandle handle =
      BuildPipeline(kernel, NumberedLines(100),
                    {*MakeTransformByName("copy", {}),
                     *MakeTransformByName("copy", {})},
                    options);
  kernel.RunUntil([&] { return handle.output().size() >= 5; });
  kernel.Crash(handle.ejects[1]);  // first filter
  kernel.RunUntil([&] { return handle.done(); });
  ASSERT_TRUE(handle.done());
  EXPECT_FALSE(handle.pull_sink->stream_status().ok_or_end());
  EXPECT_LT(handle.output().size(), 100u);
}

// A crashed-but-checkpointed FILE reactivates transparently mid-pipeline:
// the reader's next Transfer triggers kernel activation (§1).
TEST(FailureTest, CheckpointedSourceReactivatesUnderReads) {
  Kernel kernel;
  FileEject::RegisterType(kernel);
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "row " + std::to_string(i) + "\n";
  }
  FileEject& file = kernel.CreateLocal<FileEject>(text);
  Uid file_uid = file.uid();
  (void)kernel.InvokeAndRun(file_uid, "Checkpoint");

  // Open a private session and read a few batches.
  InvokeResult opened = kernel.InvokeAndRun(file_uid, "Open");
  Value session = opened.value().Field(kFieldChannel);
  (void)kernel.InvokeAndRun(file_uid, "Transfer", TransferArgs{session, 10});

  kernel.Crash(file_uid);

  // The session died with the instance (it was volatile state)...
  InvokeResult dead = kernel.InvokeAndRun(file_uid, "Transfer",
                                          TransferArgs{session, 10});
  EXPECT_TRUE(dead.status.is(StatusCode::kNoSuchChannel));
  EXPECT_TRUE(kernel.IsActive(file_uid));  // ...but the file reactivated

  // The shared channel still serves the full checkpointed content.
  PullSink& sink = kernel.CreateLocal<PullSink>(file_uid,
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items().size(), 50u);
}

// Bootstrap + filters + devices: read a host file, strip Fortran comments,
// paginate, and print — the paper's §4 scenario on the §7 bootstrap.
TEST(EndToEndTest, FortranListingThroughPrinter) {
  Kernel kernel;
  HostFs host;
  std::string program;
  for (int i = 0; i < 12; ++i) {
    program += (i % 3 == 0) ? "C comment " + std::to_string(i) + "\n"
                            : "      X" + std::to_string(i) + " = " +
                                  std::to_string(i) + "\n";
  }
  host.Put("/src/prog.f", program);
  UnixFileSystemEject& ufs = kernel.CreateLocal<UnixFileSystemEject>(host);

  InvokeResult opened = kernel.InvokeAndRun(
      ufs.uid(), "NewStream", Value().Set("path", Value("/src/prog.f")));
  ASSERT_TRUE(opened.ok());
  Uid stream = *opened.value().Field("stream").AsUid();

  ReadOnlyFilter::Options strip_options;
  strip_options.source = stream;
  ReadOnlyFilter& strip = kernel.CreateLocal<ReadOnlyFilter>(
      std::make_unique<StripPrefixTransform>("C"), strip_options);

  ReadOnlyFilter::Options paginate_options;
  paginate_options.source = strip.uid();
  ReadOnlyFilter& paginate = kernel.CreateLocal<ReadOnlyFilter>(
      std::make_unique<PaginateTransform>(4, "prog.f"), paginate_options);

  // "If a paginated listing were required, the printer server would be
  // requested to read from the paginator, and the paginator to read from
  // the file." (§4)
  PrinterSink& printer = kernel.CreateLocal<PrinterSink>();
  printer.Print(paginate.uid(), Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return printer.idle(); });

  ASSERT_FALSE(printer.pages().empty());
  // 8 non-comment lines + 2 page headers + 1 footer = 11 lines.
  size_t total = 0;
  for (const auto& page : printer.pages()) {
    total += page.size();
  }
  EXPECT_EQ(total, 11u);
  EXPECT_EQ(printer.pages()[0][0], "---- prog.f page 1 ----");
}

// Directory-driven workflow: bind a name through a directory, run a shell
// pipeline over it, store the result as a new file, list the directory.
TEST(EndToEndTest, DirectoryShellRoundTrip) {
  Kernel kernel;
  EdenShell shell(kernel);
  DirectoryEject& home = kernel.CreateLocal<DirectoryEject>();
  FileEject& input = kernel.CreateLocal<FileEject>("b\na\nb\n");
  FileEject& output = kernel.CreateLocal<FileEject>();
  home.AddEntryLocal("input", input.uid());
  home.AddEntryLocal("output", output.uid());

  shell.Bind("input", input.uid());
  shell.Bind("output", output.uid());
  ShellResult r = shell.Run("cat input | sort | uniq | tofile output");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(output.ContentsAsText(), "a\nb\n");

  InvokeResult listed = kernel.InvokeAndRun(home.uid(), "List");
  ASSERT_TRUE(listed.ok());
  PullSink& sink = kernel.CreateLocal<PullSink>(home.uid(),
                                                listed.value().Field(kFieldChannel));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.items().size(), 3u);  // 2 entries + total line
}

// The same data crosses nodes: pipeline spread over distinct nodes produces
// identical output and counts cross-node messages.
TEST(EndToEndTest, DistributedPipeline) {
  Kernel kernel;
  PipelineOptions options;
  options.distinct_nodes = true;
  ValueList output = RunPipeline(kernel, NumberedLines(20),
                                 {*MakeTransformByName("upper", {})}, options);
  EXPECT_EQ(output.size(), 20u);
  EXPECT_GT(kernel.stats().cross_node_messages, 0u);
}

// Pipelines over pipelines: a tee filter feeding BOTH a terminal and a file
// (fan-out via channels), with the file then re-read to verify.
TEST(EndToEndTest, TeeToTerminalAndFile) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(NumberedLines(5));
  ReadOnlyFilter::Options tee_options;
  tee_options.source = source.uid();
  ReadOnlyFilter& tee =
      kernel.CreateLocal<ReadOnlyFilter>(std::make_unique<TeeTransform>(), tee_options);

  TerminalSink& terminal = kernel.CreateLocal<TerminalSink>();
  terminal.Connect(tee.uid(), Value(std::string(kChanOut)));

  FileEject& file = kernel.CreateLocal<FileEject>();
  bool absorbed = false;
  kernel.ExternalInvoke(file.uid(), "Absorb",
                        Value().Set("source", Value(tee.uid()))
                            .Set(std::string(kFieldChannel), Value("copy")),
                        [&](InvokeResult r) {
                          EXPECT_TRUE(r.ok()) << r.status;
                          absorbed = true;
                        });
  kernel.RunUntil([&] { return absorbed && terminal.idle(); });
  EXPECT_EQ(terminal.screen().size(), 5u);
  EXPECT_EQ(file.line_count(), 5u);
}

}  // namespace
}  // namespace eden

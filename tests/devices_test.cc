// Device Eject tests (§4): terminals pump, printers paginate, report windows
// fan in, null sinks discard, clocks and random sources supply.
#include <gtest/gtest.h>

#include "src/core/endpoints.h"
#include "src/core/stream.h"
#include "src/devices/devices.h"
#include "src/eden/kernel.h"
#include "src/fs/file.h"

namespace eden {
namespace {

ValueList Lines(std::initializer_list<const char*> lines) {
  ValueList items;
  for (const char* line : lines) {
    items.push_back(Value(line));
  }
  return items;
}

TEST(TerminalTest, PumpsSourceOntoScreen) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(Lines({"a", "b"}));
  TerminalSink& terminal = kernel.CreateLocal<TerminalSink>();
  terminal.Connect(source.uid(), Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return terminal.idle(); });
  EXPECT_EQ(terminal.screen(), (std::vector<std::string>{"a", "b"}));
}

TEST(TerminalTest, ConnectRedirectsDynamically) {
  // §8: "Redirection of input and output can be provided very naturally..."
  Kernel kernel;
  VectorSource::Options slow;
  slow.work_ahead = 1;
  VectorSource& first = kernel.CreateLocal<VectorSource>(
      Lines({"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"}), slow);
  VectorSource& second = kernel.CreateLocal<VectorSource>(Lines({"s1", "s2"}));
  TerminalSink& terminal = kernel.CreateLocal<TerminalSink>();

  terminal.Connect(first.uid(), Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return terminal.lines_shown() >= 2; });
  terminal.Connect(second.uid(), Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return terminal.idle(); });

  // The screen holds a prefix of the first stream, then all of the second.
  ASSERT_GE(terminal.screen().size(), 4u);
  EXPECT_EQ(terminal.screen()[0], "f1");
  EXPECT_EQ(terminal.screen().back(), "s2");
  EXPECT_EQ(terminal.screen()[terminal.screen().size() - 2], "s1");
}

TEST(TerminalTest, ScrollbackIsBounded) {
  Kernel kernel;
  ValueList many;
  for (int i = 0; i < 50; ++i) {
    many.push_back(Value("line " + std::to_string(i)));
  }
  TerminalOptions options;
  options.scrollback = 10;
  VectorSource& source = kernel.CreateLocal<VectorSource>(std::move(many));
  TerminalSink& terminal = kernel.CreateLocal<TerminalSink>(options);
  terminal.Connect(source.uid(), Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return terminal.idle(); });
  EXPECT_EQ(terminal.screen().size(), 10u);
  EXPECT_EQ(terminal.screen().back(), "line 49");
  EXPECT_EQ(terminal.lines_shown(), 50u);
}

TEST(TerminalTest, ConnectViaInvocation) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(Lines({"x"}));
  TerminalSink& terminal = kernel.CreateLocal<TerminalSink>();
  ASSERT_TRUE(kernel
                  .InvokeAndRun(terminal.uid(), "Connect",
                                Value().Set("source", Value(source.uid())))
                  .ok());
  kernel.RunUntil([&] { return terminal.idle(); });
  EXPECT_EQ(terminal.screen(), (std::vector<std::string>{"x"}));
}

TEST(PrinterTest, PaginatesOutput) {
  Kernel kernel;
  ValueList many;
  for (int i = 0; i < 7; ++i) {
    many.push_back(Value(std::to_string(i)));
  }
  PrinterOptions options;
  options.lines_per_page = 3;
  VectorSource& source = kernel.CreateLocal<VectorSource>(std::move(many));
  PrinterSink& printer = kernel.CreateLocal<PrinterSink>(options);
  printer.Print(source.uid(), Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return printer.idle(); });
  ASSERT_EQ(printer.pages().size(), 3u);  // 3 + 3 + 1
  EXPECT_EQ(printer.pages()[0].size(), 3u);
  EXPECT_EQ(printer.pages()[2], (std::vector<std::string>{"6"}));
  EXPECT_EQ(printer.jobs_completed(), 1u);
}

TEST(PrinterTest, PrintsAFileDirectly) {
  // "A file could be printed simply by requesting the printer server to
  // read from the file." (§4)
  Kernel kernel;
  FileEject& file = kernel.CreateLocal<FileEject>("p\nq\n");
  PrinterSink& printer = kernel.CreateLocal<PrinterSink>();
  ASSERT_TRUE(kernel
                  .InvokeAndRun(printer.uid(), "Print",
                                Value().Set("source", Value(file.uid())))
                  .ok());
  kernel.RunUntil([&] { return printer.idle(); });
  ASSERT_EQ(printer.pages().size(), 1u);
  EXPECT_EQ(printer.pages()[0], (std::vector<std::string>{"p", "q"}));
}

TEST(ReportWindowTest, ReadsFromMultipleSources) {
  // Figure 4: "It is assumed that the Report Window is designed to read from
  // multiple sources."
  Kernel kernel;
  VectorSource& a = kernel.CreateLocal<VectorSource>(Lines({"r1", "r2"}));
  VectorSource& b = kernel.CreateLocal<VectorSource>(Lines({"s1"}));
  ReportWindow& window = kernel.CreateLocal<ReportWindow>();
  window.Attach(a.uid(), Value(std::string(kChanOut)), "A");
  window.Attach(b.uid(), Value(std::string(kChanOut)), "B");
  kernel.RunUntil([&] { return window.idle(); });
  std::vector<std::string> sorted = window.lines();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"A: r1", "A: r2", "B: s1"}));
}

TEST(NullSinkTest, DiscardsEverything) {
  Kernel kernel;
  VectorSource& source = kernel.CreateLocal<VectorSource>(Lines({"a", "b", "c"}));
  NullSink& null = kernel.CreateLocal<NullSink>(source.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return null.done(); });
  EXPECT_EQ(null.discarded(), 3u);
}

TEST(NullSinkTest, BoundsInfiniteSources) {
  Kernel kernel;
  ClockSource& clock = kernel.CreateLocal<ClockSource>();
  NullSink& null = kernel.CreateLocal<NullSink>(clock.uid(),
                                                Value(std::string(kChanOut)),
                                                /*max_items=*/25);
  kernel.RunUntil([&] { return null.done(); });
  EXPECT_EQ(null.discarded(), 25u);
}

TEST(ClockSourceTest, ReturnsAdvancingVirtualTime) {
  Kernel kernel;
  ClockSource& clock = kernel.CreateLocal<ClockSource>();
  InvokeResult first = kernel.InvokeAndRun(clock.uid(), "Transfer",
                                           TransferArgs{Value(0), 1});
  InvokeResult second = kernel.InvokeAndRun(clock.uid(), "Transfer",
                                            TransferArgs{Value(0), 1});
  ASSERT_TRUE(first.ok() && second.ok());
  std::string t1 = first.As<BatchReply>()->items[0].StrOr("");
  std::string t2 = second.As<BatchReply>()->items[0].StrOr("");
  EXPECT_NE(t1, t2);  // virtual time advanced between reads
  EXPECT_EQ(t1.rfind("tick ", 0), 0u);
}

TEST(RandomSourceTest, DeterministicAndBounded) {
  auto run = [](uint64_t seed) {
    Kernel kernel;
    RandomSource& source = kernel.CreateLocal<RandomSource>(seed, 10);
    PullSink& sink = kernel.CreateLocal<PullSink>(source.uid(),
                                                  Value(std::string(kChanOut)));
    kernel.RunUntil([&] { return sink.done(); });
    std::vector<std::string> lines;
    for (const Value& item : sink.items()) {
      lines.push_back(item.StrOr(""));
    }
    return lines;
  };
  auto a = run(5);
  auto b = run(5);
  auto c = run(6);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}


TEST(KeyboardTest, LinesArriveOnScheduleAndReadersWait) {
  Kernel kernel;
  std::vector<Keystroke> script = {{1000, "first"}, {5000, "second"}};
  KeyboardSource& keyboard = kernel.CreateLocal<KeyboardSource>(script);
  TerminalSink& terminal = kernel.CreateLocal<TerminalSink>();
  terminal.Connect(keyboard.uid(), Value(std::string(kChanOut)));

  // Before the first keystroke: the terminal's Read is parked.
  kernel.RunFor(500);
  EXPECT_EQ(terminal.screen().size(), 0u);
  EXPECT_EQ(keyboard.server().parked_requests(kChanOut), 1u);

  kernel.RunFor(2000);  // past the first keystroke
  EXPECT_EQ(terminal.screen(), (std::vector<std::string>{"first"}));

  kernel.RunUntil([&] { return terminal.idle(); });
  EXPECT_EQ(terminal.screen(), (std::vector<std::string>{"first", "second"}));
  EXPECT_GE(kernel.now(), 6000);  // the typing schedule governed the run
}

TEST(KeyboardTest, EmptyScriptEndsImmediately) {
  Kernel kernel;
  KeyboardSource& keyboard =
      kernel.CreateLocal<KeyboardSource>(std::vector<Keystroke>{});
  NullSink& sink = kernel.CreateLocal<NullSink>(keyboard.uid(),
                                                Value(std::string(kChanOut)));
  kernel.RunUntil([&] { return sink.done(); });
  EXPECT_EQ(sink.discarded(), 0u);
}

}  // namespace
}  // namespace eden

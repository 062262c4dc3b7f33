// Shell tests: lexer, pipeline construction, redirection, bootstrap fs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/eden/json.h"
#include "src/eden/kernel.h"
#include "src/fs/file.h"
#include "src/shell/lexer.h"
#include "src/shell/shell.h"

namespace eden {
namespace {

TEST(LexerTest, WordsAndPipes) {
  LexResult r = Tokenize("cat file | grep x");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.tokens.size(), 5u);
  EXPECT_EQ(r.tokens[0], (Token{TokenKind::kWord, "cat"}));
  EXPECT_EQ(r.tokens[2], (Token{TokenKind::kPipe, "|"}));
}

TEST(LexerTest, QuotedWordsKeepSpacesAndPipes) {
  LexResult r = Tokenize("echo 'a b | c' x");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[1].text, "a b | c");
}

TEST(LexerTest, Redirections) {
  LexResult r = Tokenize("report 5 copy report>win");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.tokens.back().kind, TokenKind::kRedirect);
  EXPECT_EQ(r.tokens.back().text, "report>win");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("echo 'unterminated").ok);
  EXPECT_FALSE(Tokenize("echo >x").ok);
  EXPECT_FALSE(Tokenize("echo x>").ok);
}

TEST(ShellTest, EchoThroughFiltersToCollect) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("echo aa bb ab | grep a | upper | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"AA", "AB"}));
}

TEST(ShellTest, ShardsCommandRepartitionsAndReports) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("shards 4");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output.front(), "shards: 4");
  EXPECT_EQ(kernel.shard_count(), 4);
  // Pipelines still run (and deterministically) on the repartitioned kernel.
  r = shell.Run("echo aa bb | upper | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"AA", "BB"}));
  // The bare form reports the per-shard counter table.
  r = shell.Run("shards");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.output.empty());
  EXPECT_NE(r.output.front().find("shards: 4"), std::string::npos);
  EXPECT_NE(r.output.front().find("shard 0:"), std::string::npos);
  // Bad arguments are rejected.
  EXPECT_FALSE(shell.Run("shards zero").ok);
  EXPECT_FALSE(shell.Run("shards 0").ok);
}

TEST(ShellTest, PipelineEjectCensusIsLean) {
  // A read-only shell pipeline with n filters creates exactly n+2 Ejects.
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("echo a b | copy | copy | copy | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ejects_created, 5u);
}

TEST(ShellTest, FortranStripExample) {
  // The paper's §3 motivating example, as a command.
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run(
      "echo 'C comment' '      X = 1' 'C more' '      END' | strip C | nl | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output,
            (std::vector<std::string>{"1\t      X = 1", "2\t      END"}));
}

TEST(ShellTest, CatReadsBoundFile) {
  Kernel kernel;
  EdenShell shell(kernel);
  FileEject& file = kernel.CreateLocal<FileEject>("x\ny\n");
  shell.Bind("notes", file.uid());
  ShellResult r = shell.Run("cat notes | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"x", "y"}));
}

TEST(ShellTest, ToFileAbsorbsStream) {
  Kernel kernel;
  EdenShell shell(kernel);
  FileEject& file = kernel.CreateLocal<FileEject>();
  shell.Bind("dst", file.uid());
  ShellResult r = shell.Run("echo 1 2 3 | tofile dst");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(file.ContentsAsText(), "1\n2\n3\n");
}

TEST(ShellTest, TerminalShowsStream) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("echo hello world | terminal");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"hello", "world"}));
  ASSERT_NE(shell.terminal("tty0"), nullptr);
}

TEST(ShellTest, PrinterPaginates) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("random 9 5 | printer");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output.size(), 6u);  // 1 page marker + 5 lines
  EXPECT_EQ(r.output[0], "==== page 1 ====");
}

TEST(ShellTest, ClockWithHeadTerminates) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("clock | head 3 | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output.size(), 3u);
}

TEST(ShellTest, ReportRedirectionFeedsWindow) {
  // Figure 4 as a command: the report channel of a filter goes to a window.
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r =
      shell.Run("echo a b c d | report 2 copy report>win | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"a", "b", "c", "d"}));
  ReportWindow* window = shell.window("win");
  ASSERT_NE(window, nullptr);
  ASSERT_EQ(window->lines().size(), 3u);
  EXPECT_EQ(window->lines()[0], "report: copy: 2 items");
}

TEST(ShellTest, UnixFsSourceAndSink) {
  Kernel kernel;
  HostFs host;
  host.Put("/in.txt", "alpha\nbeta\n");
  EdenShell shell(kernel, &host);
  ShellResult r = shell.Run("unixfs /in.txt | upper | usestream /out.txt");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(host.Get("/out.txt"), "ALPHA\nBETA\n");
}

TEST(ShellTest, Errors) {
  Kernel kernel;
  EdenShell shell(kernel);
  EXPECT_FALSE(shell.Run("").ok);
  EXPECT_FALSE(shell.Run("echo a").ok);  // no sink
  EXPECT_FALSE(shell.Run("bogus | collect").ok);
  EXPECT_FALSE(shell.Run("echo a | frobnicate | collect").ok);
  EXPECT_FALSE(shell.Run("cat unbound | collect").ok);
  EXPECT_FALSE(shell.Run("echo a | wrongsink").ok);
  EXPECT_FALSE(shell.Run("echo a | copy report>w | collect").ok);  // no channel
  EXPECT_FALSE(shell.Run("unixfs /x | collect").ok);  // no host fs attached
}

TEST(ShellTest, NullSinkReportsCount) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("echo a b c | null");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"discarded 3"}));
}


TEST(ShellTest, CmpSourceComparesBoundStreams) {
  Kernel kernel;
  EdenShell shell(kernel);
  FileEject& a = kernel.CreateLocal<FileEject>("same\nleft\n");
  FileEject& b = kernel.CreateLocal<FileEject>("same\nright\n");
  shell.Bind("a", a.uid());
  shell.Bind("b", b.uid());
  ShellResult r = shell.Run("cmp a b | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"2: left | right",
                                                "cmp: 1 differing records"}));
}

TEST(ShellTest, MergeSourceInterleaves) {
  Kernel kernel;
  EdenShell shell(kernel);
  FileEject& a = kernel.CreateLocal<FileEject>("a1\na2\n");
  FileEject& b = kernel.CreateLocal<FileEject>("b1\n");
  shell.Bind("a", a.uid());
  shell.Bind("b", b.uid());
  ShellResult r = shell.Run("merge a b | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"a1", "b1", "a2"}));
}

TEST(ShellTest, SedSourceEditsTextByCommandFile) {
  Kernel kernel;
  EdenShell shell(kernel);
  FileEject& commands = kernel.CreateLocal<FileEject>("s/cat/dog/\n");
  FileEject& text = kernel.CreateLocal<FileEject>("the cat sat\n");
  shell.Bind("cmds", commands.uid());
  shell.Bind("text", text.uid());
  ShellResult r = shell.Run("sed cmds text | upper | collect");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, (std::vector<std::string>{"THE DOG SAT"}));
}

TEST(ShellTest, FanInSourceErrors) {
  Kernel kernel;
  EdenShell shell(kernel);
  EXPECT_FALSE(shell.Run("cmp a b | collect").ok);
  EXPECT_FALSE(shell.Run("merge onlyone | collect").ok);
  EXPECT_FALSE(shell.Run("sed x | collect").ok);
}

// ------------------------------------------------- observability commands

std::string Joined(const ShellResult& r) {
  std::string all;
  for (const std::string& line : r.output) {
    all += line;
    all += '\n';
  }
  return all;
}

TEST(ShellTest, StatsCommandReportsCounters) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("echo a b | collect").ok);
  ShellResult text = shell.Run("stats");
  ASSERT_TRUE(text.ok) << text.error;
  EXPECT_NE(Joined(text).find("invocations="), std::string::npos);

  ShellResult json = shell.Run("stats json");
  ASSERT_TRUE(json.ok) << json.error;
  std::string error;
  EXPECT_TRUE(JsonValidate(Joined(json), &error)) << error;
  EXPECT_FALSE(shell.Run("stats nonsense").ok);
}

TEST(ShellTest, TraceCommandsCaptureLabelAndExport) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("trace on").ok);
  ASSERT_TRUE(shell.Run("echo alpha beta | upper | collect").ok);

  ShellResult chart = shell.Run("trace show");
  ASSERT_TRUE(chart.ok) << chart.error;
  // Stages are labeled by command name while tracing.
  EXPECT_NE(Joined(chart).find("echo"), std::string::npos);
  EXPECT_NE(Joined(chart).find("upper"), std::string::npos);
  EXPECT_NE(Joined(chart).find("Transfer"), std::string::npos);

  ShellResult json = shell.Run("trace json");
  ASSERT_TRUE(json.ok) << json.error;
  std::string error;
  EXPECT_TRUE(JsonValidate(Joined(json), &error)) << error;
  EXPECT_NE(Joined(json).find("traceEvents"), std::string::npos);
  EXPECT_GT(shell.recorder().span_count(), 0u);

  ASSERT_TRUE(shell.Run("trace clear").ok);
  EXPECT_EQ(shell.recorder().size(), 0u);
  ASSERT_TRUE(shell.Run("trace off").ok);
  EXPECT_FALSE(shell.Run("trace sideways").ok);
}

TEST(ShellTest, TraceCapacityBoundsTheRing) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("trace on 4").ok);
  ASSERT_TRUE(shell.Run("echo a b c d e f g h | collect").ok);
  EXPECT_LE(shell.recorder().size(), 4u);
  EXPECT_GT(shell.recorder().events_dropped(), 0u);
}

TEST(ShellTest, TraceOnDefaultsToBoundedRing) {
  // A bare `trace on` must not install an unbounded recorder: long soak
  // sessions would grow without limit. The default is a 65536-event ring;
  // an explicit capacity still wins.
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("trace on").ok);
  EXPECT_EQ(shell.recorder().capacity(), 65536u);
  ASSERT_TRUE(shell.Run("trace off").ok);
  ASSERT_TRUE(shell.Run("trace on 4").ok);
  EXPECT_EQ(shell.recorder().capacity(), 4u);
}

TEST(ShellTest, NumericArgumentsAreValidated) {
  // strtoull silently yields 0 for "abc" and accepts "12x": before the
  // strict parse, `trace on abc` configured a zero-capacity ring instead
  // of failing. Every numeric shell argument now rejects non-digits.
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("trace on abc");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("usage: trace on"), std::string::npos) << r.error;
  EXPECT_FALSE(shell.Run("trace on 0").ok);    // zero ring is never meant
  EXPECT_FALSE(shell.Run("trace on 12x").ok);  // trailing junk
  EXPECT_TRUE(shell.Run("trace on 4").ok);

  EXPECT_FALSE(shell.Run("random x 5 | collect").ok);
  EXPECT_FALSE(shell.Run("random 5 x | collect").ok);
  EXPECT_TRUE(shell.Run("random 9 3 | collect").ok);

  EXPECT_FALSE(shell.Run("random 9 3 | null x").ok);
  EXPECT_TRUE(shell.Run("random 9 3 | null 2").ok);
}

TEST(ShellTest, MetricsCommandsMeterPipelines) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("metrics on").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | collect").ok);

  ShellResult show = shell.Run("metrics show");
  ASSERT_TRUE(show.ok) << show.error;
  EXPECT_NE(Joined(show).find("latency"), std::string::npos);
  EXPECT_NE(Joined(show).find("Transfer"), std::string::npos);
  EXPECT_NE(Joined(show).find("invoked"), std::string::npos);
  EXPECT_NE(Joined(show).find("upper"), std::string::npos);  // labeled stage

  ShellResult json = shell.Run("metrics json");
  ASSERT_TRUE(json.ok) << json.error;
  std::string error;
  EXPECT_TRUE(JsonValidate(Joined(json), &error)) << error;

  ASSERT_TRUE(shell.Run("metrics clear").ok);
  EXPECT_NE(Joined(shell.Run("metrics show")).find("no metrics"),
            std::string::npos);
  ASSERT_TRUE(shell.Run("metrics off").ok);
  EXPECT_FALSE(shell.Run("metrics upside-down").ok);
}

TEST(ShellTest, MonitorCommandsCheckInvariants) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("monitor on").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | collect").ok);

  ShellResult show = shell.Run("monitor show");
  ASSERT_TRUE(show.ok) << show.error;
  EXPECT_NE(Joined(show).find("all invariants hold"), std::string::npos);
  EXPECT_NE(Joined(show).find("upper"), std::string::npos);  // labeled stage

  ShellResult json = shell.Run("monitor json");
  ASSERT_TRUE(json.ok) << json.error;
  std::string error;
  EXPECT_TRUE(JsonValidate(Joined(json), &error)) << error;
  EXPECT_NE(Joined(json).find("\"ok\":true"), std::string::npos);

  ASSERT_TRUE(shell.Run("monitor clear").ok);
  EXPECT_TRUE(shell.monitor().flows().empty());
  ASSERT_TRUE(shell.Run("monitor off").ok);
  EXPECT_FALSE(shell.Run("monitor loudly").ok);
}

TEST(ShellTest, DoctorDiagnosesTheRecordedTrace) {
  Kernel kernel;
  EdenShell shell(kernel);
  // Without a recorder installed the doctor says how to get one.
  EXPECT_NE(Joined(shell.Run("doctor")).find("no trace recorder installed"),
            std::string::npos);

  ASSERT_TRUE(shell.Run("trace on").ok);
  ASSERT_TRUE(shell.Run("metrics on").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | nl | collect").ok);

  ShellResult report = shell.Run("doctor");
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_NE(Joined(report).find("verdict: bottleneck"), std::string::npos);
  EXPECT_NE(Joined(report).find("critical path"), std::string::npos);

  ShellResult json = shell.Run("doctor json");
  ASSERT_TRUE(json.ok) << json.error;
  std::string error;
  EXPECT_TRUE(JsonValidate(Joined(json), &error)) << error;
  EXPECT_FALSE(shell.Run("doctor backwards").ok);
}

TEST(ShellTest, ProfileCommandsTimeTheShardWorkers) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("shards 2").ok);
  ASSERT_TRUE(shell.Run("profile on").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | collect").ok);

  ShellResult show = shell.Run("profile show");
  ASSERT_TRUE(show.ok) << show.error;
  EXPECT_NE(Joined(show).find("profiler:"), std::string::npos);
  EXPECT_GT(shell.profiler().runs(), 0u);

  // The wall-clock timeline is a valid Chrome/Perfetto trace.
  ShellResult json = shell.Run("profile json");
  ASSERT_TRUE(json.ok) << json.error;
  std::string error;
  EXPECT_TRUE(JsonValidate(Joined(json), &error)) << error;
  EXPECT_NE(Joined(json).find("traceEvents"), std::string::npos);
  EXPECT_NE(Joined(json).find("shard 0"), std::string::npos);

  std::string path = ::testing::TempDir() + "shell_profile.json";
  ASSERT_TRUE(shell.Run("profile save " + path).ok);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());

  ASSERT_TRUE(shell.Run("profile clear").ok);
  EXPECT_EQ(shell.profiler().runs(), 0u);
  ASSERT_TRUE(shell.Run("profile off").ok);
  EXPECT_FALSE(shell.Run("profile sideways").ok);
}

TEST(ShellTest, HelpListsTheObservabilityCommands) {
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult help = shell.Run("help");
  ASSERT_TRUE(help.ok) << help.error;
  EXPECT_NE(Joined(help).find("profile"), std::string::npos);
  EXPECT_NE(Joined(help).find("trace"), std::string::npos);
  EXPECT_NE(Joined(help).find("doctor"), std::string::npos);
  EXPECT_NE(Joined(help).find("telemetry"), std::string::npos);
  EXPECT_NE(Joined(help).find("slo"), std::string::npos);
}

TEST(ShellTest, TelemetryCommandsSampleTheRun) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("telemetry on 500").ok);
  ASSERT_TRUE(shell.Run("echo a b c | upper | nl | collect").ok);

  ShellResult show = shell.Run("telemetry show");
  ASSERT_TRUE(show.ok) << show.error;
  EXPECT_NE(Joined(show).find("telemetry: cadence 500 ticks"),
            std::string::npos);
  EXPECT_GT(shell.telemetry().invocation_total(), 0u);

  ShellResult json = shell.Run("telemetry json");
  ASSERT_TRUE(json.ok) << json.error;
  std::string error;
  EXPECT_TRUE(JsonValidate(Joined(json), &error)) << error;

  ShellResult topk = shell.Run("telemetry topk");
  ASSERT_TRUE(topk.ok) << topk.error;
  EXPECT_NE(Joined(topk).find("top stages by invocations"), std::string::npos);

  std::string path = ::testing::TempDir() + "shell_telemetry.json";
  ASSERT_TRUE(shell.Run("telemetry save " + path).ok);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());

  ASSERT_TRUE(shell.Run("telemetry clear").ok);
  EXPECT_EQ(shell.telemetry().invocation_total(), 0u);
  ASSERT_TRUE(shell.Run("telemetry off").ok);
  EXPECT_FALSE(shell.Run("telemetry sideways").ok);
  EXPECT_FALSE(shell.Run("telemetry on zero").ok);
}

TEST(ShellTest, SloRulesFireIntoTheDoctorVerdict) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("trace on").ok);
  ASSERT_TRUE(shell.Run("telemetry on 100").ok);
  ShellResult added = shell.Run("slo add busy count:invoke >= 1");
  ASSERT_TRUE(added.ok) << added.error;
  EXPECT_NE(Joined(added).find("slo rule added: busy"), std::string::npos);
  EXPECT_FALSE(shell.Run("slo add broken count:invoke !! 3").ok);

  ASSERT_TRUE(shell.Run("echo a b c | upper | nl | collect").ok);
  ShellResult list = shell.Run("slo list");
  ASSERT_TRUE(list.ok) << list.error;
  EXPECT_NE(Joined(list).find("busy: count:invoke >= 1"), std::string::npos);
  ASSERT_FALSE(shell.slo().firings().empty());

  // The firing reaches the doctor's verdict line and the monitor's ledger.
  ShellResult report = shell.Run("doctor");
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_NE(Joined(report).find("slo:"), std::string::npos);
  EXPECT_NE(Joined(report).find("time axis"), std::string::npos);
  EXPECT_FALSE(shell.monitor().violations().empty());

  ASSERT_TRUE(shell.Run("slo clear").ok);
  EXPECT_TRUE(shell.slo().rules().empty());
  EXPECT_FALSE(shell.Run("slo sideways").ok);
}

TEST(ShellTest, SaveCommandsWriteJsonFiles) {
  Kernel kernel;
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("trace on").ok);
  ASSERT_TRUE(shell.Run("metrics on").ok);
  ASSERT_TRUE(shell.Run("echo a b | upper | collect").ok);

  auto check_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    EXPECT_TRUE(JsonValidate(buf.str(), &error)) << path << ": " << error;
  };
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(shell.Run("trace save " + dir + "shell_trace.json").ok);
  check_file(dir + "shell_trace.json");
  ASSERT_TRUE(shell.Run("metrics save " + dir + "shell_metrics.json").ok);
  check_file(dir + "shell_metrics.json");
  ASSERT_TRUE(shell.Run("doctor save " + dir + "shell_doctor.json").ok);
  check_file(dir + "shell_doctor.json");
  // An unwritable path fails with the one-line error naming the command and
  // the path — the same contract for every `... save FILE` command.
  ShellResult bad = shell.Run("trace save /nonexistent-dir/x.json");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "trace save: cannot open file: /nonexistent-dir/x.json");
  bad = shell.Run("metrics save /nonexistent-dir/x.json");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error,
            "metrics save: cannot open file: /nonexistent-dir/x.json");
  bad = shell.Run("doctor save /nonexistent-dir/x.json");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "doctor save: cannot open file: /nonexistent-dir/x.json");
  ASSERT_TRUE(shell.Run("telemetry on").ok);
  bad = shell.Run("telemetry save /nonexistent-dir/x.json");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error,
            "telemetry save: cannot open file: /nonexistent-dir/x.json");
}


// ------------------------------------------------- the instrument surface

// Every instrument command, pinned line for line: the verbs each one
// accepts, the exact acknowledgement lines, and the exact usage error for
// anything else. The shell's instrument table must reproduce all of it.
struct InstrumentSurface {
  const char* name;
  const char* usage;
  bool bare_is_show;  // `NAME` alone means `NAME show`
  bool savable;       // `NAME save FILE` writes the `NAME json` text
};

constexpr InstrumentSurface kInstrumentSurfaces[] = {
    {"trace", "usage: trace on [CAP]|off|show|json|clear|save FILE", false,
     true},
    {"metrics", "usage: metrics on|off|show|json|clear|save FILE", false, true},
    {"monitor", "usage: monitor on|off|show|json|clear", false, false},
    {"profile", "usage: profile on|off|show|json|clear|save FILE", false,
     true},
    {"telemetry",
     "usage: telemetry on [CADENCE]|off|show|json|topk|clear|save FILE", false,
     true},
    {"lockdep", "usage: lockdep on|off|show|json|clear|selftest", true, false},
    {"audit", "usage: audit on|off|show|json|clear|save FILE", true, true},
};

std::vector<std::string> FileLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(ShellTest, InstrumentCommandSurfaceIsPinned) {
  for (const InstrumentSurface& surface : kInstrumentSurfaces) {
    const std::string name = surface.name;
    SCOPED_TRACE(name);
    Kernel kernel;
    EdenShell shell(kernel);
    auto expect_lines = [&](const std::string& command,
                            const std::vector<std::string>& lines) {
      ShellResult r = shell.Run(command);
      EXPECT_TRUE(r.ok) << command << ": " << r.error;
      EXPECT_EQ(r.output, lines) << command;
    };
    auto expect_usage = [&](const std::string& command,
                            const std::string& usage) {
      ShellResult r = shell.Run(command);
      EXPECT_FALSE(r.ok) << command;
      EXPECT_EQ(r.error, usage) << command;
      EXPECT_TRUE(r.output.empty()) << command;
    };

    expect_lines(name + " on", {name + " on"});
    ASSERT_TRUE(shell.Run("echo a b | upper | collect").ok);
    expect_lines(name + " off", {name + " off"});
    expect_lines(name + " clear", {name + " cleared"});

    for (const char* bad : {" sideways", " show extra", " json extra",
                            " clear extra", " off extra", " save", " on 1 2",
                            " save a b"}) {
      expect_usage(name + bad, surface.usage);
    }

    ShellResult show = shell.Run(name + " show");
    ASSERT_TRUE(show.ok) << show.error;
    if (surface.bare_is_show) {
      expect_lines(name, show.output);
    } else {
      expect_usage(name, surface.usage);
    }

    const std::string path =
        ::testing::TempDir() + "shell_pin_" + name + ".json";
    if (surface.savable) {
      ShellResult json = shell.Run(name + " json");
      ASSERT_TRUE(json.ok) << json.error;
      expect_lines(name + " save " + path, {name + " saved to " + path});
      EXPECT_EQ(FileLines(path), json.output);
    } else {
      expect_usage(name + " save " + path, surface.usage);
    }
  }

  // Only trace and telemetry take an argument to `on`, each with its own
  // usage line; the others reject one with their command usage.
  Kernel kernel;
  EdenShell shell(kernel);
  ShellResult r = shell.Run("trace on abc");
  EXPECT_EQ(r.error, "usage: trace on [CAP]  (CAP: positive integer)");
  r = shell.Run("telemetry on zero");
  EXPECT_EQ(r.error,
            "usage: telemetry on [CADENCE]  (CADENCE: positive ticks per "
            "window)");
  for (const char* name : {"metrics", "monitor", "profile", "lockdep",
                           "audit"}) {
    r = shell.Run(std::string(name) + " on 5");
    EXPECT_FALSE(r.ok) << name;
    EXPECT_EQ(r.error.substr(0, 7 + std::string(name).size()),
              "usage: " + std::string(name))
        << name;
  }
  EXPECT_EQ(shell.Run("trace on 7").output,
            std::vector<std::string>{"trace on"});
  EXPECT_EQ(shell.Run("telemetry on 250").output,
            std::vector<std::string>{"telemetry on"});
  EXPECT_EQ(shell.Run("lockdep selftest").output.back(), "selftest passed");
  ShellResult topk = shell.Run("telemetry topk");
  ASSERT_EQ(topk.output.size(), 2u);
  EXPECT_EQ(topk.output[0], "top stages by invocations (of 0): none");
  EXPECT_EQ(topk.output[1], "top queues by hiwat hits (of 0): none");
  for (const char* name : {"trace", "metrics", "monitor", "profile", "lockdep",
                           "audit"}) {
    EXPECT_FALSE(shell.Run(std::string(name) + " topk").ok) << name;
    if (std::string(name) != "lockdep") {
      EXPECT_FALSE(shell.Run(std::string(name) + " selftest").ok) << name;
    }
  }
}

// Checker violations reach the monitor whichever order the instruments are
// switched on in: the auditor is wired to the monitor once, up front.
TEST(ShellTest, AuditFeedsMonitorEvenWhenSwitchedOnFirst) {
  KernelOptions kernel_options;
  kernel_options.shards = 2;
  Kernel kernel(kernel_options);
  EdenShell shell(kernel);
  ASSERT_TRUE(shell.Run("audit on").ok);
  ASSERT_TRUE(shell.Run("monitor on").ok);
  // A cross-shard send that undercuts its window promise, fed by hand.
  shell.audit().OnCrossShardSend(0, 1, EventKey{10, 1, 1}, /*promised=*/20);
  ASSERT_EQ(shell.audit().violation_count(), 1u);
  ASSERT_EQ(shell.monitor().violations().size(), 1u);
  EXPECT_EQ(shell.monitor().violations().front().kind,
            InvariantMonitor::Violation::Kind::kShardRace);
}

}  // namespace
}  // namespace eden

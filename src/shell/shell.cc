#include "src/shell/shell.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

#include <fstream>
#include <sstream>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/stream.h"
#include "src/eden/analysis.h"
#include "src/eden/json.h"
#include "src/eden/trace_export.h"
#include "src/filters/multi_input.h"
#include "src/filters/registry.h"
#include "src/shell/lexer.h"

namespace eden {
namespace {

// `trace on` without a capacity: bounded by default. Unbounded recording is
// a soak-run footgun; 64 Ki events cover any shell session while capping the
// ring at a few MB. `trace on CAP` still overrides.
constexpr size_t kDefaultTraceCapacity = 65536;

std::string AsLine(const Value& item) {
  if (const std::string* s = item.AsStr()) {
    return *s;
  }
  return item.ToString();
}

ShellResult Fail(std::string message) {
  ShellResult result;
  result.ok = false;
  result.error = std::move(message);
  return result;
}

void PushLines(ShellResult& result, const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    result.output.push_back(line);
  }
}

// Strict numeric parse for shell arguments: the whole word must be digits.
// std::strtoull silently yields 0 for "abc" and accepts trailing junk in
// "12x", turning a typo into a surprising configuration (e.g. `trace on abc`
// setting a zero-capacity ring).
std::optional<uint64_t> ParseCount(const std::string& word) {
  if (word.empty() || word.size() > 19) {  // 19 digits always fit uint64_t
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : word) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

// Shared by every `... save FILE` command. Errors are one line naming both
// the command and the path (the bench_compare CLI contract: "bench_compare:
// no such file: X"), so CI logs pinpoint which artifact failed to land.
ShellResult SaveText(const std::string& path, const std::string& text,
                     const std::string& what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Fail(what + " save: cannot open file: " + path);
  }
  out << text;
  if (!out) {
    return Fail(what + " save: write failed: " + path);
  }
  ShellResult result;
  result.output.push_back(what + " saved to " + path);
  return result;
}

}  // namespace

EdenShell::EdenShell(Kernel& kernel, HostFs* host) : kernel_(kernel), host_(host) {
  // Checker violations double as trace events and monitor violations. Wired
  // once here, so the order instruments are switched on in cannot matter.
  monitor_.set_trace_sink(recorder_.Hook());
  lockdep_.set_trace_sink(recorder_.Hook());
  audit_.set_trace_sink(recorder_.Hook());
  audit_.set_monitor(&monitor_);
  slo_.set_trace_sink(recorder_.Hook());
  slo_.set_monitor(&monitor_);
  telemetry_.set_slo(&slo_);
}

std::optional<Uid> EdenShell::Resolve(const std::string& name) const {
  auto it = bindings_.find(name);
  if (it == bindings_.end()) {
    return std::nullopt;
  }
  return it->second;
}

TerminalSink* EdenShell::terminal(const std::string& name) {
  auto it = terminals_.find(name);
  return it == terminals_.end() ? nullptr : it->second;
}

PrinterSink* EdenShell::printer(const std::string& name) {
  auto it = printers_.find(name);
  return it == printers_.end() ? nullptr : it->second;
}

ReportWindow* EdenShell::window(const std::string& name) {
  auto it = windows_.find(name);
  return it == windows_.end() ? nullptr : it->second;
}

ReportWindow& EdenShell::WindowOrCreate(const std::string& name) {
  auto it = windows_.find(name);
  if (it != windows_.end()) {
    return *it->second;
  }
  ReportWindow& window = kernel_.CreateLocal<ReportWindow>();
  windows_[name] = &window;
  return window;
}

bool EdenShell::Parse(const std::string& input, std::vector<Stage>& stages,
                      std::string& error) {
  LexResult lexed = Tokenize(input);
  if (!lexed.ok) {
    error = lexed.error;
    return false;
  }
  Stage current;
  bool have_command = false;
  auto flush = [&]() {
    if (have_command) {
      stages.push_back(std::move(current));
      current = Stage();
      have_command = false;
    }
  };
  for (Token& token : lexed.tokens) {
    switch (token.kind) {
      case TokenKind::kPipe:
        if (!have_command) {
          error = "empty pipeline stage";
          return false;
        }
        flush();
        break;
      case TokenKind::kWord:
        if (!have_command) {
          current.command = std::move(token.text);
          have_command = true;
        } else {
          current.args.push_back(std::move(token.text));
        }
        break;
      case TokenKind::kRedirect: {
        if (!have_command) {
          error = "redirection before command";
          return false;
        }
        size_t gt = token.text.find('>');
        current.redirects.emplace_back(token.text.substr(0, gt),
                                       token.text.substr(gt + 1));
        break;
      }
    }
  }
  flush();
  if (stages.size() < 2) {
    error = "a pipeline needs a source and a sink";
    return false;
  }
  return true;
}

// One row per shell-owned instrument. Every row answers
// `NAME on|off|show|json|clear`; `save FILE` writes the json text where
// `savable`; `on ARG` and one extra verb exist where the row has a handler.
struct EdenShell::Instrument {
  std::string_view name;
  std::string_view usage;
  void (*set)(EdenShell&, bool on);  // install on / remove from the kernel
  void (*show)(EdenShell&, ShellResult&);
  std::string (*json)(EdenShell&);
  void (*clear)(EdenShell&);
  bool savable = false;
  bool bare_is_show = false;  // `NAME` alone means `NAME show`
  // Names a pipeline stage in this instrument's output.
  void (*label)(EdenShell&, const Uid&, const std::string&) = nullptr;
  // `NAME on ARG`: applies ARG before installing, or returns the error.
  std::optional<std::string> (*on_arg)(EdenShell&, const std::string&) = nullptr;
  std::string_view extra_verb = {};
  void (*extra)(EdenShell&, ShellResult&) = nullptr;
};

const EdenShell::Instrument EdenShell::kInstruments[] = {
    {.name = "trace",
     .usage = "usage: trace on [CAP]|off|show|json|clear|save FILE",
     .set =
         [](EdenShell& s, bool on) {
           if (on && s.recorder_.capacity() == 0) {
             s.recorder_.set_capacity(kDefaultTraceCapacity);
           }
           s.kernel_.set_tracer(on ? s.recorder_.Hook() : Tracer());
         },
     .show = [](EdenShell& s, ShellResult& r) { PushLines(r, s.recorder_.Render()); },
     .json =
         [](EdenShell& s) {
           // Counter tracks ride along when the sampler is on, so the series
           // graph next to the spans in Perfetto.
           ChromeTraceExporter exporter(s.recorder_);
           if (s.Installed("telemetry")) {
             exporter.set_telemetry(&s.telemetry_);
           }
           return exporter.Export();
         },
     .clear = [](EdenShell& s) { s.recorder_.Clear(); },
     .savable = true,
     .label = [](EdenShell& s, const Uid& uid, const std::string& n) { s.recorder_.Label(uid, n); },
     .on_arg = [](EdenShell& s, const std::string& arg) -> std::optional<std::string> {
       std::optional<uint64_t> capacity = ParseCount(arg);
       if (!capacity || *capacity == 0) {
         return "usage: trace on [CAP]  (CAP: positive integer)";
       }
       s.recorder_.set_capacity(*capacity);
       return std::nullopt;
     }},
    {.name = "metrics",
     .usage = "usage: metrics on|off|show|json|clear|save FILE",
     .set = [](EdenShell& s, bool on) { s.kernel_.set_metrics(on ? &s.metrics_ : nullptr); },
     .show = [](EdenShell& s, ShellResult& r) { PushLines(r, s.metrics_.ToString()); },
     .json = [](EdenShell& s) { return s.metrics_.ToJson(); },
     .clear = [](EdenShell& s) { s.metrics_.Clear(); },
     .savable = true,
     .label = [](EdenShell& s, const Uid& uid, const std::string& n) { s.metrics_.Label(uid, n); }},
    {.name = "monitor",
     .usage = "usage: monitor on|off|show|json|clear",
     .set = [](EdenShell& s, bool on) { s.kernel_.set_monitor(on ? &s.monitor_ : nullptr); },
     .show = [](EdenShell& s, ShellResult& r) { PushLines(r, s.monitor_.ToString()); },
     .json = [](EdenShell& s) { return ValueToJson(s.monitor_.ToValue()); },
     .clear = [](EdenShell& s) { s.monitor_.Clear(); },
     .label = [](EdenShell& s, const Uid& uid, const std::string& n) { s.monitor_.Label(uid, n); }},
    {.name = "profile",
     .usage = "usage: profile on|off|show|json|clear|save FILE",
     .set = [](EdenShell& s, bool on) { s.kernel_.set_profiler(on ? &s.profiler_ : nullptr); },
     .show =
         [](EdenShell& s, ShellResult& r) {
           PushLines(r, s.profiler_.ToString());
           ParallelVerdict verdict = DiagnoseParallel(s.profiler_);
           if (verdict.valid) {
             r.output.push_back(verdict.ToLine());
           }
         },
     .json = [](EdenShell& s) { return ShardProfileExporter(s.profiler_).Export(); },
     .clear = [](EdenShell& s) { s.profiler_.Clear(); },
     .savable = true},
    {.name = "telemetry",
     .usage = "usage: telemetry on [CADENCE]|off|show|json|topk|clear|save FILE",
     .set = [](EdenShell& s, bool on) { s.kernel_.set_telemetry(on ? &s.telemetry_ : nullptr); },
     .show =
         [](EdenShell& s, ShellResult& r) {
           PushLines(r, s.telemetry_.ToString());
           TelemetryVerdict verdict = DiagnoseTelemetry(s.telemetry_);
           if (verdict.valid) {
             r.output.push_back(verdict.ToLine());
           }
         },
     .json = [](EdenShell& s) { return s.telemetry_.ToJson(); },
     .clear = [](EdenShell& s) { s.telemetry_.Clear(); },
     .savable = true,
     .label = [](EdenShell& s, const Uid& uid,
                 const std::string& n) { s.telemetry_.Label(uid, n); },
     .on_arg = [](EdenShell& s, const std::string& arg) -> std::optional<std::string> {
       std::optional<uint64_t> cadence = ParseCount(arg);
       if (!cadence || *cadence == 0) {
         return "usage: telemetry on [CADENCE]  (CADENCE: positive ticks per window)";
       }
       TelemetrySampler::Options options = s.telemetry_.options();
       options.cadence = static_cast<Tick>(*cadence);
       s.telemetry_.Reset(options);
       return std::nullopt;
     },
     .extra_verb = "topk",
     .extra =
         [](EdenShell& s, ShellResult& r) {
           auto push_top = [&r](const std::string& title,
                                const std::vector<TelemetrySampler::TopEntry>& top,
                                uint64_t total) {
             std::ostringstream out;
             out << title << " (of " << total << "):";
             if (top.empty()) {
               out << " none";
             }
             for (const TelemetrySampler::TopEntry& entry : top) {
               out << " " << entry.name << "=" << entry.count;
               if (entry.error > 0) {
                 out << "(-" << entry.error << ")";
               }
             }
             r.output.push_back(out.str());
           };
           push_top("top stages by invocations", s.telemetry_.TopInvocations(),
                    s.telemetry_.invocation_total());
           push_top("top queues by hiwat hits", s.telemetry_.TopHiwat(),
                    s.telemetry_.hiwat_total());
         }},
    {.name = "lockdep",
     .usage = "usage: lockdep on|off|show|json|clear|selftest",
     .set = [](EdenShell& s, bool on) { s.kernel_.set_lock_observer(on ? &s.lockdep_ : nullptr); },
     .show = [](EdenShell& s, ShellResult& r) { PushLines(r, s.lockdep_.ToString()); },
     .json = [](EdenShell& s) { return ValueToJson(s.lockdep_.ToValue()); },
     .clear = [](EdenShell& s) { s.lockdep_.Clear(); },
     .bare_is_show = true,
     .extra_verb = "selftest",
     .extra =
         [](EdenShell&, ShellResult& r) {
           std::string report;
           r.ok = verify::LockOrderAnalyzer::SelfTest(&report);
           PushLines(r, report);
           r.output.push_back(r.ok ? "selftest passed" : "selftest FAILED");
         }},
    {.name = "audit",
     .usage = "usage: audit on|off|show|json|clear|save FILE",
     .set = [](EdenShell& s, bool on) { s.kernel_.set_auditor(on ? &s.audit_ : nullptr); },
     .show = [](EdenShell& s, ShellResult& r) { PushLines(r, s.audit_.ToString()); },
     .json = [](EdenShell& s) { return s.audit_.ToJson(); },
     .clear = [](EdenShell& s) { s.audit_.Clear(); },
     .savable = true,
     .bare_is_show = true},
};

size_t EdenShell::InstrumentIndex(std::string_view name) {
  size_t i = 0;
  while (i < std::size(kInstruments) && kInstruments[i].name != name) {
    ++i;
  }
  return i;
}

bool EdenShell::Installed(std::string_view name) const {
  return (installed_ >> InstrumentIndex(name)) & 1U;
}

void EdenShell::LabelStage(const Uid& uid, const std::string& name) {
  for (size_t i = 0; i < std::size(kInstruments); ++i) {
    if (kInstruments[i].label != nullptr && ((installed_ >> i) & 1U)) {
      kInstruments[i].label(*this, uid, name);
    }
  }
}

ShellResult EdenShell::RunInstrument(size_t index, const std::vector<std::string>& words) {
  const Instrument& inst = kInstruments[index];
  const std::string name(inst.name);
  const std::string verb = words.size() > 1 ? words[1] : (inst.bare_is_show ? "show" : "");
  ShellResult result;
  if (verb == "on" && (words.size() == 2 || (words.size() == 3 && inst.on_arg != nullptr))) {
    if (words.size() == 3) {
      if (std::optional<std::string> error = inst.on_arg(*this, words[2])) {
        return Fail(*error);
      }
    }
    inst.set(*this, true);
    installed_ |= 1U << index;
    result.output.push_back(name + " on");
  } else if (verb == "save" && words.size() == 3 && inst.savable) {
    return SaveText(words[2], inst.json(*this), name);
  } else if (words.size() > 2) {
    return Fail(std::string(inst.usage));
  } else if (verb == "off") {
    inst.set(*this, false);
    installed_ &= ~(1U << index);
    result.output.push_back(name + " off");
  } else if (verb == "show") {
    inst.show(*this, result);
  } else if (verb == "json") {
    PushLines(result, inst.json(*this));
  } else if (verb == "clear") {
    inst.clear(*this);
    result.output.push_back(name + " cleared");
  } else if (inst.extra != nullptr && verb == inst.extra_verb) {
    inst.extra(*this, result);
  } else {
    return Fail(std::string(inst.usage));
  }
  return result;
}

std::optional<ShellResult> EdenShell::RunControl(const std::string& command) {
  std::istringstream stream(command);
  std::vector<std::string> words;
  std::string word;
  while (stream >> word) {
    words.push_back(word);
  }
  if (words.empty()) {
    return std::nullopt;
  }
  if (size_t index = InstrumentIndex(words[0]); index < std::size(kInstruments)) {
    return RunInstrument(index, words);
  }
  ShellResult result;
  if (words[0] == "help") {
    result.output = {
        "pipelines:  SOURCE | FILTER ... | SINK   (see shell.h for stages)",
        "stats [json]                      kernel counters",
        "shards [N]                        show / set kernel shard count",
        "trace on [CAP]|off|show|json|clear|save FILE   span recorder "
        "(default ring 65536)",
        "metrics on|off|show|json|clear|save FILE       latency/queue "
        "metrics",
        "monitor on|off|show|json|clear    online invariant checks",
        "profile on|off|show|json|clear|save FILE       wall-clock shard "
        "profiler (Perfetto)",
        "doctor [json]|doctor save FILE    bottleneck + parallel + telemetry "
        "verdict",
        "telemetry on [CADENCE]|off|show|json|topk|clear|save FILE  windowed "
        "time-series + heavy hitters",
        "slo add SPEC|list|clear           alert rules over telemetry series "
        "(NAME SERIES CMP THRESHOLD [for N])",
        "lint [json|rules]                 static pipeline checks",
        "lockdep on|off|show|json|clear|selftest        lock-order analysis",
        "audit on|off|show|json|clear|save FILE         cross-shard "
        "determinism audit + run certificate",
    };
    return result;
  }
  if (words[0] == "stats") {
    if (words.size() == 2 && words[1] == "json") {
      PushLines(result, ValueToJson(kernel_.stats().ToValue()));
    } else if (words.size() == 1) {
      result.output.push_back(kernel_.stats().ToString());
    } else {
      return Fail("usage: stats [json]");
    }
    return result;
  }
  if (words[0] == "shards") {
    if (words.size() == 1) {
      std::ostringstream out;
      out << "shards: " << kernel_.shard_count();
      std::vector<ShardCounters> counters = kernel_.shard_counters();
      for (size_t i = 0; i < counters.size(); ++i) {
        const ShardCounters& c = counters[i];
        out << "\n  shard " << i << ": events=" << c.events_processed
            << " cross_sends=" << c.cross_shard_sends
            << " stalls=" << c.lookahead_stalls << " windows=" << c.windows
            << " mbox_hiwat=" << c.mailbox_high_water
            << " overflows=" << c.mailbox_overflows;
      }
      result.output.push_back(out.str());
      return result;
    }
    if (words.size() == 2) {
      std::optional<uint64_t> count = ParseCount(words[1]);
      if (!count || *count == 0) {
        return Fail("usage: shards [N]  (N: positive integer)");
      }
      if (!kernel_.set_shards(static_cast<int>(*count))) {
        return Fail("shards: kernel is not quiescent (drain pipelines first)");
      }
      result.output.push_back("shards: " + std::to_string(*count));
      return result;
    }
    return Fail("usage: shards [N]  (N: positive integer)");
  }
  if (words[0] == "lint") {
    if (words.size() == 2 && words[1] == "rules") {
      for (const verify::PipelineLinter::RuleInfo& rule :
           verify::PipelineLinter::Rules()) {
        result.output.push_back(std::string(rule.id) + " [" +
                                std::string(SeverityName(rule.worst)) + "] " +
                                std::string(rule.summary));
      }
      return result;
    }
    if (!have_topology_) {
      result.output.push_back(
          "no pipeline linted yet (run a pipeline first; every pipeline is "
          "linted as it is wired)");
      return result;
    }
    if (words.size() == 2 && words[1] == "json") {
      PushLines(result, ValueToJson(last_lint_.ToValue()));
    } else if (words.size() == 1) {
      PushLines(result, last_lint_.ToString());
    } else {
      return Fail("usage: lint [json|rules]");
    }
    return result;
  }
  if (words[0] == "slo") {
    if (words.size() >= 3 && words[1] == "add") {
      std::string spec;
      for (size_t i = 2; i < words.size(); ++i) {
        spec += (i == 2 ? "" : " ") + words[i];
      }
      Status status = slo_.Add(spec);
      if (!status.ok()) {
        return Fail(status.message());
      }
      result.output.push_back("slo rule added: " + slo_.rules().back().name);
    } else if (words.size() == 2 && words[1] == "list") {
      PushLines(result, slo_.ToString());
    } else if (words.size() == 2 && words[1] == "clear") {
      slo_.Clear();
      result.output.push_back("slo cleared");
    } else {
      return Fail(
          "usage: slo add NAME SERIES CMP THRESHOLD [for N]|list|clear");
    }
    return result;
  }
  if (words[0] != "doctor") {
    return std::nullopt;
  }
  if (!Installed("trace") && recorder_.size() == 0) {
    result.output.push_back(
        "no trace recorder installed — run `trace on` first");
    return result;
  }
  PipelineDoctor doctor(recorder_, Installed("metrics") ? &metrics_ : nullptr,
                        Installed("profile") ? &profiler_ : nullptr,
                        Installed("telemetry") ? &telemetry_ : nullptr);
  auto diagnose = [&] {
    Diagnosis d = doctor.Diagnose();
    if (have_topology_) {
      // One verdict line carries both stories: the dynamic bottleneck and
      // the static lint outcome for the pipeline that produced the trace.
      d.AnnotateStatic(last_lint_.error_count(), last_lint_.warning_count(),
                       last_lint_.Summary());
    }
    if (Installed("audit")) {
      verify::RunDigest digest = audit_.Digest();
      char hex[19];
      std::snprintf(hex, sizeof(hex), "0x%016llx",
                    static_cast<unsigned long long>(digest.merged));
      d.AnnotateAudit(digest.events, digest.violations, hex);
    }
    return d;
  };
  if (words.size() == 1) {
    PushLines(result, diagnose().ToString());
  } else if (words.size() == 2 && words[1] == "json") {
    PushLines(result, ValueToJson(diagnose().ToValue()));
  } else if (words.size() == 3 && words[1] == "save") {
    return SaveText(words[2], ValueToJson(diagnose().ToValue()), "doctor");
  } else {
    return Fail("usage: doctor [json]|doctor save FILE");
  }
  return result;
}

void EdenShell::LintTopology(verify::TopologySpec topology) {
  last_topology_ = std::move(topology);
  have_topology_ = true;
  last_lint_ = verify::PipelineLinter().Lint(last_topology_);
  if (Installed("monitor")) {
    for (const verify::LintDiagnostic& diag : last_lint_.diagnostics) {
      if (diag.severity == verify::Severity::kError) {
        monitor_.OnStaticFinding(
            kernel_.now(), diag.stage,
            diag.rule + " " +
                (diag.stage_name.empty() ? "topology" : diag.stage_name) +
                ": " + diag.message);
      }
    }
  }
}

ShellResult EdenShell::Run(const std::string& command, uint64_t max_events) {
  if (std::optional<ShellResult> control = RunControl(command)) {
    return *control;
  }
  std::vector<Stage> stages;
  std::string error;
  if (!Parse(command, stages, error)) {
    return Fail(error);
  }
  uint64_t ejects_before = kernel_.stats().ejects_created;

  // Every pipeline is also recorded as a TopologySpec and linted as it is
  // wired (the §5 structural rules as a graph pass); the report is served by
  // `lint`, folded into the doctor's verdict, and — when the monitor is on —
  // errors join its violation stream.
  verify::TopologySpec topo;
  topo.flavor = verify::Flavor::kMixed;
  auto note_stage = [&](const Uid& uid, const std::string& name,
                        const std::string& type, bool is_source, bool is_sink,
                        bool active_input, bool passive_output) {
    if (topo.Find(uid) != nullptr) {
      return;
    }
    verify::StageSpec stage;
    stage.uid = uid;
    stage.name = name;
    stage.type = type;
    stage.is_source = is_source;
    stage.is_sink = is_sink;
    stage.active_input = active_input;
    stage.passive_output = passive_output;
    topo.AddStage(std::move(stage));
  };
  // A bound stream a fan-in source (cmp/merge/sed) pulls from.
  auto note_input = [&](const Uid& input, const std::string& name,
                        const Uid& reader) {
    note_stage(input, name, "bound", /*is_source=*/true, /*is_sink=*/false,
               /*active_input=*/false, /*passive_output=*/true);
    topo.Connect(input, reader, verify::EdgeSpec::Mode::kPull,
                 std::string(kChanOut));
  };

  // ---- Source stage.
  const Stage& source_stage = stages.front();
  if (!source_stage.redirects.empty()) {
    return Fail("redirection is only valid on filter stages");
  }
  Uid upstream;
  if (source_stage.command == "echo") {
    ValueList items;
    for (const std::string& arg : source_stage.args) {
      items.push_back(Value(arg));
    }
    upstream = kernel_.CreateLocal<VectorSource>(std::move(items)).uid();
  } else if (source_stage.command == "cat" && source_stage.args.size() == 1) {
    auto uid = Resolve(source_stage.args[0]);
    if (!uid) {
      return Fail("unbound name: " + source_stage.args[0]);
    }
    upstream = *uid;
  } else if (source_stage.command == "unixfs" && source_stage.args.size() == 1) {
    if (host_ == nullptr) {
      return Fail("no host file system attached");
    }
    if (unixfs_ == nullptr) {
      unixfs_ = &kernel_.CreateLocal<UnixFileSystemEject>(*host_);
    }
    InvokeResult opened = kernel_.InvokeAndRun(
        unixfs_->uid(), "NewStream", Value().Set("path", Value(source_stage.args[0])));
    if (!opened.ok()) {
      return Fail("NewStream failed: " + opened.status.ToString());
    }
    auto stream = opened.value().Field("stream").AsUid();
    if (!stream) {
      return Fail("NewStream returned no stream");
    }
    upstream = *stream;
  } else if (source_stage.command == "random" && source_stage.args.size() == 2) {
    std::optional<uint64_t> seed = ParseCount(source_stage.args[0]);
    std::optional<uint64_t> total = ParseCount(source_stage.args[1]);
    if (!seed || !total) {
      return Fail("usage: random SEED TOTAL  (both: integers)");
    }
    upstream = kernel_.CreateLocal<RandomSource>(*seed, *total).uid();
  } else if (source_stage.command == "clock" && source_stage.args.empty()) {
    upstream = kernel_.CreateLocal<ClockSource>().uid();
  } else if (source_stage.command == "cmp" && source_stage.args.size() == 2) {
    auto left = Resolve(source_stage.args[0]);
    auto right = Resolve(source_stage.args[1]);
    if (!left || !right) {
      return Fail("unbound name in cmp");
    }
    upstream = kernel_.CreateLocal<CmpEject>(StreamRef{*left}, StreamRef{*right}).uid();
    note_input(*left, source_stage.args[0], upstream);
    note_input(*right, source_stage.args[1], upstream);
  } else if (source_stage.command == "merge" && source_stage.args.size() >= 2) {
    std::vector<StreamRef> inputs;
    std::vector<Uid> input_uids;
    for (const std::string& name : source_stage.args) {
      auto uid = Resolve(name);
      if (!uid) {
        return Fail("unbound name in merge: " + name);
      }
      inputs.push_back(StreamRef{*uid});
      input_uids.push_back(*uid);
    }
    upstream = kernel_.CreateLocal<MergeEject>(std::move(inputs)).uid();
    for (size_t i = 0; i < input_uids.size(); ++i) {
      note_input(input_uids[i], source_stage.args[i], upstream);
    }
  } else if (source_stage.command == "sed" && source_stage.args.size() == 2) {
    auto commands = Resolve(source_stage.args[0]);
    auto text = Resolve(source_stage.args[1]);
    if (!commands || !text) {
      return Fail("unbound name in sed");
    }
    upstream = kernel_.CreateLocal<SedLite>(StreamRef{*commands}, StreamRef{*text}).uid();
    note_input(*commands, source_stage.args[0], upstream);
    note_input(*text, source_stage.args[1], upstream);
  } else {
    return Fail("unknown source: " + source_stage.command);
  }
  LabelStage(upstream, source_stage.command);
  // cmp/merge/sed pull from the bound inputs recorded above (§5 fan-in);
  // every other source injects data from outside the graph.
  const bool fan_in_source = source_stage.command == "cmp" ||
                             source_stage.command == "merge" ||
                             source_stage.command == "sed";
  note_stage(upstream, source_stage.command, source_stage.command,
             /*is_source=*/!fan_in_source, /*is_sink=*/false,
             /*active_input=*/fan_in_source, /*passive_output=*/true);

  // ---- Filter stages.
  std::vector<ReportWindow*> attached_windows;
  for (size_t i = 1; i + 1 < stages.size(); ++i) {
    const Stage& stage = stages[i];
    auto factory = MakeTransformByName(stage.command, stage.args);
    if (!factory) {
      return Fail("unknown filter: " + stage.command);
    }
    ReadOnlyFilter::Options options;
    options.source = upstream;
    ReadOnlyFilter& filter =
        kernel_.CreateLocal<ReadOnlyFilter>((*factory)(), options);
    for (const auto& [channel, window_name] : stage.redirects) {
      if (!filter.server().HasChannel(channel)) {
        return Fail("stage '" + stage.command + "' has no channel '" + channel + "'");
      }
      ReportWindow& window = WindowOrCreate(window_name);
      window.Attach(filter.uid(), Value(channel), stage.command);
      attached_windows.push_back(&window);
      // Figure 4: the window reads a *distinct* channel of the filter — the
      // sanctioned multiple-output form the linter distinguishes from
      // read-only fan-out on one stream.
      note_stage(window.uid(), "window:" + window_name, ReportWindow::kType,
                 /*is_source=*/false, /*is_sink=*/true, /*active_input=*/true,
                 /*passive_output=*/false);
      topo.Connect(filter.uid(), window.uid(), verify::EdgeSpec::Mode::kPull,
                   channel);
    }
    note_stage(filter.uid(), stage.command, ReadOnlyFilter::kType,
               /*is_source=*/false, /*is_sink=*/false, /*active_input=*/true,
               /*passive_output=*/true);
    topo.Connect(upstream, filter.uid(), verify::EdgeSpec::Mode::kPull,
                 std::string(kChanOut));
    LabelStage(filter.uid(), stage.command);
    upstream = filter.uid();
  }

  // ---- Sink stage.
  const Stage& sink_stage = stages.back();
  if (!sink_stage.redirects.empty()) {
    return Fail("redirection is only valid on filter stages");
  }
  ShellResult result;

  // Completes the topology with the sink and lints it before the run starts
  // (the static check must not depend on how the run goes).
  auto note_sink = [&](const Uid& uid, const std::string& name,
                       const std::string& type) {
    note_stage(uid, name, type, /*is_source=*/false, /*is_sink=*/true,
               /*active_input=*/true, /*passive_output=*/false);
    topo.Connect(upstream, uid, verify::EdgeSpec::Mode::kPull,
                 std::string(kChanOut));
    LintTopology(std::move(topo));
  };

  auto finish = [&]() {
    // Give attached report windows a chance to drain.
    if (!attached_windows.empty()) {
      kernel_.RunUntil(
          [&] {
            for (ReportWindow* window : attached_windows) {
              if (!window->idle()) {
                return false;
              }
            }
            return true;
          },
          max_events);
    }
    result.ejects_created = kernel_.stats().ejects_created - ejects_before;
  };

  if (sink_stage.command == "collect" && sink_stage.args.empty()) {
    PullSink& sink =
        kernel_.CreateLocal<PullSink>(upstream, Value(std::string(kChanOut)));
    LabelStage(sink.uid(), "collect");
    note_sink(sink.uid(), "collect", PullSink::kType);
    kernel_.RunUntil([&] { return sink.done(); }, max_events);
    if (!sink.done()) {
      return Fail("pipeline did not complete (infinite source? use head N)");
    }
    for (const Value& item : sink.items()) {
      result.output.push_back(AsLine(item));
    }
  } else if (sink_stage.command == "terminal" && sink_stage.args.size() <= 1) {
    std::string name = sink_stage.args.empty() ? "tty0" : sink_stage.args[0];
    TerminalSink*& term = terminals_[name];
    if (term == nullptr) {
      term = &kernel_.CreateLocal<TerminalSink>();
    }
    LabelStage(term->uid(), "terminal:" + name);
    note_sink(term->uid(), "terminal:" + name, TerminalSink::kType);
    term->Connect(upstream, Value(std::string(kChanOut)));
    kernel_.RunUntil([&] { return term->idle(); }, max_events);
    result.output.assign(term->screen().begin(), term->screen().end());
  } else if (sink_stage.command == "printer" && sink_stage.args.size() <= 1) {
    std::string name = sink_stage.args.empty() ? "lp0" : sink_stage.args[0];
    PrinterSink*& printer = printers_[name];
    if (printer == nullptr) {
      printer = &kernel_.CreateLocal<PrinterSink>();
    }
    LabelStage(printer->uid(), "printer:" + name);
    note_sink(printer->uid(), "printer:" + name, PrinterSink::kType);
    printer->Print(upstream, Value(std::string(kChanOut)));
    kernel_.RunUntil([&] { return printer->idle(); }, max_events);
    for (size_t p = 0; p < printer->pages().size(); ++p) {
      result.output.push_back("==== page " + std::to_string(p + 1) + " ====");
      for (const std::string& line : printer->pages()[p]) {
        result.output.push_back(line);
      }
    }
  } else if (sink_stage.command == "tofile" && sink_stage.args.size() == 1) {
    auto uid = Resolve(sink_stage.args[0]);
    if (!uid) {
      return Fail("unbound name: " + sink_stage.args[0]);
    }
    note_sink(*uid, "tofile:" + sink_stage.args[0], "FileEject");
    InvokeResult absorbed = kernel_.InvokeAndRun(
        *uid, "Absorb", Value().Set("source", Value(upstream)));
    if (!absorbed.ok()) {
      return Fail("Absorb failed: " + absorbed.status.ToString());
    }
    result.output.push_back("absorbed " +
                            std::to_string(absorbed.value().Field("count").IntOr(0)) +
                            " lines");
  } else if (sink_stage.command == "usestream" && sink_stage.args.size() == 1) {
    if (host_ == nullptr) {
      return Fail("no host file system attached");
    }
    if (unixfs_ == nullptr) {
      unixfs_ = &kernel_.CreateLocal<UnixFileSystemEject>(*host_);
    }
    InvokeResult used = kernel_.InvokeAndRun(
        unixfs_->uid(), "UseStream",
        Value().Set("path", Value(sink_stage.args[0])).Set("source", Value(upstream)));
    if (!used.ok()) {
      return Fail("UseStream failed: " + used.status.ToString());
    }
    auto file = used.value().Field("file").AsUid();
    note_sink(*file, "usestream:" + sink_stage.args[0], "UnixFile");
    kernel_.RunUntil([&] { return !kernel_.IsActive(*file); }, max_events);
    result.output.push_back("wrote " + sink_stage.args[0]);
  } else if (sink_stage.command == "null" && sink_stage.args.size() <= 1) {
    uint64_t max_items = 0;
    if (!sink_stage.args.empty()) {
      std::optional<uint64_t> parsed = ParseCount(sink_stage.args[0]);
      if (!parsed) {
        return Fail("usage: null [N]  (N: integer; 0 = drain to end)");
      }
      max_items = *parsed;
    }
    NullSink& sink = kernel_.CreateLocal<NullSink>(
        upstream, Value(std::string(kChanOut)), max_items);
    LabelStage(sink.uid(), "null");
    note_sink(sink.uid(), "null", NullSink::kType);
    kernel_.RunUntil([&] { return sink.done(); }, max_events);
    result.output.push_back("discarded " + std::to_string(sink.discarded()));
  } else {
    return Fail("unknown sink: " + sink_stage.command);
  }

  finish();
  return result;
}

}  // namespace eden

// EdenShell: a command language for wiring read-only transput pipelines.
//
// A command is a pipeline:    SOURCE | FILTER ... | SINK
//
// Sources:
//   echo 'line' ...          literal lines
//   cat NAME                 read the bound Eject NAME (file, source, ...)
//   unixfs PATH              bootstrap NewStream from the host file system (§7)
//   random SEED N            N deterministic pseudo-random lines
//   clock                    infinite virtual-time ticks (pair with head)
//   cmp A B                  compare two bound streams (§5 fan-in)
//   merge A B [C...]         round-robin merge of bound streams (fan-in)
//   sed CMDS TEXT            stream editor: command input + text input (§5)
//
// Filters: any name from src/filters/registry.h, e.g.
//   strip C | grep foo | paginate 60 'title' | nl | report 10 copy
//
// Sinks:
//   collect                  gather the stream; returned in Result.output
//   terminal [NAME]          pump onto a (named) terminal screen
//   printer [NAME]           print onto a (named) printer
//   tofile NAME              a bound FileEject *absorbs* the stream (§4's
//                            "file opened for output" performing the reads)
//   usestream PATH           bootstrap UseStream into the host fs (§7)
//   null [N]                 discard (at most N) items
//
// Redirection: a filter stage may carry  report>WIN  which attaches the
// named ReportWindow to that stage's "report" channel — the read-only
// channel-identifier discipline of Figure 4.
//
// The shell resolves names through its binding table; Bind() enters any
// Eject. "From the point of view of an Eject trying to perform a Lookup
// operation, any Eject which responds in the appropriate way is a
// satisfactory directory" (§2) — the binding table is just a local
// directory.
#ifndef SRC_SHELL_SHELL_H_
#define SRC_SHELL_SHELL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/devices/devices.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/profile.h"
#include "src/eden/slo.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"
#include "src/eden/verify/lint.h"
#include "src/eden/verify/lockdep.h"
#include "src/eden/verify/shard_audit.h"
#include "src/eden/verify/topology.h"
#include "src/fs/unix_fs.h"

namespace eden {

struct ShellResult {
  bool ok = true;
  std::string error;
  // collect: the stream items; terminal/printer: the screen/pages flattened.
  std::vector<std::string> output;
  // Ejects created while running this command (for census assertions).
  size_t ejects_created = 0;
};

class EdenShell {
 public:
  // host may be null if unixfs/usestream are not used.
  EdenShell(Kernel& kernel, HostFs* host = nullptr);

  // Binds NAME to an Eject for cat/tofile.
  void Bind(const std::string& name, Uid uid) { bindings_[name] = uid; }
  std::optional<Uid> Resolve(const std::string& name) const;

  // Parses and runs one pipeline to completion (bounded by max_events).
  //
  // Besides pipelines, the shell understands control commands (`help`
  // lists them, one line each):
  //   stats [json]             kernel counters since boot
  //   shards [N]               show / set the kernel shard count
  //   doctor [json|save FILE]  PipelineDoctor diagnosis of the recorded
  //                            trace (+ metrics / profile / telemetry / audit
  //                            when on): critical path, bottleneck verdict
  //   slo add SPEC|list|clear  alert rules over telemetry series:
  //                            NAME SERIES CMP THRESHOLD [for N], e.g.
  //                            `slo add lag rate:invoke > 5000 for 3`
  //   lint [json|rules]        PipelineLinter report for the last pipeline
  //                            this shell wired (errors also join the
  //                            monitor's violations and the doctor's verdict)
  // and one command per shell-owned instrument — trace, metrics, monitor,
  // profile, telemetry, lockdep, audit — all served by one table
  // (kInstruments in shell.cc) with the same verbs:
  //   NAME on|off              install / remove it on the kernel
  //   NAME show|json|clear     human-readable / JSON / reset
  //   NAME save FILE           write the JSON to FILE (not monitor, lockdep)
  // plus `trace on CAP` (event ring bound; default 65536), `telemetry on
  // CADENCE` (ticks per window; default 1000), `telemetry topk` and
  // `lockdep selftest`. Bare `lockdep` and `audit` mean `show`. Checker
  // violations (monitor, lockdep, audit, slo) land in the trace as
  // kViolation events, and audit and slo breaches also join the monitor's
  // violations, whichever order the instruments are switched on in.
  // While tracing, metering, monitoring or sampling is on, pipeline stages
  // are labeled with their command names, so charts read "grep" rather than
  // a raw UID.
  ShellResult Run(const std::string& command, uint64_t max_events = 2'000'000);

  // The shell-owned instruments (live across commands; inspectable in tests).
  TraceRecorder& recorder() { return recorder_; }
  MetricsRegistry& metrics() { return metrics_; }
  InvariantMonitor& monitor() { return monitor_; }
  ShardProfiler& profiler() { return profiler_; }
  TelemetrySampler& telemetry() { return telemetry_; }
  SloEngine& slo() { return slo_; }
  verify::LockOrderAnalyzer& lockdep() { return lockdep_; }
  verify::ShardRaceAnalyzer& audit() { return audit_; }
  // The lint report for the last pipeline this shell wired (empty before the
  // first pipeline). Every pipeline is linted as it is built.
  const verify::LintReport& last_lint() const { return last_lint_; }
  const verify::TopologySpec& last_topology() const { return last_topology_; }

  // Named windows/terminals/printers created by previous commands.
  TerminalSink* terminal(const std::string& name);
  PrinterSink* printer(const std::string& name);
  ReportWindow* window(const std::string& name);

 private:
  struct Stage {
    std::string command;
    std::vector<std::string> args;
    std::vector<std::pair<std::string, std::string>> redirects;  // chan -> window
  };

  bool Parse(const std::string& input, std::vector<Stage>& stages,
             std::string& error);
  ReportWindow& WindowOrCreate(const std::string& name);
  // The instrument table (shell.cc): one row per shell-owned instrument.
  struct Instrument;
  static const Instrument kInstruments[];
  // Row of the instrument called `name`; std::size(kInstruments) if none.
  static size_t InstrumentIndex(std::string_view name);
  bool Installed(std::string_view name) const;
  ShellResult RunInstrument(size_t index, const std::vector<std::string>& words);

  // Handles the control commands; nullopt if `command` is a pipeline.
  std::optional<ShellResult> RunControl(const std::string& command);
  // Labels `uid` in whichever instruments are currently installed.
  void LabelStage(const Uid& uid, const std::string& name);

  // Records the built pipeline as a TopologySpec, lints it, and feeds any
  // errors into the monitor's violation stream (when the monitor is on).
  void LintTopology(verify::TopologySpec topology);

  Kernel& kernel_;
  HostFs* host_;
  UnixFileSystemEject* unixfs_ = nullptr;  // created on first use
  TraceRecorder recorder_;
  MetricsRegistry metrics_;
  InvariantMonitor monitor_;
  ShardProfiler profiler_;
  TelemetrySampler telemetry_;
  SloEngine slo_;
  verify::LockOrderAnalyzer lockdep_;
  verify::ShardRaceAnalyzer audit_;
  verify::TopologySpec last_topology_;
  verify::LintReport last_lint_;
  bool have_topology_ = false;
  uint32_t installed_ = 0;  // bit i: kInstruments[i] is installed
  std::map<std::string, Uid> bindings_;
  std::map<std::string, TerminalSink*> terminals_;
  std::map<std::string, PrinterSink*> printers_;
  std::map<std::string, ReportWindow*> windows_;
};

}  // namespace eden

#endif  // SRC_SHELL_SHELL_H_

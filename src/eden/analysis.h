// Analysis over the observability data: the pipeline doctor and the bench
// regression comparator.
//
// PR 2 recorded faithfully (causal spans, latency histograms); nothing yet
// *interpreted* the recording. PipelineDoctor folds TraceRecorder::SpanIndex()
// and MetricsRegistry::Snapshot() into a diagnosis: the critical path through
// the demand chain (the longest root-to-leaf chain of spans in virtual
// ticks — in an asynchronous execution the happened-before order is the only
// meaningful notion of "longest"), per-stage self-time vs. wait-time
// attribution, queue-backpressure ranking, utilization per Eject, and a
// one-line verdict naming the bottleneck.
//
// Attribution model: a span covers [start, end] in virtual time at its
// target Eject. Its *self time* is the part of that interval not covered by
// its children — time the serving stage spent computing or blocked on its
// own machinery rather than waiting on upstream; the rest is *wait time*.
// The critical chain of a root follows, at each span, the child whose reply
// arrived last (that child gated the parent's completion); summing self
// times along every root's critical chain and grouping by stage yields the
// bottleneck ranking: the stage with the largest critical self time is where
// ticks actually went.
//
// CompareBenchRuns diffs the counters of two google-benchmark JSON documents
// (the EDEN_BENCH_MAIN sidecar format). This repo's counters are
// deterministic paper identities — inv_per_datum and friends — so any change
// is a claim change; host times are never compared (perfbench owns them).
// bench/bench_compare.cc wraps it in a CLI that exits nonzero on regression;
// tests drive it directly on synthetic documents.
#ifndef SRC_EDEN_ANALYSIS_H_
#define SRC_EDEN_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/stats.h"
#include "src/eden/trace.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

class MetricsRegistry;
class ShardProfiler;
class TelemetrySampler;

// One hop on the critical chain.
struct CriticalStep {
  InvocationId id = 0;
  Uid stage;          // the Eject that served this span
  std::string name;   // its label (or short uid)
  std::string op;
  Tick start = 0;
  Tick end = 0;
  Tick self = 0;      // interval not covered by this span's children
};

// Per-stage attribution, aggregated over every span served by the stage.
struct StageDiagnosis {
  Uid uid;
  std::string name;
  size_t spans = 0;
  Tick busy = 0;           // union of served-span intervals
  Tick self_time = 0;      // busy not covered by child spans
  Tick wait_time = 0;      // busy spent waiting on children
  Tick critical_self = 0;  // self time on critical chains only
  double utilization = 0;  // busy / makespan
  uint64_t queue_high_water = 0;  // peak queue depth, from metrics (if any)
  // Flow-control counters, from the metrics "flow" section (if any):
  // how often this stage filled to hiwat, re-enqueued items with PutBack,
  // and had a control item overtake queued data.
  uint64_t hiwat_hits = 0;
  uint64_t putbacks = 0;
  uint64_t band_overtakes = 0;
};

// The wall-clock side of the diagnosis, folded from a ShardProfiler's
// samples (see src/eden/profile.h). All figures describe the profiler's
// *parallel* runs; `valid` is false when none happened (1-shard kernels,
// RunFor, fault-injected runs) or no host time was measured.
//
// Within one profiled run the measured speedup is
//     psi = (sum of per-shard execute time) / (parallel wall time)
// — how much busy work the workers packed into each wall second, i.e. the
// speedup over the same work run serially. Karp–Flatt then attributes the
// gap to an experimentally determined serial fraction
//     e = (1/psi - 1/p) / (1 - 1/p)          for p shards
// (e -> 0: embarrassingly parallel; e -> 1: effectively serial — barriers,
// stalls and drains ate the machine). The dominant non-execute phase is
// named so the tuner knows *which* overhead to attack, and imbalance is how
// far the busiest shard sits above the mean (a placement problem, not a
// synchronization problem).
struct ParallelVerdict {
  bool valid = false;
  int shards = 0;
  uint64_t windows = 0;        // max window count over shards
  double wall_seconds = 0;     // parallel wall time, cumulative
  double speedup = 0;          // psi
  double efficiency = 0;       // psi / shards
  double serial_fraction = 0;  // Karp–Flatt e, clamped to [0, 1]
  double imbalance_pct = 0;    // (max shard execute - mean) / mean * 100
  std::string top_stall;       // "barrier-wait" | "mailbox-drain" |
                               // "lookahead-stall" | "none"

  // One wall-clock row per shard, for the doctor's table.
  struct ShardWall {
    uint64_t windows = 0;
    uint64_t events = 0;
    double execute_ms = 0;
    double drain_ms = 0;
    double stall_ms = 0;
    double barrier_ms = 0;
  };
  std::vector<ShardWall> per_shard;

  // "parallel: speedup 3.1x on 4 shards (78% efficient), serial fraction
  // 9%, top stall barrier-wait, imbalance 12%"
  std::string ToLine() const;
  Value ToValue() const;
};

// Computes the verdict from the profiler's aggregates. Quiescent read, like
// ShardProfiler::Snapshot(). Also used directly by the shell's
// `profile show`.
ParallelVerdict DiagnoseParallel(const ShardProfiler& profiler);

// The virtual-time axis of the diagnosis, folded from a TelemetrySampler
// (src/eden/telemetry.h) when one was passed to the doctor. Where the span
// tree answers *where* ticks went, the windowed series answer *when*: which
// window carried the peak invocation rate, which queue crossed its high
// watermark first and whether it ever drained, and which stages the
// Space-Saving sketch names hottest. `valid` is false when no window ever
// closed (run shorter than one cadence).
struct TelemetryVerdict {
  bool valid = false;
  Tick cadence = 0;
  int64_t windows = 0;  // closed windows
  uint64_t invocations = 0;  // cumulative kInvoke count

  // The closed window with the most invocations (earliest wins ties).
  int64_t peak_window = -1;
  Tick peak_window_end = 0;    // exclusive end tick of that window
  uint64_t peak_invokes = 0;
  double peak_rate = 0;        // invokes per virtual second in that window

  // Hottest stage by sketch invocation count (empty if none recorded).
  std::string hot_stage;
  uint64_t hot_count = 0;
  uint64_t hot_error = 0;  // sketch overestimation bound for that count

  // The ramp story for the queue that crossed its hiwat first: "queue
  // server/filter2 crossed hiwat at t=412 and never drained" (or "... and
  // drained by t=9731"). Empty when no queue ever crossed.
  std::string ramp;

  struct Top {
    std::string name;
    uint64_t count = 0;
    uint64_t error = 0;
  };
  std::vector<Top> top_invocations;
  std::vector<Top> top_hiwat;

  // One row per retained closed window of the global counters, for the
  // doctor's time-axis table.
  struct WindowRow {
    int64_t window = 0;
    Tick end = 0;          // exclusive end tick
    uint64_t invokes = 0;
    uint64_t replies = 0;
    uint64_t drops = 0;
    uint64_t hiwat = 0;
  };
  std::vector<WindowRow> rows;
  uint64_t rows_evicted = 0;  // windows lost off the ring front

  // Fired SLO rules (from the sampler's attached engine, if any): firing
  // count, the distinct rule names that fired, and one detail line each.
  size_t slo_fired = 0;
  std::vector<std::string> slo_rules;
  std::vector<std::string> slo_lines;

  // "telemetry: peak 12000 ev/s in window 4 (t<5000), hot stage filter2,
  // queue server/filter2 crossed hiwat at t=412 and never drained; slo: 1
  // rule fired"
  std::string ToLine() const;
  Value ToValue() const;
};

// Folds the sampler's series, sketches and SLO engine into the verdict.
// Quiescent read. Also used directly by the shell's `telemetry show`.
TelemetryVerdict DiagnoseTelemetry(const TelemetrySampler& telemetry);

struct Diagnosis {
  size_t span_count = 0;
  size_t root_count = 0;
  size_t orphaned = 0;   // spans re-rooted because the ring evicted parents
  Tick makespan = 0;     // last end - first start over closed spans

  // The longest critical chain (by root-span duration), root first.
  std::vector<CriticalStep> critical_path;
  Tick critical_ticks = 0;   // duration of that chain's root span
  size_t critical_depth = 0; // spans on the chain (= n+1 on a lazy Fig. 2 run)

  // Stages sorted by critical self time, descending.
  std::vector<StageDiagnosis> stages;
  Tick critical_total = 0;   // sum of critical_self over all stages

  std::string bottleneck;          // name of stages[0], if any
  double bottleneck_share = 0;     // its critical_self / critical_total

  // Per-shard kernel counters from the metrics snapshot (empty unless the
  // run attached a MetricsRegistry to a kernel; one entry per shard). When
  // more than one shard ran, the verdict line carries a summary and
  // ToString() prints the full table.
  std::vector<std::pair<int, ShardCounters>> shards;

  // Wall-clock parallel efficiency, folded from a ShardProfiler when one was
  // passed to the doctor. Invalid (and absent from output) otherwise.
  ParallelVerdict parallel;

  // Virtual-time axis, folded from a TelemetrySampler when one was passed to
  // the doctor. Invalid (and absent from output) otherwise.
  TelemetryVerdict telemetry;

  // "bottleneck: filter2, 61% of critical path, queue high-water 64" — plus
  // ", flow: N hiwat hits" when the bottleneck stage hit its hiwat, naming
  // backpressure (not compute) as the likely cause, and "; N shards, ..."
  // when the kernel ran parallel.
  std::string verdict;

  // Static-verification summary, folded in via AnnotateStatic. -1 = no lint
  // ran; otherwise counts from the PipelineLinter report.
  int lint_errors = -1;
  int lint_warnings = 0;
  std::string lint_summary;  // first few findings, "ASC006 ..."

  // Appends the linter's outcome to the verdict line ("; lint clean" or
  // "; lint: 1 error (ASC006 ...)") so one line carries both the dynamic
  // and the static story.
  void AnnotateStatic(size_t errors, size_t warnings, std::string summary);

  // Determinism-audit summary, folded in via AnnotateAudit when a
  // ShardRaceAnalyzer watched the run. -1 = no audit ran.
  int64_t audit_events = -1;
  int64_t audit_violations = 0;
  std::string audit_digest;  // merged digest, "0x..." hex

  // Appends the auditor's outcome to the verdict line ("; audit certified
  // (digest 0x...)" or "; audit: N shard-race violation(s)") so the verdict
  // carries the happens-before story next to the lint and runtime ones.
  void AnnotateAudit(uint64_t events, size_t violations,
                     std::string digest_hex);

  std::string ToString() const;
  Value ToValue() const;
};

// Folds the span tree (and optionally the metrics snapshot, for queue
// high-water marks, the shard profiler, for the wall-clock parallel verdict,
// and the telemetry sampler, for the virtual-time axis) into a Diagnosis.
// Reads only; all sources must outlive the doctor.
class PipelineDoctor {
 public:
  explicit PipelineDoctor(const TraceRecorder& trace,
                          const MetricsRegistry* metrics = nullptr,
                          const ShardProfiler* profiler = nullptr,
                          const TelemetrySampler* telemetry = nullptr)
      : trace_(trace),
        metrics_(metrics),
        profiler_(profiler),
        telemetry_(telemetry) {}

  Diagnosis Diagnose() const;

 private:
  const TraceRecorder& trace_;
  const MetricsRegistry* metrics_;
  const ShardProfiler* profiler_;
  const TelemetrySampler* telemetry_;
};

// ---------------------------------------------------------- bench comparison

struct BenchDelta {
  std::string name;
  // "inv_per_datum: 4 -> 8" for a counter that moved, "inv_per_datum: 4 ->
  // missing" for one the current row no longer reports. A changed identity
  // needs an explicit re-baseline either way.
  std::vector<std::string> counter_changes;
  bool missing_in_current = false;  // benchmark disappeared
  bool new_in_current = false;      // no baseline yet (not a regression)
};

struct BenchComparison {
  std::vector<BenchDelta> rows;
  size_t regressions = 0;
  bool ok() const { return regressions == 0; }
  // Per-benchmark delta table.
  std::string ToString() const;
};

// Compares the counters of two parsed BENCH_*.json documents ({"context":
// ..., "benchmarks": [{"name", "cpu_time", <counters>...}, ...]}). Every
// numeric field of a baseline row is a counter except Google Benchmark's
// standard fields and *_per_second rates; each must be present in the
// current row and within 0.1% of the baseline.
BenchComparison CompareBenchRuns(const Value& baseline, const Value& current);

}  // namespace eden

#endif  // SRC_EDEN_ANALYSIS_H_

#include "src/eden/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "src/eden/metrics.h"
#include "src/eden/profile.h"
#include "src/eden/slo.h"
#include "src/eden/telemetry.h"

namespace eden {

namespace {

using Span = TraceRecorder::Span;
using SpanMap = std::map<InvocationId, Span>;

bool Closed(const Span& span) { return span.end >= span.start; }

// Total length of [span.start, span.end] covered by its closed children
// (clipped to the span). Children lists are ascending by id, which is also
// ascending by start time, so one merge pass suffices.
Tick CoveredByChildren(const Span& span, const SpanMap& spans) {
  Tick covered = 0;
  Tick cursor = span.start;
  for (InvocationId child_id : span.children) {
    auto it = spans.find(child_id);
    if (it == spans.end() || !Closed(it->second)) {
      continue;
    }
    Tick lo = std::max(it->second.start, cursor);
    Tick hi = std::min(it->second.end, span.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

// The child that gated this span's completion: the closed child with the
// latest reply (ties go to the later span id, i.e. the one sent last).
const Span* CriticalChild(const Span& span, const SpanMap& spans) {
  const Span* best = nullptr;
  for (InvocationId child_id : span.children) {
    auto it = spans.find(child_id);
    if (it == spans.end() || !Closed(it->second)) {
      continue;
    }
    if (best == nullptr || it->second.end >= best->end) {
      best = &it->second;
    }
  }
  return best;
}

// Union length of a set of [start, end] intervals.
Tick UnionLength(std::vector<std::pair<Tick, Tick>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  Tick total = 0;
  Tick cursor = -1;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (!open || lo > cursor) {
      total += hi - lo;
      cursor = hi;
      open = true;
    } else if (hi > cursor) {
      total += hi - cursor;
      cursor = hi;
    }
  }
  return total;
}

double NumberOr(const Value& v, double fallback) {
  return v.AsReal().value_or(fallback);
}

}  // namespace

Diagnosis PipelineDoctor::Diagnose() const {
  Diagnosis d;
  SpanMap spans = trace_.SpanIndex();
  d.span_count = spans.size();
  if (spans.empty()) {
    d.verdict = "no spans recorded (enable tracing before the run)";
    return d;
  }

  // Self time per span, stage aggregation, makespan.
  std::map<InvocationId, Tick> self_of;
  std::map<Uid, StageDiagnosis> stages;
  std::map<Uid, std::vector<std::pair<Tick, Tick>>> stage_intervals;
  Tick first_start = -1;
  Tick last_end = 0;
  for (const auto& [id, span] : spans) {
    if (span.parent == 0) {
      d.root_count++;
    }
    if (span.orphaned) {
      d.orphaned++;
    }
    if (!Closed(span)) {
      continue;
    }
    Tick self = (span.end - span.start) - CoveredByChildren(span, spans);
    self_of[id] = self;
    StageDiagnosis& stage = stages[span.to];
    stage.uid = span.to;
    stage.spans++;
    stage.self_time += self;
    stage.wait_time += (span.end - span.start) - self;
    stage_intervals[span.to].push_back({span.start, span.end});
    if (first_start < 0 || span.start < first_start) {
      first_start = span.start;
    }
    last_end = std::max(last_end, span.end);
  }
  d.makespan = first_start >= 0 ? last_end - first_start : 0;

  // Critical chains: from every root, follow the gating child to a leaf.
  // Self time along these chains, grouped by stage, is where the run's
  // ticks actually went; the longest chain is reported step by step.
  const Span* longest_root = nullptr;
  for (const auto& [id, span] : spans) {
    if (span.parent != 0 || !Closed(span)) {
      continue;
    }
    for (const Span* at = &span; at != nullptr; at = CriticalChild(*at, spans)) {
      auto it = self_of.find(at->id);
      if (it != self_of.end()) {
        stages[at->to].critical_self += it->second;
        d.critical_total += it->second;
      }
    }
    if (longest_root == nullptr ||
        span.end - span.start > longest_root->end - longest_root->start) {
      longest_root = &span;
    }
  }
  if (longest_root != nullptr) {
    d.critical_ticks = longest_root->end - longest_root->start;
    for (const Span* at = longest_root; at != nullptr;
         at = CriticalChild(*at, spans)) {
      CriticalStep step;
      step.id = at->id;
      step.stage = at->to;
      step.name = trace_.NameOf(at->to);
      step.op = at->op;
      step.start = at->start;
      step.end = at->end;
      auto it = self_of.find(at->id);
      step.self = it == self_of.end() ? 0 : it->second;
      d.critical_path.push_back(std::move(step));
    }
    d.critical_depth = d.critical_path.size();
  }

  // Queue high-water marks and flow-control counters from the metrics
  // snapshot: keys are "component/label", so match on the label part.
  std::map<std::string, uint64_t> high_water;
  struct FlowTotals {
    uint64_t hiwat_hits = 0;
    uint64_t putbacks = 0;
    uint64_t band_overtakes = 0;
  };
  std::map<std::string, FlowTotals> flow_totals;
  if (metrics_ != nullptr) {
    Value snapshot = metrics_->Snapshot();
    if (const ValueMap* queues = snapshot.Field("queues").AsMap()) {
      for (const auto& [key, gauge] : *queues) {
        size_t slash = key.find('/');
        std::string label = slash == std::string::npos ? key : key.substr(slash + 1);
        uint64_t hw = static_cast<uint64_t>(gauge.Field("high_water").IntOr(0));
        high_water[label] = std::max(high_water[label], hw);
      }
    }
    if (const ValueMap* flows = snapshot.Field("flow").AsMap()) {
      for (const auto& [key, counters] : *flows) {
        size_t slash = key.find('/');
        std::string label = slash == std::string::npos ? key : key.substr(slash + 1);
        FlowTotals& totals = flow_totals[label];
        totals.hiwat_hits +=
            static_cast<uint64_t>(counters.Field("hiwat_hits").IntOr(0));
        totals.putbacks +=
            static_cast<uint64_t>(counters.Field("putbacks").IntOr(0));
        totals.band_overtakes +=
            static_cast<uint64_t>(counters.Field("band_overtakes").IntOr(0));
      }
    }
  }

  for (auto& [uid, stage] : stages) {
    stage.name = trace_.NameOf(uid);
    stage.busy = UnionLength(stage_intervals[uid]);
    stage.utilization =
        d.makespan > 0 ? static_cast<double>(stage.busy) / d.makespan : 0;
    auto it = high_water.find(stage.name);
    if (it != high_water.end()) {
      stage.queue_high_water = it->second;
    }
    auto flow_it = flow_totals.find(stage.name);
    if (flow_it != flow_totals.end()) {
      stage.hiwat_hits = flow_it->second.hiwat_hits;
      stage.putbacks = flow_it->second.putbacks;
      stage.band_overtakes = flow_it->second.band_overtakes;
    }
    d.stages.push_back(stage);
  }
  std::sort(d.stages.begin(), d.stages.end(),
            [](const StageDiagnosis& a, const StageDiagnosis& b) {
              if (a.critical_self != b.critical_self) {
                return a.critical_self > b.critical_self;
              }
              if (a.self_time != b.self_time) {
                return a.self_time > b.self_time;
              }
              return a.uid < b.uid;
            });

  if (metrics_ != nullptr) {
    d.shards = metrics_->ShardSnapshot();
  }

  if (!d.stages.empty() && d.critical_total > 0) {
    const StageDiagnosis& top = d.stages.front();
    d.bottleneck = top.name;
    d.bottleneck_share =
        static_cast<double>(top.critical_self) / d.critical_total;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "bottleneck: %s, %d%% of critical path, queue high-water %llu",
                  top.name.c_str(),
                  static_cast<int>(d.bottleneck_share * 100 + 0.5),
                  static_cast<unsigned long long>(top.queue_high_water));
    d.verdict = buf;
    if (top.hiwat_hits > 0) {
      // The bottleneck stage filled to its high watermark: backpressure, not
      // compute, is the likely cause — say so in the one-line story.
      std::snprintf(buf, sizeof(buf), ", flow: %llu hiwat hits",
                    static_cast<unsigned long long>(top.hiwat_hits));
      d.verdict += buf;
    }
  } else {
    d.verdict = "no closed spans to attribute (run still in flight?)";
  }
  if (d.shards.size() > 1) {
    // A parallel run: tell the one-line story of how much work crossed
    // shard boundaries and how often the lookahead window ran dry.
    uint64_t cross = 0;
    uint64_t stalls = 0;
    for (const auto& [index, counters] : d.shards) {
      cross += counters.cross_shard_sends;
      stalls += counters.lookahead_stalls;
    }
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "; %zu shards, %llu cross-shard sends, %llu lookahead stalls",
                  d.shards.size(), static_cast<unsigned long long>(cross),
                  static_cast<unsigned long long>(stalls));
    d.verdict += buf;
  }
  if (profiler_ != nullptr) {
    d.parallel = DiagnoseParallel(*profiler_);
    if (d.parallel.valid) {
      d.verdict += "; " + d.parallel.ToLine();
    }
  }
  if (telemetry_ != nullptr) {
    d.telemetry = DiagnoseTelemetry(*telemetry_);
    if (d.telemetry.valid) {
      d.verdict += "; " + d.telemetry.ToLine();
    }
  }
  return d;
}

std::string ParallelVerdict::ToLine() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "parallel: speedup %.2fx on %d shards (%.0f%% efficient), "
                "serial fraction %.0f%% (Karp-Flatt), top stall %s, "
                "imbalance %.0f%%",
                speedup, shards, efficiency * 100, serial_fraction * 100,
                top_stall.c_str(), imbalance_pct);
  return buf;
}

Value ParallelVerdict::ToValue() const {
  Value v;
  v.Set("shards", Value(static_cast<int64_t>(shards)));
  v.Set("windows", Value(static_cast<int64_t>(windows)));
  v.Set("wall_seconds", Value(wall_seconds));
  v.Set("speedup", Value(speedup));
  v.Set("efficiency", Value(efficiency));
  v.Set("serial_fraction", Value(serial_fraction));
  v.Set("imbalance_pct", Value(imbalance_pct));
  v.Set("top_stall", Value(top_stall));
  ValueList rows;
  for (size_t i = 0; i < per_shard.size(); ++i) {
    const ShardWall& w = per_shard[i];
    Value s;
    s.Set("shard", Value(static_cast<int64_t>(i)));
    s.Set("windows", Value(static_cast<int64_t>(w.windows)));
    s.Set("events", Value(static_cast<int64_t>(w.events)));
    s.Set("execute_ms", Value(w.execute_ms));
    s.Set("drain_ms", Value(w.drain_ms));
    s.Set("stall_ms", Value(w.stall_ms));
    s.Set("barrier_ms", Value(w.barrier_ms));
    rows.push_back(std::move(s));
  }
  v.Set("per_shard", Value(std::move(rows)));
  return v;
}

ParallelVerdict DiagnoseParallel(const ShardProfiler& profiler) {
  ParallelVerdict v;
  std::vector<ShardProfiler::ShardProfile> shards = profiler.Snapshot();
  const uint64_t wall_ns = profiler.parallel_wall_ns();
  if (profiler.parallel_runs() == 0 || wall_ns == 0 || shards.empty()) {
    return v;  // nothing parallel was profiled
  }
  uint64_t busy = 0, max_busy = 0, drain = 0, stall = 0, barrier = 0;
  for (const ShardProfiler::ShardProfile& p : shards) {
    busy += p.execute_ns;
    max_busy = std::max(max_busy, p.execute_ns);
    drain += p.drain_ns;
    stall += p.stall_ns;
    barrier += p.barrier_ns;
    v.windows = std::max(v.windows, p.windows);
    ParallelVerdict::ShardWall w;
    w.windows = p.windows;
    w.events = p.events;
    w.execute_ms = static_cast<double>(p.execute_ns) / 1e6;
    w.drain_ms = static_cast<double>(p.drain_ns) / 1e6;
    w.stall_ms = static_cast<double>(p.stall_ns) / 1e6;
    w.barrier_ms = static_cast<double>(p.barrier_ns) / 1e6;
    v.per_shard.push_back(w);
  }
  if (busy == 0) {
    return v;  // windows ran but no shard executed anything measurable
  }
  v.valid = true;
  const int p = static_cast<int>(shards.size());
  v.shards = p;
  v.wall_seconds = static_cast<double>(wall_ns) / 1e9;
  v.speedup = static_cast<double>(busy) / static_cast<double>(wall_ns);
  v.efficiency = v.speedup / p;
  if (p > 1) {
    // Karp-Flatt: e = (1/psi - 1/p) / (1 - 1/p). psi > p (clock skew) or
    // psi < 1 both land outside the model; clamp to the meaningful range.
    double e = (1.0 / v.speedup - 1.0 / p) / (1.0 - 1.0 / p);
    v.serial_fraction = std::min(1.0, std::max(0.0, e));
  } else {
    v.serial_fraction = 1.0;
  }
  const double mean = static_cast<double>(busy) / p;
  v.imbalance_pct =
      mean > 0 ? (static_cast<double>(max_busy) - mean) / mean * 100.0 : 0.0;
  if (drain == 0 && stall == 0 && barrier == 0) {
    v.top_stall = "none";
  } else if (barrier >= drain && barrier >= stall) {
    v.top_stall = "barrier-wait";
  } else if (stall >= drain) {
    v.top_stall = "lookahead-stall";
  } else {
    v.top_stall = "mailbox-drain";
  }
  return v;
}

std::string TelemetryVerdict::ToLine() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "telemetry: peak %g invokes/s in window %lld (t<%lld)",
                peak_rate, static_cast<long long>(peak_window),
                static_cast<long long>(peak_window_end));
  std::string line = buf;
  if (!hot_stage.empty()) {
    line += ", hot stage " + hot_stage;
  }
  if (!ramp.empty()) {
    line += "; " + ramp;
  }
  if (slo_fired > 0) {
    line += "; slo: " + std::to_string(slo_fired) +
            (slo_fired == 1 ? " firing (" : " firings (");
    for (size_t i = 0; i < slo_rules.size(); ++i) {
      line += (i == 0 ? "" : ", ") + slo_rules[i];
    }
    line += ")";
  }
  return line;
}

Value TelemetryVerdict::ToValue() const {
  Value v;
  v.Set("cadence", Value(static_cast<int64_t>(cadence)));
  v.Set("windows", Value(static_cast<int64_t>(windows)));
  v.Set("invocations", Value(invocations));
  v.Set("peak_window", Value(static_cast<int64_t>(peak_window)));
  v.Set("peak_window_end", Value(static_cast<int64_t>(peak_window_end)));
  v.Set("peak_invokes", Value(peak_invokes));
  v.Set("peak_rate", Value(peak_rate));
  if (!hot_stage.empty()) {
    Value hot;
    hot.Set("stage", Value(hot_stage));
    hot.Set("count", Value(hot_count));
    hot.Set("error", Value(hot_error));
    v.Set("hot", std::move(hot));
  }
  if (!ramp.empty()) {
    v.Set("ramp", Value(ramp));
  }
  auto top_list = [](const std::vector<Top>& top) {
    ValueList out;
    for (const Top& entry : top) {
      Value e;
      e.Set("name", Value(entry.name));
      e.Set("count", Value(entry.count));
      e.Set("error", Value(entry.error));
      out.push_back(std::move(e));
    }
    return out;
  };
  v.Set("top_invocations", Value(top_list(top_invocations)));
  v.Set("top_hiwat", Value(top_list(top_hiwat)));
  if (slo_fired > 0) {
    Value slo;
    slo.Set("fired", Value(static_cast<int64_t>(slo_fired)));
    ValueList rules;
    for (const std::string& rule : slo_rules) {
      rules.push_back(Value(rule));
    }
    slo.Set("rules", Value(std::move(rules)));
    ValueList lines;
    for (const std::string& line : slo_lines) {
      lines.push_back(Value(line));
    }
    slo.Set("firings", Value(std::move(lines)));
    v.Set("slo", std::move(slo));
  }
  return v;
}

TelemetryVerdict DiagnoseTelemetry(const TelemetrySampler& telemetry) {
  TelemetryVerdict v;
  v.cadence = telemetry.cadence();
  v.windows = telemetry.windows_closed();
  if (v.windows == 0) {
    return v;  // run shorter than one cadence: no time axis to tell
  }
  v.valid = true;

  std::vector<TelemetrySampler::CounterView> counters =
      telemetry.CounterSeries();
  const TelemetrySampler::CounterView& inv = counters[TelemetrySampler::kInvoke];
  const TelemetrySampler::CounterView& rep = counters[TelemetrySampler::kReply];
  const TelemetrySampler::CounterView& drp = counters[TelemetrySampler::kDrop];
  const TelemetrySampler::CounterView& hw = counters[TelemetrySampler::kHiwat];
  v.invocations = inv.total;
  v.rows_evicted = inv.evicted;
  // Counter rings all advance together in CloseWindow, so the four series
  // share first_window and length; one pass builds the aligned rows.
  for (size_t i = 0; i < inv.windows.size(); ++i) {
    TelemetryVerdict::WindowRow row;
    row.window = inv.first_window + static_cast<int64_t>(i);
    row.end = (row.window + 1) * v.cadence;
    row.invokes = inv.windows[i];
    row.replies = rep.windows[i];
    row.drops = drp.windows[i];
    row.hiwat = hw.windows[i];
    if (v.peak_window < 0 || row.invokes > v.peak_invokes) {
      v.peak_window = row.window;
      v.peak_window_end = row.end;
      v.peak_invokes = row.invokes;
    }
    v.rows.push_back(row);
  }
  if (v.cadence > 0) {
    v.peak_rate =
        static_cast<double>(v.peak_invokes) * 1e6 / static_cast<double>(v.cadence);
  }

  for (const TelemetrySampler::TopEntry& entry : telemetry.TopInvocations()) {
    v.top_invocations.push_back(
        TelemetryVerdict::Top{entry.name, entry.count, entry.error});
  }
  for (const TelemetrySampler::TopEntry& entry : telemetry.TopHiwat()) {
    v.top_hiwat.push_back(
        TelemetryVerdict::Top{entry.name, entry.count, entry.error});
  }
  if (!v.top_invocations.empty()) {
    v.hot_stage = v.top_invocations.front().name;
    v.hot_count = v.top_invocations.front().count;
    v.hot_error = v.top_invocations.front().error;
  }

  // Ramp verdict: the queue that crossed its hiwat first (QueueSeries is
  // sorted by (component, owner), so ties resolve deterministically), and
  // whether it ever read empty again afterwards.
  std::vector<TelemetrySampler::QueueView> queues = telemetry.QueueSeries();
  const TelemetrySampler::QueueView* ramped = nullptr;
  for (const TelemetrySampler::QueueView& q : queues) {
    if (q.first_hiwat_at < 0) {
      continue;
    }
    if (ramped == nullptr || q.first_hiwat_at < ramped->first_hiwat_at) {
      ramped = &q;
    }
  }
  if (ramped != nullptr) {
    char buf[224];
    bool drained = ramped->last_zero_at >= ramped->first_hiwat_at;
    if (drained) {
      std::snprintf(buf, sizeof(buf),
                    "queue %s/%s crossed hiwat at t=%lld and drained by t=%lld",
                    ramped->component.c_str(), ramped->name.c_str(),
                    static_cast<long long>(ramped->first_hiwat_at),
                    static_cast<long long>(ramped->last_zero_at));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "queue %s/%s crossed hiwat at t=%lld and never drained",
                    ramped->component.c_str(), ramped->name.c_str(),
                    static_cast<long long>(ramped->first_hiwat_at));
    }
    v.ramp = buf;
  }

  if (const SloEngine* slo = telemetry.slo()) {
    v.slo_fired = slo->firings().size();
    for (const SloEngine::Firing& firing : slo->firings()) {
      if (std::find(v.slo_rules.begin(), v.slo_rules.end(), firing.rule) ==
          v.slo_rules.end()) {
        v.slo_rules.push_back(firing.rule);
      }
      char buf[224];
      std::snprintf(buf, sizeof(buf),
                    "rule '%s': %s = %g in window %lld (t=%lld)",
                    firing.rule.c_str(), firing.series.c_str(), firing.value,
                    static_cast<long long>(firing.window),
                    static_cast<long long>(firing.at));
      v.slo_lines.push_back(buf);
    }
  }
  return v;
}

void Diagnosis::AnnotateStatic(size_t errors, size_t warnings,
                               std::string summary) {
  lint_errors = static_cast<int>(errors);
  lint_warnings = static_cast<int>(warnings);
  lint_summary = std::move(summary);
  if (errors == 0 && warnings == 0) {
    verdict += "; lint clean";
    return;
  }
  verdict += "; lint: ";
  if (errors > 0) {
    verdict += std::to_string(errors) + (errors == 1 ? " error" : " errors");
    if (warnings > 0) {
      verdict += ", ";
    }
  }
  if (warnings > 0) {
    verdict +=
        std::to_string(warnings) + (warnings == 1 ? " warning" : " warnings");
  }
  if (!lint_summary.empty()) {
    verdict += " (" + lint_summary + ")";
  }
}

void Diagnosis::AnnotateAudit(uint64_t events, size_t violations,
                              std::string digest_hex) {
  audit_events = static_cast<int64_t>(events);
  audit_violations = static_cast<int64_t>(violations);
  audit_digest = std::move(digest_hex);
  if (violations == 0) {
    verdict += "; audit certified (digest " + audit_digest + ")";
    return;
  }
  verdict += "; audit: " + std::to_string(violations) +
             (violations == 1 ? " shard-race violation" : " shard-race violations");
}

std::string Diagnosis::ToString() const {
  std::ostringstream out;
  out << "pipeline doctor: " << span_count << " spans, " << root_count
      << " roots";
  if (orphaned > 0) {
    out << " (" << orphaned << " orphaned by ring eviction)";
  }
  out << ", makespan " << makespan << " ticks\n";
  out << "verdict: " << verdict << "\n";
  if (!critical_path.empty()) {
    out << "critical path (" << critical_depth << " spans, " << critical_ticks
        << " ticks):\n";
    for (const CriticalStep& step : critical_path) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  #%llu %-12s %-12s [%lld..%lld] self %lld\n",
                    static_cast<unsigned long long>(step.id), step.name.c_str(),
                    step.op.c_str(), static_cast<long long>(step.start),
                    static_cast<long long>(step.end),
                    static_cast<long long>(step.self));
      out << line;
    }
  }
  if (!stages.empty()) {
    bool any_flow = false;
    for (const StageDiagnosis& stage : stages) {
      any_flow = any_flow || stage.hiwat_hits > 0 || stage.putbacks > 0 ||
                 stage.band_overtakes > 0;
    }
    out << "stages (by critical self time):\n";
    out << "  stage         spans  self    wait    crit-self  util   queue-hw";
    if (any_flow) {
      out << "  hiwat  putbq  ovrtk";
    }
    out << "\n";
    for (const StageDiagnosis& stage : stages) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  %-12s %6zu %7lld %7lld %10lld %5.0f%% %9llu",
                    stage.name.c_str(), stage.spans,
                    static_cast<long long>(stage.self_time),
                    static_cast<long long>(stage.wait_time),
                    static_cast<long long>(stage.critical_self),
                    stage.utilization * 100,
                    static_cast<unsigned long long>(stage.queue_high_water));
      out << line;
      if (any_flow) {
        std::snprintf(line, sizeof(line), " %6llu %6llu %6llu",
                      static_cast<unsigned long long>(stage.hiwat_hits),
                      static_cast<unsigned long long>(stage.putbacks),
                      static_cast<unsigned long long>(stage.band_overtakes));
        out << line;
      }
      out << "\n";
    }
  }
  if (!shards.empty()) {
    out << "shards:\n";
    out << "  shard  events   cross-sends  stalls  windows  mbox-hiwat  "
           "overflows\n";
    for (const auto& [index, c] : shards) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-5d %8llu %12llu %7llu %8llu %11llu %10llu\n", index,
                    static_cast<unsigned long long>(c.events_processed),
                    static_cast<unsigned long long>(c.cross_shard_sends),
                    static_cast<unsigned long long>(c.lookahead_stalls),
                    static_cast<unsigned long long>(c.windows),
                    static_cast<unsigned long long>(c.mailbox_high_water),
                    static_cast<unsigned long long>(c.mailbox_overflows));
      out << line;
    }
  }
  if (parallel.valid) {
    out << "wall clock (per shard):\n";
    out << "  shard  windows  events   execute-ms  drain-ms  stall-ms  "
           "barrier-ms\n";
    for (size_t i = 0; i < parallel.per_shard.size(); ++i) {
      const ParallelVerdict::ShardWall& w = parallel.per_shard[i];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-5zu %8llu %8llu %11.3f %9.3f %9.3f %11.3f\n", i,
                    static_cast<unsigned long long>(w.windows),
                    static_cast<unsigned long long>(w.events), w.execute_ms,
                    w.drain_ms, w.stall_ms, w.barrier_ms);
      out << line;
    }
  }
  if (telemetry.valid) {
    out << "time axis (cadence " << telemetry.cadence << " ticks, "
        << telemetry.windows << " windows closed):\n";
    out << "  window  t<         invokes  replies  drops  hiwat\n";
    size_t first = 0;
    size_t shown = telemetry.rows.size();
    if (shown > 16) {
      first = shown - 16;  // the recent end of the ring tells the story
      shown = 16;
    }
    if (first > 0 || telemetry.rows_evicted > 0) {
      out << "  ..\n";
    }
    for (size_t i = first; i < telemetry.rows.size(); ++i) {
      const TelemetryVerdict::WindowRow& row = telemetry.rows[i];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-7lld %-10lld %7llu %8llu %6llu %6llu%s\n",
                    static_cast<long long>(row.window),
                    static_cast<long long>(row.end),
                    static_cast<unsigned long long>(row.invokes),
                    static_cast<unsigned long long>(row.replies),
                    static_cast<unsigned long long>(row.drops),
                    static_cast<unsigned long long>(row.hiwat),
                    row.window == telemetry.peak_window ? "  <- peak" : "");
      out << line;
    }
    auto print_top = [&out](const char* title,
                            const std::vector<TelemetryVerdict::Top>& top) {
      if (top.empty()) {
        return;
      }
      out << "  " << title << ":";
      for (const TelemetryVerdict::Top& entry : top) {
        out << " " << entry.name << "=" << entry.count;
        if (entry.error > 0) {
          out << "(-" << entry.error << ")";
        }
      }
      out << "\n";
    };
    print_top("top stages (invocations)", telemetry.top_invocations);
    print_top("top queues (hiwat hits)", telemetry.top_hiwat);
    if (!telemetry.ramp.empty()) {
      out << "  ramp: " << telemetry.ramp << "\n";
    }
    for (const std::string& line : telemetry.slo_lines) {
      out << "  slo fired: " << line << "\n";
    }
  }
  return out.str();
}

Value Diagnosis::ToValue() const {
  Value v;
  v.Set("span_count", Value(static_cast<int64_t>(span_count)));
  v.Set("root_count", Value(static_cast<int64_t>(root_count)));
  v.Set("orphaned", Value(static_cast<int64_t>(orphaned)));
  v.Set("makespan", Value(static_cast<int64_t>(makespan)));
  v.Set("critical_ticks", Value(static_cast<int64_t>(critical_ticks)));
  v.Set("critical_depth", Value(static_cast<int64_t>(critical_depth)));
  v.Set("critical_total", Value(static_cast<int64_t>(critical_total)));
  v.Set("bottleneck", Value(bottleneck));
  v.Set("bottleneck_share", Value(bottleneck_share));
  v.Set("verdict", Value(verdict));
  if (lint_errors >= 0) {
    Value lint;
    lint.Set("errors", Value(static_cast<int64_t>(lint_errors)));
    lint.Set("warnings", Value(static_cast<int64_t>(lint_warnings)));
    lint.Set("summary", Value(lint_summary));
    v.Set("lint", std::move(lint));
  }
  if (audit_events >= 0) {
    Value audit;
    audit.Set("events", Value(audit_events));
    audit.Set("violations", Value(audit_violations));
    audit.Set("digest", Value(audit_digest));
    v.Set("audit", std::move(audit));
  }
  ValueList path;
  for (const CriticalStep& step : critical_path) {
    Value s;
    s.Set("id", Value(static_cast<int64_t>(step.id)));
    s.Set("stage", Value(step.name));
    s.Set("op", Value(step.op));
    s.Set("start", Value(static_cast<int64_t>(step.start)));
    s.Set("end", Value(static_cast<int64_t>(step.end)));
    s.Set("self", Value(static_cast<int64_t>(step.self)));
    path.push_back(std::move(s));
  }
  v.Set("critical_path", Value(std::move(path)));
  ValueList stage_list;
  for (const StageDiagnosis& stage : stages) {
    Value s;
    s.Set("stage", Value(stage.name));
    s.Set("spans", Value(static_cast<int64_t>(stage.spans)));
    s.Set("busy", Value(static_cast<int64_t>(stage.busy)));
    s.Set("self_time", Value(static_cast<int64_t>(stage.self_time)));
    s.Set("wait_time", Value(static_cast<int64_t>(stage.wait_time)));
    s.Set("critical_self", Value(static_cast<int64_t>(stage.critical_self)));
    s.Set("utilization", Value(stage.utilization));
    s.Set("queue_high_water",
          Value(static_cast<int64_t>(stage.queue_high_water)));
    if (stage.hiwat_hits > 0 || stage.putbacks > 0 || stage.band_overtakes > 0) {
      Value flow;
      flow.Set("hiwat_hits", Value(static_cast<int64_t>(stage.hiwat_hits)));
      flow.Set("putbacks", Value(static_cast<int64_t>(stage.putbacks)));
      flow.Set("band_overtakes",
               Value(static_cast<int64_t>(stage.band_overtakes)));
      s.Set("flow", std::move(flow));
    }
    stage_list.push_back(std::move(s));
  }
  v.Set("stages", Value(std::move(stage_list)));
  if (!shards.empty()) {
    ValueList shard_list;
    for (const auto& [index, c] : shards) {
      Value s;
      s.Set("shard", Value(static_cast<int64_t>(index)));
      s.Set("events_processed", Value(c.events_processed));
      s.Set("cross_shard_sends", Value(c.cross_shard_sends));
      s.Set("lookahead_stalls", Value(c.lookahead_stalls));
      s.Set("windows", Value(c.windows));
      s.Set("mailbox_high_water", Value(c.mailbox_high_water));
      s.Set("mailbox_overflows", Value(c.mailbox_overflows));
      shard_list.push_back(std::move(s));
    }
    v.Set("shards", Value(std::move(shard_list)));
  }
  if (parallel.valid) {
    v.Set("parallel", parallel.ToValue());
  }
  if (telemetry.valid) {
    v.Set("telemetry", telemetry.ToValue());
  }
  return v;
}

// ---------------------------------------------------------- bench comparison

namespace {

// Relative change tolerated in a counter. Ours are deterministic, so any
// real change exceeds this.
constexpr double kCounterTolerance = 0.001;

// Fields of a google-benchmark entry that are not user counters, and
// *_per_second rates, which are wall time divided by work: host-speed facts,
// not deterministic identities.
bool IsStandardBenchField(const std::string& key) {
  static const std::set<std::string> kStandard = {
      "name",       "run_name",         "run_type",
      "family_index", "per_family_instance_index",
      "repetitions", "repetition_index", "threads",
      "iterations", "real_time",        "cpu_time",
      "time_unit",  "aggregate_name",   "aggregate_unit",
  };
  static const std::string kRateSuffix = "_per_second";
  return kStandard.count(key) > 0 ||
         (key.size() > kRateSuffix.size() &&
          key.compare(key.size() - kRateSuffix.size(), kRateSuffix.size(),
                      kRateSuffix) == 0);
}

std::map<std::string, const Value*> BenchmarksByName(const Value& doc) {
  std::map<std::string, const Value*> out;
  if (const ValueList* list = doc.Field("benchmarks").AsList()) {
    for (const Value& bench : *list) {
      const std::string* name = bench.Field("name").AsStr();
      if (name != nullptr) {
        out[*name] = &bench;
      }
    }
  }
  return out;
}

bool RelativeChangeExceeds(double base, double current, double threshold) {
  if (base == current) {
    return false;
  }
  double denom = std::max(std::abs(base), 1e-12);
  return std::abs(current - base) / denom > threshold;
}

}  // namespace

BenchComparison CompareBenchRuns(const Value& baseline, const Value& current) {
  BenchComparison cmp;
  std::map<std::string, const Value*> base = BenchmarksByName(baseline);
  std::map<std::string, const Value*> cur = BenchmarksByName(current);

  for (const auto& [name, base_bench] : base) {
    BenchDelta row;
    row.name = name;
    auto it = cur.find(name);
    if (it == cur.end()) {
      row.missing_in_current = true;
      cmp.regressions++;
      cmp.rows.push_back(std::move(row));
      continue;
    }
    const Value& cur_bench = *it->second;
    if (const ValueMap* fields = base_bench->AsMap()) {
      for (const auto& [key, base_value] : *fields) {
        if (IsStandardBenchField(key) || !base_value.AsReal().has_value()) {
          continue;
        }
        double b = NumberOr(base_value, 0);
        char buf[160];
        if (!cur_bench.HasField(key)) {
          std::snprintf(buf, sizeof(buf), "%s: %g -> missing", key.c_str(), b);
        } else if (double c = NumberOr(cur_bench.Field(key), 0);
                   RelativeChangeExceeds(b, c, kCounterTolerance)) {
          std::snprintf(buf, sizeof(buf), "%s: %g -> %g", key.c_str(), b, c);
        } else {
          continue;
        }
        row.counter_changes.push_back(buf);
        cmp.regressions++;
      }
    }
    cmp.rows.push_back(std::move(row));
  }
  for (const auto& [name, bench] : cur) {
    if (base.count(name) == 0) {
      BenchDelta row;
      row.name = name;
      row.new_in_current = true;
      cmp.rows.push_back(std::move(row));
    }
  }
  return cmp;
}

std::string BenchComparison::ToString() const {
  std::ostringstream out;
  out << "benchmark                                          status\n";
  for (const BenchDelta& row : rows) {
    const char* status = "ok";
    if (row.missing_in_current) {
      status = "MISSING";
    } else if (row.new_in_current) {
      status = "new";
    } else if (!row.counter_changes.empty()) {
      status = "REGRESSED";
    }
    char line[200];
    std::snprintf(line, sizeof(line), "%-50s %s\n", row.name.c_str(), status);
    out << line;
    for (const std::string& change : row.counter_changes) {
      out << "    counter " << change << "\n";
    }
  }
  out << (regressions == 0
              ? "no regressions\n"
              : std::to_string(regressions) + " regression(s)\n");
  return out.str();
}

}  // namespace eden

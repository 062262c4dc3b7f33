// The four workloads, their correctness checks, and the measured and traced
// runs over them. WORKLOADS.md gives the rationale and the metric definitions.
//
// One *iteration* builds a fresh kernel and topology (the set-up phase),
// runs it to quiescence (the run phase), checks every sink against the
// plain-loop reference, and destroys it (the teardown phase). A measured
// run repeats iterations for the requested seconds and reports medians;
// every iteration of one seed must reproduce the same paper counts exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "src/core/pipeline.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/profile.h"
#include "src/eden/stats.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"
#include "src/eden/verify/shard_audit.h"
#include "src/filters/registry.h"

namespace perfbench {

// ------------------------------------------------------------ helpers

namespace {

// One pass of the reference task. Everything it allocates comes from
// `arena`, so its time does not depend on the state of the global heap the
// workload just churned.
uint64_t ReferencePassNs(std::vector<std::byte>& arena) {
  struct Event;
  using Handler = void (*)(const Event&);
  struct Event {
    uint64_t at;
    uint64_t seq;
    uint64_t id;
    Handler fn;
    std::pmr::vector<uint8_t> payload;
    bool operator>(const Event& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };
  constexpr uint64_t kIds = 4096;
  constexpr uint64_t kEvents = 8'000;
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size());
  uint64_t t0 = WallNs();
  std::pmr::map<std::pair<uint64_t, uint64_t>, std::pmr::string> registry(&pool);
  std::pmr::unordered_map<uint64_t, uint64_t> epochs(&pool);
  for (uint64_t i = 0; i < kIds; ++i) {
    registry.emplace(std::make_pair(MixSeed(i, 1), i),
                     std::pmr::string("operation-name-" + std::to_string(i % 97), &pool));
    epochs.emplace(i, i * 3);
  }
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> queue{
      std::greater<>{}, std::pmr::vector<Event>(&pool)};
  static uint64_t sink = 0;
  Handler handler = [](const Event& e) { sink += e.payload.size() + e.id; };
  for (uint64_t seq = 0; seq < kEvents; ++seq) {
    uint64_t id = MixSeed(seq, 2) % kIds;
    if (queue.size() >= 64) {
      Event e = queue.top();
      queue.pop();
      auto it = registry.find(std::make_pair(MixSeed(e.id, 1), e.id));
      std::pmr::string op(it->second, &pool);
      sink += op.size() + epochs[e.id];
      e.fn(e);
    }
    queue.push(Event{seq + id % 7, seq, id, handler,
                     std::pmr::vector<uint8_t>(48 + id % 32, static_cast<uint8_t>(id), &pool)});
  }
  return WallNs() - t0;
}

}  // namespace

uint64_t ReferenceTaskNs() {
  thread_local std::vector<std::byte> arena(4 << 20);
  uint64_t best = ReferencePassNs(arena);
  for (int pass = 1; pass < 3; ++pass) {
    best = std::min(best, ReferencePassNs(arena));
  }
  return best;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.median = Median(values);
  s.samples = values.size();
  const std::pair<const char*, double> tails[] = {{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}};
  for (const auto& [name, q] : tails) {
    if (static_cast<double>(values.size()) * (1 - q) >= 10) {
      s.tail_name = name;
      s.tail = Quantile(values, q);
      break;
    }
  }
  return s;
}

ValueList ApplyChain(const std::vector<eden::TransformFactory>& chain,
                     const ValueList& input) {
  std::vector<std::unique_ptr<eden::Transform>> stages;
  for (const eden::TransformFactory& factory : chain) {
    stages.push_back(factory());
  }
  ValueList out;
  std::function<void(size_t, const Value&)> feed = [&](size_t k, const Value& v) {
    if (k == stages.size()) {
      out.push_back(v);
      return;
    }
    stages[k]->OnItem(v, [&feed, k](std::string_view channel, Value w) {
      if (channel == eden::kChanOut) {
        feed(k + 1, w);
      }
    });
  };
  for (const Value& v : input) {
    feed(0, v);
  }
  for (size_t k = 0; k < stages.size(); ++k) {
    stages[k]->OnEnd([&feed, k](std::string_view channel, Value w) {
      if (channel == eden::kChanOut) {
        feed(k + 1, w);
      }
    });
  }
  return out;
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kBuild: return "BuildPipeline";
    case SpanKind::kRun: return "Kernel::Run";
    case SpanKind::kStep: return "Kernel::Step";
    case SpanKind::kOnItem: return "Transform::OnItem";
    case SpanKind::kOnEnd: return "Transform::OnEnd";
  }
  return "?";
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"name\":\""
        << SpanKindName(s.kind) << "\",\"start_ns\":" << s.start_ns - base
        << ",\"dur_ns\":" << (s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0) << "}\n";
  }
  return static_cast<bool>(out);
}

StepScope& CurrentStep() {
  thread_local StepScope scope;
  return scope;
}

namespace {

// Forwards every call to the wrapped transform, timing OnItem and OnEnd.
class TimedTransform : public eden::Transform {
 public:
  TimedTransform(std::unique_ptr<eden::Transform> inner, FilterClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void OnItem(const Value& item, const EmitFn& emit) override {
    uint64_t t0 = WallNs();
    inner_->OnItem(item, emit);
    uint64_t t1 = WallNs();
    clock_->item_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    clock_->items.fetch_add(1, std::memory_order_relaxed);
    Child(SpanKind::kOnItem, t0, t1);
  }
  void OnEnd(const EmitFn& emit) override {
    uint64_t t0 = WallNs();
    inner_->OnEnd(emit);
    uint64_t t1 = WallNs();
    clock_->end_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    Child(SpanKind::kOnEnd, t0, t1);
  }
  bool Done() const override { return inner_->Done(); }
  std::string name() const override { return inner_->name(); }
  Value SaveState() const override { return inner_->SaveState(); }
  void RestoreState(const Value& state) override { inner_->RestoreState(state); }
  std::vector<std::string> output_channels() const override {
    return inner_->output_channels();
  }

 private:
  static void Child(SpanKind kind, uint64_t t0, uint64_t t1) {
    StepScope& scope = CurrentStep();
    if (scope.log == nullptr) {
      return;
    }
    scope.child_ns += t1 - t0;
    scope.log->Add(Span{kind, scope.span, t0, t1});
  }

  std::unique_ptr<eden::Transform> inner_;
  FilterClock* clock_;
};

}  // namespace

std::vector<eden::TransformFactory> Timed(const std::vector<eden::TransformFactory>& chain,
                                          FilterClock* clock) {
  std::vector<eden::TransformFactory> timed;
  for (const eden::TransformFactory& factory : chain) {
    timed.push_back([factory, clock] {
      return std::make_unique<TimedTransform>(factory(), clock);
    });
  }
  return timed;
}

// ----------------------------------------------------------- workloads
namespace {

using eden::Discipline;
using eden::Kernel;
using eden::KernelOptions;
using eden::PipelineHandle;
using eden::PipelineOptions;

struct Spec {
  const char* name;
  Discipline discipline;
  int chains;      // independent pipelines per iteration
  int items;       // source datums per chain per iteration
  std::vector<std::string> filters;  // registry commands, source to sink
  int shards;
  bool distinct_nodes;  // every Eject on its own node
  bool partitioned;     // chain p pinned to shard p % shards
  eden::Tick processing_cost;
  bool observed;  // every observer installed through Kernel::set_*
  // Scale host times by the reference task (see Slowdown). Only for short
  // single-threaded run phases, which a reference timed beside them tracks.
  bool scale_by_reference;
};

const std::vector<std::string> kRealFilters = {"expand 8", "upper", "rot13",
                                               "replace = :=", "nl", "copy"};
const std::vector<std::string> kCopyFilters = {"copy", "copy", "copy", "copy"};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"chain_readonly", Discipline::kReadOnly, 1, 2000, kRealFilters, 1, false, false, 0,
       false, true},
      {"chain_conventional", Discipline::kConventional, 1, 2000, kRealFilters, 1, false,
       false, 50, false, true},
      {"wide_sharded", Discipline::kReadOnly, 8192, 2, kCopyFilters, 4, true, true, 0,
       false, false},
      {"wide_observed", Discipline::kReadOnly, 8192, 2, kCopyFilters, 4, true, true, 0,
       true, false},
  };
  return specs;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : Specs()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<eden::TransformFactory> MakeChain(const std::vector<std::string>& filters) {
  std::vector<eden::TransformFactory> chain;
  for (const std::string& command : filters) {
    std::istringstream words(command);
    std::string name;
    words >> name;
    std::vector<std::string> args;
    for (std::string arg; words >> arg;) {
      args.push_back(arg);
    }
    std::optional<eden::TransformFactory> factory = eden::MakeTransformByName(name, args);
    if (!factory) {
      std::fprintf(stderr, "perfbench: unknown filter '%s'\n", command.c_str());
      std::exit(2);
    }
    chain.push_back(*factory);
  }
  return chain;
}

// Observers, one bit each; an iteration installs any subset.
enum Observer : unsigned {
  kTrace = 1,
  kMetrics = 2,
  kMonitor = 4,
  kTelemetry = 8,
  kProfiler = 16,
  kAuditor = 32,
  kAllObservers = 63,
};

struct Observers {
  std::unique_ptr<eden::TraceRecorder> trace;
  std::unique_ptr<eden::MetricsRegistry> metrics;
  std::unique_ptr<eden::InvariantMonitor> monitor;
  std::unique_ptr<eden::TelemetrySampler> telemetry;
  std::unique_ptr<eden::ShardProfiler> profiler;
  std::unique_ptr<eden::verify::ShardRaceAnalyzer> auditor;

  void Install(Kernel& kernel, unsigned set) {
    if ((set & kTrace) != 0) {
      trace = std::make_unique<eden::TraceRecorder>(65536);
      kernel.set_tracer(trace->Hook());
    }
    if ((set & kMetrics) != 0) {
      metrics = std::make_unique<eden::MetricsRegistry>();
      kernel.set_metrics(metrics.get());
    }
    if ((set & kMonitor) != 0) {
      monitor = std::make_unique<eden::InvariantMonitor>();
      kernel.set_monitor(monitor.get());
    }
    if ((set & kTelemetry) != 0) {
      telemetry = std::make_unique<eden::TelemetrySampler>();
      kernel.set_telemetry(telemetry.get());
    }
    if ((set & kProfiler) != 0) {
      profiler = std::make_unique<eden::ShardProfiler>();
      kernel.set_profiler(profiler.get());
    }
    if ((set & kAuditor) != 0) {
      auditor = std::make_unique<eden::verify::ShardRaceAnalyzer>();
      kernel.set_auditor(auditor.get());
    }
  }
};

// Everything one seed fixes: the per-chain inputs and reference outputs.
struct Inputs {
  const Spec* spec = nullptr;
  std::vector<eden::TransformFactory> chain;
  std::vector<ValueList> inputs;
  std::vector<ValueList> expected;
  uint64_t uid_seed = 0;
  uint64_t datums = 0;  // source datums per iteration
};

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  in.spec = &spec;
  in.chain = MakeChain(spec.filters);
  in.uid_seed = MixSeed(seed, 0xE1D);
  for (int p = 0; p < spec.chains; ++p) {
    in.inputs.push_back(BenchLines(spec.items, MixSeed(seed, static_cast<uint64_t>(p) + 1)));
    in.expected.push_back(ApplyChain(in.chain, in.inputs.back()));
    in.datums += in.inputs.back().size();
  }
  return in;
}

enum class RunMode { kRun, kStep };

struct IterationOptions {
  unsigned observers = 0;
  RunMode mode = RunMode::kRun;
  FilterClock* clock = nullptr;  // wraps the chain in TimedTransforms
  SpanLog* spans = nullptr;
  std::vector<double>* step_self_ns = nullptr;  // kStep only
};

// The paper counts of one iteration: identical for every iteration of a
// seed, whatever the observers, shard count or run mode.
struct Counts {
  eden::Stats delta;
  eden::Tick virtual_time = 0;
  size_t ejects = 0;
  size_t passive_buffers = 0;
  uint64_t digest = 0;  // merged audit digest, when an auditor ran

  bool operator==(const Counts& o) const {
    return delta.invocations_sent == o.delta.invocations_sent &&
           delta.replies_sent == o.delta.replies_sent &&
           delta.invocation_bytes == o.delta.invocation_bytes &&
           delta.reply_bytes == o.delta.reply_bytes &&
           delta.context_switches == o.delta.context_switches &&
           delta.events_processed == o.delta.events_processed &&
           delta.services_run == o.delta.services_run &&
           delta.services_coalesced == o.delta.services_coalesced &&
           virtual_time == o.virtual_time && ejects == o.ejects &&
           passive_buffers == o.passive_buffers;
  }
};

struct Iteration {
  double setup_s = 0;
  double build_s = 0;  // BuildPipeline calls only
  double run_s = 0;
  double cpu_s = 0;
  double teardown_s = 0;
  // The reference task, timed just before and just after the run phase.
  double ref_before_ns = 0;
  double ref_after_ns = 0;
  uint64_t datums = 0;  // datums delivered to sinks
  Counts counts;
  std::vector<eden::ShardCounters> shards;
  uint64_t failed_chains = 0;
  std::vector<std::string> failures;
  // Observer read-outs (zero when the observer was not installed).
  bool certified = true;
  uint64_t audit_events = 0;
  uint64_t audit_violations = 0;
  uint64_t monitor_violations = 0;
  uint64_t trace_dropped = 0;
  uint64_t hiwat_hits = 0;
  uint64_t putbacks = 0;
  uint64_t queue_high_water = 0;
  double barrier_share = 0;
};

void ReadMetrics(const eden::MetricsRegistry& metrics, Iteration& it) {
  Value snapshot = metrics.Snapshot();
  if (const eden::ValueMap* flow = snapshot.Field("flow").AsMap()) {
    for (const auto& [key, entry] : *flow) {
      it.hiwat_hits += static_cast<uint64_t>(entry.Field("hiwat_hits").IntOr(0));
      it.putbacks += static_cast<uint64_t>(entry.Field("putbacks").IntOr(0));
    }
  }
  if (const eden::ValueMap* queues = snapshot.Field("queues").AsMap()) {
    for (const auto& [key, entry] : *queues) {
      it.queue_high_water = std::max(
          it.queue_high_water, static_cast<uint64_t>(entry.Field("high_water").IntOr(0)));
    }
  }
}

double BarrierShare(const eden::ShardProfiler& profiler) {
  uint64_t barrier = 0;
  uint64_t total = 0;
  for (const eden::ShardProfiler::ShardProfile& p : profiler.Snapshot()) {
    barrier += p.barrier_ns;
    total += p.barrier_ns + p.drain_ns + p.execute_ns + p.stall_ns;
  }
  return total == 0 ? 0 : static_cast<double>(barrier) / static_cast<double>(total);
}

Iteration RunIteration(const Inputs& in, const IterationOptions& opts) {
  const Spec& spec = *in.spec;
  Iteration it;
  // Input copies are made before the clock starts: generating inputs is the
  // benchmark's job, not the system's.
  std::vector<ValueList> sources = in.inputs;
  std::vector<eden::TransformFactory> chain =
      opts.clock != nullptr ? Timed(in.chain, opts.clock) : in.chain;
  PipelineOptions options;
  options.discipline = spec.discipline;
  options.distinct_nodes = spec.distinct_nodes;
  options.processing_cost = spec.processing_cost;
  KernelOptions kernel_options;
  kernel_options.shards = spec.shards;
  kernel_options.uid_seed = in.uid_seed;
  Observers observers;
  std::vector<PipelineHandle> handles;
  handles.reserve(sources.size());

  uint64_t t0 = WallNs();
  auto kernel = std::make_unique<Kernel>(kernel_options);
  observers.Install(*kernel, opts.observers);
  uint64_t build0 = WallNs();
  for (size_t p = 0; p < sources.size(); ++p) {
    options.partition_shard = spec.partitioned ? static_cast<int>(p) % spec.shards : -1;
    handles.push_back(eden::BuildPipeline(*kernel, std::move(sources[p]), chain, options));
  }
  uint64_t t1 = WallNs();
  it.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  it.build_s = static_cast<double>(t1 - build0) * 1e-9;
  if (opts.spans != nullptr) {
    opts.spans->Add(Span{SpanKind::kBuild, 0, build0, t1});
  }

  uint64_t ref_before = ReferenceTaskNs();
  eden::Stats before = kernel->stats();
  eden::Tick vt0 = kernel->now();
  uint64_t c0 = CpuNs();
  uint64_t w0 = WallNs();
  if (opts.mode == RunMode::kRun) {
    kernel->Run();
  } else {
    // The header guarantees Step reproduces Run's event order exactly.
    StepScope& scope = CurrentStep();
    scope.log = opts.spans;
    for (;;) {
      scope.child_ns = 0;
      uint64_t s0 = WallNs();
      scope.span = opts.spans != nullptr ? opts.spans->Add(Span{SpanKind::kStep, 0, s0, s0}) : 0;
      bool ran = kernel->Step();
      uint64_t s1 = WallNs();
      if (!ran) {
        break;
      }
      if (opts.spans != nullptr) {
        opts.spans->SetEnd(scope.span, s1);
      }
      if (opts.step_self_ns != nullptr) {
        opts.step_self_ns->push_back(static_cast<double>(s1 - s0 - scope.child_ns));
      }
    }
    scope = StepScope{};
  }
  uint64_t w1 = WallNs();
  uint64_t c1 = CpuNs();
  it.run_s = static_cast<double>(w1 - w0) * 1e-9;
  it.cpu_s = static_cast<double>(c1 - c0) * 1e-9;
  it.ref_before_ns = static_cast<double>(ref_before);
  it.ref_after_ns = static_cast<double>(ReferenceTaskNs());
  if (opts.spans != nullptr && opts.mode == RunMode::kRun) {
    opts.spans->Add(Span{SpanKind::kRun, 0, w0, w1});
  }

  it.counts.delta = kernel->stats() - before;
  it.counts.virtual_time = kernel->now() - vt0;
  it.shards = kernel->shard_counters();
  for (size_t p = 0; p < handles.size(); ++p) {
    const PipelineHandle& h = handles[p];
    it.counts.ejects += h.eject_count();
    it.counts.passive_buffers += h.passive_buffer_count;
    it.datums += h.output().size();
    if (!h.done() || h.output() != in.expected[p]) {
      ++it.failed_chains;
      if (it.failures.size() < 3) {
        it.failures.push_back("chain " + std::to_string(p) + ": sink output differs from " +
                              "the reference (" + std::to_string(h.output().size()) +
                              " of " + std::to_string(in.expected[p].size()) + " items)");
      }
    }
  }
  if (observers.auditor) {
    eden::verify::RunDigest digest = observers.auditor->Digest();
    it.counts.digest = digest.merged;
    it.certified = digest.certified();
    it.audit_events = digest.events;
    it.audit_violations = digest.violations;
  }
  if (observers.monitor) {
    it.monitor_violations = observers.monitor->Check().size();
  }
  if (observers.trace) {
    it.trace_dropped = observers.trace->events_dropped();
  }
  if (observers.metrics) {
    ReadMetrics(*observers.metrics, it);
  }
  if (observers.profiler) {
    it.barrier_share = BarrierShare(*observers.profiler);
  }

  uint64_t d0 = WallNs();
  handles.clear();
  kernel.reset();
  it.teardown_s = static_cast<double>(WallNs() - d0) * 1e-9;
  return it;
}

// Iteration-level checks: the §4 closed forms and the observers' verdicts.
// A failed check fails every chain of the iteration.
void CheckIteration(const Inputs& in, Iteration& it, const std::optional<Counts>& first) {
  const Spec& spec = *in.spec;
  size_t n = spec.filters.size();
  uint64_t chains = static_cast<uint64_t>(spec.chains);
  std::vector<std::string> problems;
  if (it.counts.ejects != chains * eden::PredictedEjectCount(spec.discipline, n)) {
    problems.push_back("Eject census " + std::to_string(it.counts.ejects) +
                       " != closed form");
  }
  size_t buffers = spec.discipline == Discipline::kConventional ? n + 1 : 0;
  if (it.counts.passive_buffers != chains * buffers) {
    problems.push_back("passive buffers " + std::to_string(it.counts.passive_buffers) +
                       " != closed form");
  }
  // n+1 (read-only) or 2n+2 (conventional) invocations per datum; the
  // end-of-stream marker adds at most one more round per hop and chain.
  uint64_t per_datum = eden::PredictedInvocationsPerDatum(spec.discipline, n);
  uint64_t inv = it.counts.delta.invocations_sent;
  if (inv < per_datum * in.datums || inv > per_datum * (in.datums + chains)) {
    problems.push_back("invocations " + std::to_string(inv) + " outside the closed form " +
                       std::to_string(per_datum) + " x (" + std::to_string(in.datums) +
                       " datums + end of stream)");
  }
  if (it.counts.delta.replies_sent != it.counts.delta.invocations_sent) {
    problems.push_back("replies != invocations");
  }
  if (!it.certified) {
    problems.push_back("audit digest not certified (" +
                       std::to_string(it.audit_violations) + " violations)");
  }
  if (it.monitor_violations != 0) {
    problems.push_back("invariant monitor: " + std::to_string(it.monitor_violations) +
                       " violations");
  }
  if (first && !(it.counts == *first)) {
    problems.push_back("paper counts differ from the first iteration of this seed");
  }
  if (first && first->digest != 0 && it.counts.digest != 0 &&
      first->digest != it.counts.digest) {
    problems.push_back("audit digest differs from the first iteration of this seed");
  }
  if (!problems.empty()) {
    it.failed_chains = chains;
    it.failures.insert(it.failures.end(), problems.begin(), problems.end());
  }
}

// Runs, checks and books one iteration into `out`.
class Session {
 public:
  Session(const Inputs& in, Outcome& out) : in_(in), out_(out) {}

  Iteration Run(const IterationOptions& opts) {
    Iteration it = RunIteration(in_, opts);
    CheckIteration(in_, it, first_);
    if (!first_) {
      first_ = it.counts;
    }
    out_.attempted += static_cast<uint64_t>(in_.spec->chains);
    out_.failed += it.failed_chains;
    for (const std::string& f : it.failures) {
      if (out_.failures.size() < 8) {
        out_.failures.push_back(f);
      }
    }
    return it;
  }

 private:
  const Inputs& in_;
  Outcome& out_;
  std::optional<Counts> first_;
};

unsigned WorkloadObservers(const Spec& spec) {
  return spec.observed ? unsigned{kAllObservers} : 0U;
}

// One warm-up iteration, checked but not returned (it runs on a cold heap
// and reads slow), then iterations until `seconds` have passed, at least
// `min_iters` of them.
std::vector<Iteration> MeasuredIterations(Session& session, const Spec& spec,
                                          double seconds, size_t min_iters) {
  IterationOptions opts;
  opts.observers = WorkloadObservers(spec);
  session.Run(opts);
  std::vector<Iteration> its;
  uint64_t deadline = WallNs() + static_cast<uint64_t>(seconds * 1e9);
  while (its.size() < min_iters || WallNs() < deadline) {
    its.push_back(session.Run(opts));
  }
  return its;
}

// The process's own peak (VmHWM). getrusage's ru_maxrss would also count
// the launcher's image from before exec.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

template <typename F>
std::vector<double> Collect(const std::vector<Iteration>& its, F f) {
  std::vector<double> values;
  for (const Iteration& it : its) {
    values.push_back(f(it));
  }
  return values;
}

// How much slower than nominal the host ran during one iteration: the
// faster of the two reference timings around its run phase (the best of six
// passes) over the nominal one. Host times of the iteration are divided by
// it; 1 when the workload is not scaled.
double Slowdown(const Iteration& it, bool scale) {
  return scale ? std::min(it.ref_before_ns, it.ref_after_ns) / kNominalReferenceNs : 1.0;
}

// Books one end-to-end timing: the median of `f(iteration, slowdown)` over
// the iterations, with the unscaled median beside it in the notes.
template <typename F>
void AddTiming(Outcome& out, const Spec& spec, const std::string& name,
               const std::vector<Iteration>& its, F f, const std::string& unit) {
  std::vector<double> scaled;
  std::vector<double> raw;
  for (const Iteration& it : its) {
    scaled.push_back(f(it, Slowdown(it, spec.scale_by_reference)));
    raw.push_back(f(it, 1.0));
  }
  Summary s = Summarize(scaled);
  out.metrics.push_back(Metric{name, s.median, unit});
  out.details.Set("samples." + name, Value(ValueList(scaled.begin(), scaled.end())));
  out.details.Set("samples_unscaled." + name, Value(ValueList(raw.begin(), raw.end())));
  std::ostringstream note;
  note << name << ": median " << s.median << " " << unit << " over " << s.samples
       << " samples";
  if (!s.tail_name.empty()) {
    note << ", " << s.tail_name << " " << s.tail;
  }
  note << " (unscaled median " << Median(raw) << ")";
  out.notes.push_back(note.str());
}

Value Facts(const Inputs& in) {
  Value v;
  v.Set("chains", Value(static_cast<int64_t>(in.spec->chains)));
  v.Set("datums_per_iteration", Value(in.datums));
  v.Set("filters", Value(static_cast<int64_t>(in.spec->filters.size())));
  v.Set("shards", Value(static_cast<int64_t>(in.spec->shards)));
  return v;
}

}  // namespace

bool KnownWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& spec : Specs()) {
    names.push_back(spec.name);
  }
  return names;
}

int WorkloadShards(const std::string& name) {
  const Spec* spec = FindSpec(name);
  return spec != nullptr ? spec->shards : 0;
}

Outcome MeasureWorkload(const RunArgs& args) {
  const Spec& spec = *FindSpec(args.workload);
  Inputs in = MakeInputs(spec, args.seed);
  Outcome out;
  out.details = Facts(in);
  Session session(in, out);
  std::vector<Iteration> its = MeasuredIterations(session, spec, args.seconds, 3);

  AddTiming(out, spec, "datums_per_s", its,
            [](const Iteration& it, double k) { return it.datums * k / it.run_s; },
            "datums/s");
  AddTiming(out, spec, "cpu_us_per_datum", its,
            [](const Iteration& it, double k) { return it.cpu_s / k * 1e6 / it.datums; },
            "us");
  AddTiming(out, spec, "setup_s", its,
            [](const Iteration& it, double k) { return it.setup_s / k; }, "s");
  AddTiming(out, spec, "teardown_s", its,
            [](const Iteration& it, double k) { return it.teardown_s / k; }, "s");
  out.metrics.push_back(Metric{"peak_rss_mb", PeakRssMiB(), "MiB"});
  std::vector<double> refs;
  for (const Iteration& it : its) {
    refs.push_back(it.ref_before_ns);
    refs.push_back(it.ref_after_ns);
  }
  out.notes.push_back("reference task: median " + std::to_string(Median(refs) * 1e-6) +
                      " ms (nominal " + std::to_string(kNominalReferenceNs * 1e-6) + " ms); " +
                      (spec.scale_by_reference ? "timings scaled to the nominal host"
                                               : "timings unscaled"));
  out.details.Set("iterations", Value(static_cast<int64_t>(its.size())));
  return out;
}

Outcome TraceWorkload(const RunArgs& args) {
  const Spec& spec = *FindSpec(args.workload);
  Inputs in = MakeInputs(spec, args.seed);
  Outcome out;
  Session session(in, out);
  const size_t n = spec.filters.size();
  auto add = [&out](const std::string& name, double value, const std::string& unit) {
    out.metrics.push_back(Metric{name, std::isfinite(value) ? value : 0, unit});
  };

  // Untraced baseline: what the measured run would see.
  std::vector<Iteration> base = MeasuredIterations(session, spec, args.seconds / 4, 2);
  double base_run_s = Median(Collect(base, [](const Iteration& it) { return it.run_s; }));
  const Iteration& last = base.back();

  // Traced pass 1: every event through Kernel::Step, with spans.
  FilterClock step_clock;
  SpanLog spans(1'000'000);
  std::vector<double> step_self;
  IterationOptions step_opts;
  step_opts.observers = WorkloadObservers(spec);
  step_opts.mode = RunMode::kStep;
  step_opts.clock = &step_clock;
  step_opts.spans = &spans;
  step_opts.step_self_ns = &step_self;
  Iteration stepped = session.Run(step_opts);

  // Traced pass 2 (sharded workloads): the parallel Run under the filter
  // clock and a profiler, for the barrier share.
  Iteration traced = stepped;
  if (spec.shards > 1) {
    FilterClock run_clock;
    IterationOptions run_opts;
    run_opts.observers = WorkloadObservers(spec) | kProfiler;
    run_opts.clock = &run_clock;
    run_opts.spans = &spans;
    traced = session.Run(run_opts);
  }

  // Counting pass: flow-control counters need a MetricsRegistry, which an
  // observed workload has installed already.
  Iteration counted = last;
  if (!spec.observed) {
    IterationOptions count_opts;
    count_opts.observers = kMetrics;
    counted = session.Run(count_opts);
  }

  double datums = static_cast<double>(in.datums);
  const eden::Stats& d = last.counts.delta;
  add("kernel.events_per_datum", d.events_processed / datums, "count");
  add("kernel.ns_per_event", base_run_s * 1e9 / d.events_processed, "ns");
  add("kernel.step_self_ns_p50", Quantile(step_self, 0.5), "ns");
  add("kernel.step_self_ns_p99", Quantile(step_self, 0.99), "ns");
  add("kernel.invocations_per_datum", d.invocations_sent / datums, "count");
  add("kernel.replies_per_datum", d.replies_sent / datums, "count");
  add("kernel.switches_per_datum", d.context_switches / datums, "count");
  add("kernel.bytes_per_datum", d.total_bytes() / datums, "bytes");
  add("kernel.virtual_us_per_datum", last.counts.virtual_time / datums, "us");

  uint64_t windows = 0, stalls = 0, cross = 0, mailbox = 0;
  double max_events = 0, sum_events = 0;
  for (const eden::ShardCounters& c : last.shards) {
    windows += c.windows;
    stalls += c.lookahead_stalls;
    cross += c.cross_shard_sends;
    mailbox = std::max(mailbox, c.mailbox_high_water);
    max_events = std::max(max_events, static_cast<double>(c.events_processed));
    sum_events += static_cast<double>(c.events_processed);
  }
  double mean_events = last.shards.empty() ? 0 : sum_events / last.shards.size();
  add("kernel.windows", windows, "count");
  add("kernel.lookahead_stalls", stalls, "count");
  add("kernel.cross_shard_sends", cross, "count");
  add("kernel.mailbox_high_water", mailbox, "count");
  add("kernel.shard_imbalance_pct", mean_events > 0 ? (max_events / mean_events - 1) * 100 : 0,
      "pct");
  add("kernel.barrier_share", traced.barrier_share, "ratio");

  Ladder ladder = MeasureLadder(in.chain, in.inputs.front(), spec.scale_by_reference);
  bool ladder_ok = ladder.null_event_ns >= 0 && ladder.resume_ns >= 0 &&
                   ladder.invoke_local_ns >= 0 && ladder.invoke_remote_ns >= 0 &&
                   ladder.invoke_cross_shard_ns >= 0 && ladder.transfer_item_ns >= 0 &&
                   ladder.push_item_ns >= 0;
  if (!ladder_ok) {
    out.failed += static_cast<uint64_t>(spec.chains);
    out.failures.push_back("a cost-ladder row failed its own output check");
  }
  add("kernel.null_event_ns", ladder.null_event_ns, "ns");
  add("kernel.resume_ns", ladder.resume_ns, "ns");
  add("kernel.invoke_local_ns", ladder.invoke_local_ns, "ns");
  add("kernel.invoke_remote_ns", ladder.invoke_remote_ns, "ns");
  add("kernel.invoke_cross_shard_ns", ladder.invoke_cross_shard_ns, "ns");
  add("streams.transfer_item_ns", ladder.transfer_item_ns, "ns");
  add("streams.push_item_ns", ladder.push_item_ns, "ns");

  add("streams.hiwat_hits_per_datum", counted.hiwat_hits / datums, "count");
  add("streams.putbacks", counted.putbacks, "count");
  add("streams.services_run", d.services_run, "count");
  double services = static_cast<double>(d.services_run + d.services_coalesced);
  add("streams.service_coalesce_ratio", services > 0 ? d.services_coalesced / services : 0,
      "ratio");
  add("streams.queue_high_water", counted.queue_high_water, "count");

  add("pipeline.build_us_per_eject", stepped.build_s * 1e6 / stepped.counts.ejects, "us");
  add("pipeline.ejects", stepped.counts.ejects, "count");
  add("pipeline.passive_buffers", stepped.counts.passive_buffers, "count");

  // Filter time from the Step pass, where every call has a parent span.
  double on_items = static_cast<double>(step_clock.items.load());
  double item_ns = static_cast<double>(step_clock.item_ns.load());
  double filter_s = (item_ns + static_cast<double>(step_clock.end_ns.load())) * 1e-9;
  add("filters.on_item_ns", on_items > 0 ? item_ns / on_items : 0, "ns");
  add("filters.share", filter_s / stepped.run_s, "ratio");
  add("filters.ladder_on_item_ns", ladder.on_item_ns, "ns");

  // Instrument marginals: wide_observed reruns with one observer at a time.
  const std::pair<const char*, unsigned> singles[] = {
      {"instruments.trace.marginal_pct", kTrace},
      {"instruments.metrics.marginal_pct", kMetrics},
      {"instruments.monitor.marginal_pct", kMonitor},
      {"instruments.telemetry.marginal_pct", kTelemetry},
      {"instruments.profiler.marginal_pct", kProfiler},
      {"verify.audit.marginal_pct", kAuditor},
  };
  if (spec.observed) {
    double bare = session.Run(IterationOptions{}).run_s;
    for (const auto& [name, bit] : singles) {
      IterationOptions one;
      one.observers = bit;
      add(name, (session.Run(one).run_s / bare - 1) * 100, "pct");
    }
  } else {
    for (const auto& [name, bit] : singles) {
      add(name, 0, "pct");
    }
  }
  add("instruments.trace_events_dropped", last.trace_dropped, "count");
  add("instruments.monitor_violations", last.monitor_violations, "count");
  add("verify.audit_events", last.audit_events, "count");
  add("verify.audit_violations", last.audit_violations, "count");

  // The ladder's per-datum prediction against the measured CPU per datum,
  // both host-speed scaled (where the workload scales): they ran seconds
  // apart.
  double hops = static_cast<double>(n + 1);
  double per_hop = ladder.transfer_item_ns +
                   (spec.discipline == Discipline::kConventional ? ladder.push_item_ns : 0);
  double predicted = hops * per_hop + static_cast<double>(n) * ladder.on_item_ns;
  double actual = Median(Collect(base, [&spec](const Iteration& it) {
                    return it.cpu_s / Slowdown(it, spec.scale_by_reference);
                  })) * 1e9 / datums;
  double error_pct = std::fabs(predicted / actual - 1) * 100;
  add("ladder.predict_error_pct", error_pct, "pct");
  out.notes.push_back("ladder predicts " + std::to_string(predicted) + " ns/datum vs " +
                      std::to_string(actual) + " measured: " +
                      (error_pct <= 20 ? "within" : "outside") + " 20%");

  // Both sides host-speed scaled (where the workload scales): they ran
  // seconds apart.
  auto scaled_run_s = [&spec](const Iteration& it) {
    return it.run_s / Slowdown(it, spec.scale_by_reference);
  };
  add("trace_overhead_pct",
      (scaled_run_s(traced) / Median(Collect(base, scaled_run_s)) - 1) * 100, "pct");

  if (!args.out_dir.empty()) {
    std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".jsonl";
    if (spans.WriteJsonLines(path)) {
      out.notes.push_back("spans: " + std::to_string(spans.spans().size()) + " written to " +
                          path + " (" + std::to_string(spans.dropped()) + " over the cap)");
    }
  }
  out.details = Facts(in);
  return out;
}

}  // namespace perfbench

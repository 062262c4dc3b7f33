#include "src/core/pipeline.h"

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "src/core/pipeline_verify.h"


namespace eden {

std::string_view DisciplineName(Discipline discipline) {
  switch (discipline) {
    case Discipline::kReadOnly:
      return "read-only";
    case Discipline::kWriteOnly:
      return "write-only";
    case Discipline::kConventional:
      return "conventional";
  }
  return "unknown";
}

namespace {

// ---- Recovery scaffolding.

// A watchdog that periodically invokes every filter. The probe itself is the
// recovery mechanism: an invocation addressed to a crashed-but-checkpointed
// Eject makes the kernel reactivate it (paper §1). Neighbours' retries cover
// most crashes, but a conventional filter is invoked by nobody — both of its
// correspondents are passive — and a write-only filter whose upstream already
// finished would likewise never hear another Push.
class PipelineMonitor : public Eject {
 public:
  static constexpr const char* kType = "PipelineMonitor";

  PipelineMonitor(Kernel& kernel, std::vector<Uid> targets, Tick interval,
                  Tick deadline)
      : Eject(kernel, kType),
        targets_(std::move(targets)),
        interval_(interval),
        deadline_(deadline) {}

  void set_done(std::function<bool()> done) { done_ = std::move(done); }

  void OnStart() override { Spawn(Watch()); }

 private:
  Task<void> Watch() {
    for (;;) {
      co_await Sleep(interval_);
      if (done_ && done_()) {
        co_return;
      }
      for (const Uid& target : targets_) {
        // The result is irrelevant; a dropped probe is re-sent next round.
        co_await Invoke(target, "Ping", Value(), deadline_);
        if (done_ && done_()) {
          co_return;
        }
      }
    }
  }

  std::vector<Uid> targets_;
  Tick interval_;
  Tick deadline_;
  std::function<bool()> done_;
};

// A reactivation type name unique within this kernel. Deterministic given
// the same build sequence (no global counters: two same-seed kernels in one
// process must produce byte-identical checkpoints, and the type name is
// part of the passive representation).
std::string UniqueTypeName(Kernel& kernel, const std::string& base) {
  if (!kernel.types().Contains(base)) {
    return base;
  }
  int n = 2;
  std::string name = base + "#" + std::to_string(n);
  while (kernel.types().Contains(name)) {
    name = base + "#" + std::to_string(++n);
  }
  return name;
}

// Points a stage's push output at its downstream stage and channel.
using BindOutputFn = std::function<void(const Uid& to, const Value& channel)>;

// The options every filter class shares.
template <typename Filter>
typename Filter::Options FilterOptions(const PipelineOptions& options,
                                       const verify::RecoveryKnobs& knobs) {
  typename Filter::Options filter;
  filter.batch = options.batch;
  filter.processing_cost = options.processing_cost;
  filter.recovery.enabled = knobs.enabled;
  filter.recovery.checkpoint_every = knobs.checkpoint_every;
  filter.recovery.retry = knobs.retry;
  return filter;
}

template <typename Filter>
constexpr bool kPushesOutput = !std::is_same_v<Filter, ReadOnlyFilter>;

// Registers the reactivation factory of a recoverable filter: a fresh
// instance from the same transform factory and options, bound to the same
// downstream (the binding is part of the type, not the checkpoint).
template <typename Filter>
void RegisterReactivation(Kernel& kernel, const TransformFactory& factory,
                          const typename Filter::Options& filter_options,
                          const Uid& to = Uid(), const Value& channel = Value()) {
  kernel.types().Register(
      filter_options.recovery.eject_type,
      [factory, filter_options, to, channel](Kernel& k) -> std::unique_ptr<Eject> {
        auto fresh = std::make_unique<Filter>(k, factory(), filter_options);
        if constexpr (kPushesOutput<Filter>) {
          fresh->BindOutput(std::string(kChanOut), to, channel);
        }
        return fresh;
      });
}

// Creates transform stage `index` (0-based). A filter with a push output
// gets `bind`; the reactivation factory of a recoverable one is registered
// once that output is bound.
template <typename Filter>
Filter& CreateFilter(Kernel& kernel, NodeId node, const TransformFactory& factory,
                     typename Filter::Options& filter_options, size_t index,
                     BindOutputFn& bind) {
  if (filter_options.recovery.enabled) {
    filter_options.recovery.eject_type = UniqueTypeName(
        kernel, std::string(Filter::kType) + "/" + std::to_string(index));
  }
  Filter& filter = kernel.Create<Filter>(node, factory(), filter_options);
  if constexpr (kPushesOutput<Filter>) {
    if (filter_options.recovery.enabled) {
      bind = [&kernel, &filter, factory, filter_options](const Uid& to,
                                                         const Value& channel) {
        filter.BindOutput(std::string(kChanOut), to, channel);
        RegisterReactivation<Filter>(kernel, factory, filter_options, to, channel);
      };
    } else {
      bind = [&filter](const Uid& to, const Value& channel) {
        filter.BindOutput(std::string(kChanOut), to, channel);
      };
    }
  } else if (filter_options.recovery.enabled) {
    RegisterReactivation<Filter>(kernel, factory, filter_options);
  }
  return filter;
}

// Instantiates the plan as WalkPlan visits it: creates each stage's Eject
// in plan (source..sink) order and binds each push edge as soon as its
// downstream stage exists. The stage's stream ends (§4) pick the Eject
// class; the plan's watermarks and channels and the effective recovery
// knobs configure it.
struct Instantiation {
  Kernel& kernel;
  const PipelineOptions& options;
  const std::vector<TransformFactory>& stages;
  ValueList input;
  verify::RecoveryKnobs knobs;
  PipelineHandle handle{};
  std::vector<BindOutputFn> bind{};  // each stage's push output, by position
  std::vector<Uid> filters{};

  void Add(const verify::StageSpec& stage, const verify::EdgeSpec* feed);
  // The recovery monitor, when recovery is on and there are filters.
  void AddMonitor();
};

void Instantiation::Add(const verify::StageSpec& stage,
                        const verify::EdgeSpec* feed) {
  const size_t position = handle.ejects.size();
  const NodeId node =
      options.distinct_nodes
          ? kernel.AddNode("pipe-node-" + std::to_string(position),
                           stage.shard_hint)
          : NodeId{0};
  assert(node == stage.node && "the plan names the node AddNode returns");
  const Uid upstream =
      feed == nullptr ? Uid() : handle.ejects[PlanPosition(feed->from)];
  BindOutputFn& output = bind.emplace_back();
  Eject* eject = nullptr;
  if (stage.is_source && stage.passive_output) {
    VectorSource::Options source;
    source.work_ahead = stage.hiwat;
    source.work_ahead_lowat = stage.lowat;
    source.start_on_demand = stage.lazy;
    source.sequenced = knobs.enabled;
    eject = &kernel.Create<VectorSource>(node, std::move(input), source);
  } else if (stage.is_source) {
    PushSource::Options source;
    source.batch = options.batch;
    source.retry = knobs.retry;
    source.sequenced = knobs.enabled;
    PushSource& push = kernel.Create<PushSource>(node, std::move(input), source);
    output = [&push](const Uid& to, const Value& channel) {
      push.BindOutput(to, channel);
    };
    eject = &push;
  } else if (stage.is_sink && stage.active_input) {
    PullSink::Options sink;
    sink.batch = options.batch;
    sink.lookahead = options.lookahead;
    sink.retry = knobs.retry;
    sink.sequenced = knobs.enabled;
    handle.pull_sink = &kernel.Create<PullSink>(node, upstream,
                                                Value(feed->channel), sink);
    eject = handle.pull_sink;
  } else if (stage.is_sink) {
    PushSink::Options sink;
    sink.hiwat = stage.hiwat;
    sink.lowat = stage.lowat;
    sink.sequenced = knobs.enabled;
    handle.push_sink = &kernel.Create<PushSink>(node, sink);
    eject = handle.push_sink;
  } else if (stage.passive_input && stage.passive_output) {
    PassiveBuffer::Options pipe;
    pipe.hiwat = stage.hiwat;
    pipe.lowat = stage.lowat;
    pipe.sequenced = knobs.enabled;
    eject = &kernel.Create<PassiveBuffer>(node, pipe);
    handle.passive_buffer_count++;
  } else {
    // A transform stage: read-only, write-only or conventional filter.
    const size_t index = filters.size();
    if (stage.passive_output) {
      auto filter = FilterOptions<ReadOnlyFilter>(options, knobs);
      filter.source = upstream;
      filter.source_channel = Value(feed->channel);
      filter.lookahead = options.lookahead;
      filter.work_ahead = stage.hiwat;
      filter.work_ahead_lowat = stage.lowat;
      filter.start_on_demand = stage.lazy;
      eject = &CreateFilter<ReadOnlyFilter>(kernel, node, stages[index], filter,
                                            index, output);
    } else if (stage.passive_input) {
      auto filter = FilterOptions<WriteOnlyFilter>(options, knobs);
      filter.input_hiwat = stage.hiwat;
      filter.input_lowat = stage.lowat;
      eject = &CreateFilter<WriteOnlyFilter>(kernel, node, stages[index],
                                             filter, index, output);
    } else {
      auto filter = FilterOptions<ConventionalFilter>(options, knobs);
      filter.source = upstream;
      filter.source_channel = Value(feed->channel);
      filter.lookahead = options.lookahead;
      eject = &CreateFilter<ConventionalFilter>(kernel, node, stages[index],
                                                filter, index, output);
    }
    filters.push_back(eject->uid());
  }
  if (feed != nullptr && feed->mode == verify::EdgeSpec::Mode::kPush) {
    bind[PlanPosition(feed->from)](eject->uid(), Value(feed->channel));
  }
  handle.ejects.push_back(eject->uid());
  handle.stage_names.push_back(stage.name);
}

void Instantiation::AddMonitor() {
  if (!knobs.enabled || filters.empty()) {
    return;
  }
  PipelineMonitor& monitor = kernel.Create<PipelineMonitor>(
      NodeId{0}, std::move(filters), knobs.probe_interval, knobs.retry.deadline);
  PipelineHandle sinks;
  sinks.pull_sink = handle.pull_sink;
  sinks.push_sink = handle.push_sink;
  monitor.set_done([sinks = std::move(sinks)] { return sinks.done(); });
  handle.monitor = monitor.uid();
}

}  // namespace

PipelineHandle BuildPipeline(Kernel& kernel, ValueList input,
                             const std::vector<TransformFactory>& stages,
                             const PipelineOptions& options) {
  verify::LintReport lint;
  if (options.lint_before_activate) {
    lint = LintPipelinePlan(stages.size(), options, kernel);
    if (!lint.ok()) {
      // Refuse activation: no Eject was created, the kernel is untouched.
      PipelineHandle rejected;
      rejected.discipline = options.discipline;
      rejected.lint = std::move(lint);
      rejected.lint_rejected = true;
      return rejected;
    }
  }
  Instantiation build{kernel, options, stages, std::move(input),
                      EffectiveRecovery(options)};
  build.handle.discipline = options.discipline;
  const size_t count = PredictedEjectCount(options.discipline, stages.size());
  build.handle.ejects.reserve(count);
  build.handle.stage_names.reserve(count);
  build.bind.reserve(count);
  build.filters.reserve(stages.size());
  WalkPlan(stages.size(), options, static_cast<NodeId>(kernel.node_count()),
           [&build](const verify::StageSpec& stage, const verify::EdgeSpec* feed) {
             build.Add(stage, feed);
           });
  build.handle.source = build.handle.ejects.front();
  build.handle.sink = build.handle.ejects.back();
  build.AddMonitor();
  build.handle.lint = std::move(lint);
  return std::move(build.handle);
}

ValueList RunPipeline(Kernel& kernel, ValueList input,
                      const std::vector<TransformFactory>& stages,
                      const PipelineOptions& options) {
  PipelineHandle handle = BuildPipeline(kernel, std::move(input), stages, options);
  if (handle.lint_rejected) {
    return ValueList();
  }
  kernel.RunUntil([&handle] { return handle.done(); });
  return handle.output();
}

size_t PredictedInvocationsPerDatum(Discipline discipline, size_t stage_count) {
  switch (discipline) {
    case Discipline::kReadOnly:
    case Discipline::kWriteOnly:
      return stage_count + 1;  // §4: "only n+1 invocations are needed"
    case Discipline::kConventional:
      return 2 * stage_count + 2;  // §4: "2n+2 invocations would be needed"
  }
  return 0;
}

size_t PredictedEjectCount(Discipline discipline, size_t stage_count) {
  switch (discipline) {
    case Discipline::kReadOnly:
    case Discipline::kWriteOnly:
      return stage_count + 2;  // §4: "implemented by n+2 Ejects"
    case Discipline::kConventional:
      return 2 * stage_count + 3;  // n+2 plus "n+1 passive buffer Ejects"
  }
  return 0;
}

}  // namespace eden

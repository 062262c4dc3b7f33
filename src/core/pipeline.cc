#include "src/core/pipeline.h"

#include <cassert>
#include <memory>
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

NodeId PlaceNext(Kernel& kernel, const PipelineOptions& options, int& counter) {
  if (!options.distinct_nodes) {
    return NodeId{0};
  }
  return kernel.AddNode("pipe-node-" + std::to_string(counter++),
                        options.partition_shard);
}

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

FilterRecoveryOptions MakeFilterRecovery(const PipelineOptions& options) {
  FilterRecoveryOptions recovery;
  recovery.enabled = options.recovery.enabled;
  recovery.checkpoint_every = options.recovery.checkpoint_every;
  recovery.deadline = options.recovery.deadline;
  recovery.retry_attempts = options.recovery.retry_attempts;
  recovery.retry_backoff = options.recovery.retry_backoff;
  return recovery;
}

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

void MaybeAddMonitor(Kernel& kernel, const PipelineOptions& options,
                     PipelineHandle& handle, std::vector<Uid> filters) {
  if (!options.recovery.enabled || filters.empty()) {
    return;
  }
  PipelineMonitor& monitor = kernel.Create<PipelineMonitor>(
      NodeId{0}, std::move(filters), options.recovery.probe_interval,
      options.recovery.deadline);
  PullSink* pull = handle.pull_sink;
  PushSink* push = handle.push_sink;
  monitor.set_done([pull, push] {
    return pull != nullptr ? pull->done() : (push != nullptr && push->done());
  });
  handle.monitor = monitor.uid();
}

PipelineHandle BuildReadOnly(Kernel& kernel, ValueList input,
                             const std::vector<TransformFactory>& stages,
                             const PipelineOptions& options) {
  PipelineHandle handle;
  handle.discipline = Discipline::kReadOnly;
  int node_counter = 0;
  const bool recovery = options.recovery.enabled;

  VectorSource::Options source_options;
  source_options.work_ahead = options.work_ahead;
  source_options.work_ahead_lowat = options.work_ahead_lowat;
  source_options.start_on_demand = options.start_on_demand;
  source_options.sequenced = recovery;
  VectorSource& source = kernel.Create<VectorSource>(
      PlaceNext(kernel, options, node_counter), std::move(input), source_options);
  handle.source = source.uid();
  handle.ejects.push_back(source.uid());

  std::vector<Uid> filter_uids;
  Uid upstream = source.uid();
  int stage_index = 0;
  for (const TransformFactory& factory : stages) {
    ReadOnlyFilter::Options filter_options;
    filter_options.source = upstream;
    filter_options.batch = options.batch;
    filter_options.lookahead = options.lookahead;
    filter_options.work_ahead = options.work_ahead;
    filter_options.work_ahead_lowat = options.work_ahead_lowat;
    filter_options.start_on_demand = options.start_on_demand;
    filter_options.processing_cost = options.processing_cost;
    filter_options.recovery = MakeFilterRecovery(options);
    if (recovery) {
      filter_options.recovery.eject_type = UniqueTypeName(
          kernel, std::string(ReadOnlyFilter::kType) + "/" +
                      std::to_string(stage_index));
    }
    ReadOnlyFilter& filter =
        kernel.Create<ReadOnlyFilter>(PlaceNext(kernel, options, node_counter),
                                      factory(), filter_options);
    if (recovery) {
      kernel.types().Register(
          filter_options.recovery.eject_type,
          [factory, filter_options](Kernel& k) -> std::unique_ptr<Eject> {
            return std::make_unique<ReadOnlyFilter>(k, factory(), filter_options);
          });
      filter_uids.push_back(filter.uid());
    }
    handle.ejects.push_back(filter.uid());
    upstream = filter.uid();
    stage_index++;
  }

  PullSink::Options sink_options;
  sink_options.batch = options.batch;
  sink_options.lookahead = options.lookahead;
  sink_options.deadline = recovery ? options.recovery.deadline : 0;
  sink_options.retry_attempts = recovery ? options.recovery.retry_attempts : 0;
  sink_options.retry_backoff = recovery ? options.recovery.retry_backoff : 0;
  sink_options.sequenced = recovery;
  PullSink& sink = kernel.Create<PullSink>(PlaceNext(kernel, options, node_counter),
                                           upstream, Value(std::string(kChanOut)),
                                           sink_options);
  handle.sink = sink.uid();
  handle.ejects.push_back(sink.uid());
  handle.pull_sink = &sink;
  MaybeAddMonitor(kernel, options, handle, std::move(filter_uids));
  return handle;
}

PipelineHandle BuildWriteOnly(Kernel& kernel, ValueList input,
                              const std::vector<TransformFactory>& stages,
                              const PipelineOptions& options) {
  PipelineHandle handle;
  handle.discipline = Discipline::kWriteOnly;
  int node_counter = 0;
  const bool recovery = options.recovery.enabled;

  PushSource::Options source_options;
  source_options.batch = options.batch;
  source_options.deadline = recovery ? options.recovery.deadline : 0;
  source_options.retry_attempts = recovery ? options.recovery.retry_attempts : 0;
  source_options.retry_backoff = recovery ? options.recovery.retry_backoff : 0;
  source_options.sequenced = recovery;
  PushSource& source = kernel.Create<PushSource>(
      PlaceNext(kernel, options, node_counter), std::move(input), source_options);
  handle.source = source.uid();
  handle.ejects.push_back(source.uid());

  std::vector<WriteOnlyFilter*> filters;
  std::vector<WriteOnlyFilter::Options> filter_option_copies;
  int stage_index = 0;
  for (const TransformFactory& factory : stages) {
    WriteOnlyFilter::Options filter_options;
    filter_options.batch = options.batch;
    filter_options.input_capacity = options.acceptor_capacity;
    filter_options.input_lowat = options.acceptor_lowat;
    filter_options.processing_cost = options.processing_cost;
    filter_options.recovery = MakeFilterRecovery(options);
    if (recovery) {
      filter_options.recovery.eject_type = UniqueTypeName(
          kernel, std::string(WriteOnlyFilter::kType) + "/" +
                      std::to_string(stage_index));
    }
    WriteOnlyFilter& filter =
        kernel.Create<WriteOnlyFilter>(PlaceNext(kernel, options, node_counter),
                                       factory(), filter_options);
    handle.ejects.push_back(filter.uid());
    filters.push_back(&filter);
    filter_option_copies.push_back(filter_options);
    stage_index++;
  }

  PushSink::Options sink_options;
  sink_options.capacity = options.acceptor_capacity;
  sink_options.lowat = options.acceptor_lowat;
  sink_options.sequenced = recovery;
  PushSink& sink = kernel.Create<PushSink>(PlaceNext(kernel, options, node_counter),
                                           sink_options);
  handle.sink = sink.uid();
  handle.ejects.push_back(sink.uid());
  handle.push_sink = &sink;

  // Wire source -> F1 -> ... -> Fn -> sink (data flows with control flow).
  // Reactivation factories are registered here, once the downstream of each
  // filter is known: the binding is part of the type, not the checkpoint.
  Uid downstream = sink.uid();
  for (size_t i = filters.size(); i-- > 0;) {
    filters[i]->BindOutput(std::string(kChanOut), downstream,
                           Value(std::string(kChanIn)));
    if (recovery) {
      TransformFactory factory = stages[i];
      WriteOnlyFilter::Options filter_options = filter_option_copies[i];
      kernel.types().Register(
          filter_options.recovery.eject_type,
          [factory, filter_options, downstream](Kernel& k) -> std::unique_ptr<Eject> {
            auto fresh =
                std::make_unique<WriteOnlyFilter>(k, factory(), filter_options);
            fresh->BindOutput(std::string(kChanOut), downstream,
                              Value(std::string(kChanIn)));
            return fresh;
          });
    }
    downstream = filters[i]->uid();
  }
  source.BindOutput(downstream, Value(std::string(kChanIn)));

  std::vector<Uid> filter_uids;
  for (WriteOnlyFilter* filter : filters) {
    filter_uids.push_back(filter->uid());
  }
  MaybeAddMonitor(kernel, options, handle, std::move(filter_uids));
  return handle;
}

PipelineHandle BuildConventional(Kernel& kernel, ValueList input,
                                 const std::vector<TransformFactory>& stages,
                                 const PipelineOptions& options) {
  PipelineHandle handle;
  handle.discipline = Discipline::kConventional;
  int node_counter = 0;
  const bool recovery = options.recovery.enabled;

  PushSource::Options source_options;
  source_options.batch = options.batch;
  source_options.deadline = recovery ? options.recovery.deadline : 0;
  source_options.retry_attempts = recovery ? options.recovery.retry_attempts : 0;
  source_options.retry_backoff = recovery ? options.recovery.retry_backoff : 0;
  source_options.sequenced = recovery;
  PushSource& source = kernel.Create<PushSource>(
      PlaceNext(kernel, options, node_counter), std::move(input), source_options);
  handle.source = source.uid();
  handle.ejects.push_back(source.uid());

  PassiveBuffer::Options pipe_options;
  pipe_options.capacity = options.pipe_capacity;
  pipe_options.lowat = options.pipe_lowat;
  pipe_options.sequenced = recovery;

  // Every junction gets a pipe: source->p0, Fi->pi, Fn->pn->sink (Figure 1,
  // with the paper's §4 count of n+1 passive buffers).
  PassiveBuffer& first_pipe = kernel.Create<PassiveBuffer>(
      PlaceNext(kernel, options, node_counter), pipe_options);
  handle.ejects.push_back(first_pipe.uid());
  handle.passive_buffer_count++;
  source.BindOutput(first_pipe.uid(), Value(std::string(kChanIn)));

  std::vector<Uid> filter_uids;
  Uid upstream_pipe = first_pipe.uid();
  int stage_index = 0;
  for (const TransformFactory& factory : stages) {
    ConventionalFilter::Options filter_options;
    filter_options.source = upstream_pipe;
    filter_options.batch = options.batch;
    filter_options.lookahead = options.lookahead;
    filter_options.processing_cost = options.processing_cost;
    filter_options.recovery = MakeFilterRecovery(options);
    if (recovery) {
      filter_options.recovery.eject_type = UniqueTypeName(
          kernel, std::string(ConventionalFilter::kType) + "/" +
                      std::to_string(stage_index));
    }
    ConventionalFilter& filter =
        kernel.Create<ConventionalFilter>(PlaceNext(kernel, options, node_counter),
                                          factory(), filter_options);
    handle.ejects.push_back(filter.uid());

    PassiveBuffer& pipe = kernel.Create<PassiveBuffer>(
        PlaceNext(kernel, options, node_counter), pipe_options);
    handle.ejects.push_back(pipe.uid());
    handle.passive_buffer_count++;
    filter.BindOutput(std::string(kChanOut), pipe.uid(), Value(std::string(kChanIn)));
    if (recovery) {
      Uid downstream = pipe.uid();
      kernel.types().Register(
          filter_options.recovery.eject_type,
          [factory, filter_options, downstream](Kernel& k) -> std::unique_ptr<Eject> {
            auto fresh =
                std::make_unique<ConventionalFilter>(k, factory(), filter_options);
            fresh->BindOutput(std::string(kChanOut), downstream,
                              Value(std::string(kChanIn)));
            return fresh;
          });
      filter_uids.push_back(filter.uid());
    }
    upstream_pipe = pipe.uid();
    stage_index++;
  }

  PullSink::Options sink_options;
  sink_options.batch = options.batch;
  sink_options.lookahead = options.lookahead;
  sink_options.deadline = recovery ? options.recovery.deadline : 0;
  sink_options.retry_attempts = recovery ? options.recovery.retry_attempts : 0;
  sink_options.retry_backoff = recovery ? options.recovery.retry_backoff : 0;
  sink_options.sequenced = recovery;
  PullSink& sink = kernel.Create<PullSink>(PlaceNext(kernel, options, node_counter),
                                           upstream_pipe,
                                           Value(std::string(kChanOut)), sink_options);
  handle.sink = sink.uid();
  handle.ejects.push_back(sink.uid());
  handle.pull_sink = &sink;
  MaybeAddMonitor(kernel, options, handle, std::move(filter_uids));
  return handle;
}

// Role names parallel to handle.ejects. The eject order is fixed by the
// builders: source, then (for conventional) alternating pipe/filter pairs,
// then the sink.
void FillStageNames(PipelineHandle& handle) {
  handle.stage_names.clear();
  handle.stage_names.reserve(handle.ejects.size());
  int filter = 0;
  int pipe = 0;
  for (size_t i = 0; i < handle.ejects.size(); ++i) {
    if (i == 0) {
      handle.stage_names.push_back("source");
    } else if (i + 1 == handle.ejects.size()) {
      handle.stage_names.push_back("sink");
    } else if (handle.discipline == Discipline::kConventional && i % 2 == 1) {
      handle.stage_names.push_back("pipe" + std::to_string(pipe++));
    } else {
      handle.stage_names.push_back("filter" + std::to_string(++filter));
    }
  }
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
  PipelineHandle handle;
  switch (options.discipline) {
    case Discipline::kReadOnly:
      handle = BuildReadOnly(kernel, std::move(input), stages, options);
      break;
    case Discipline::kWriteOnly:
      handle = BuildWriteOnly(kernel, std::move(input), stages, options);
      break;
    case Discipline::kConventional:
      handle = BuildConventional(kernel, std::move(input), stages, options);
      break;
  }
  assert(!handle.ejects.empty() && "unknown discipline");
  handle.lint = std::move(lint);
  FillStageNames(handle);
  return handle;
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

#include "src/core/pipeline_verify.h"

#include <string>
#include <utility>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/stream.h"

namespace eden {

namespace {

verify::Flavor FlavorOf(Discipline discipline) {
  switch (discipline) {
    case Discipline::kReadOnly:
      return verify::Flavor::kReadOnly;
    case Discipline::kWriteOnly:
      return verify::Flavor::kWriteOnly;
    case Discipline::kConventional:
      return verify::Flavor::kConventional;
  }
  return verify::Flavor::kMixed;
}

void Bound(verify::StageSpec& ends, size_t hiwat, size_t lowat) {
  ends.bounded = true;
  ends.hiwat = hiwat;
  ends.lowat = lowat;
}

verify::TopologySpec Plan(size_t stage_count, const PipelineOptions& options,
                          NodeId first_node) {
  verify::TopologySpec spec;
  spec.flavor = FlavorOf(options.discipline);
  spec.recovery = EffectiveRecovery(options);
  WalkPlan(stage_count, options, first_node,
           [&spec](const verify::StageSpec& stage, const verify::EdgeSpec* feed) {
             spec.AddStage(stage);
             if (feed != nullptr) {
               spec.AddEdge(*feed);
             }
           });
  return spec;
}

void SetConcurrency(verify::TopologySpec& spec, const Kernel& kernel) {
  spec.has_concurrency = true;
  spec.shards = kernel.shard_count();
  spec.lookahead = kernel.options().lookahead;
  spec.costs = kernel.costs();
}

}  // namespace

verify::RecoveryKnobs EffectiveRecovery(const PipelineOptions& options) {
  verify::RecoveryKnobs knobs;
  knobs.enabled = options.recovery.enabled;
  if (options.recovery.enabled) {
    knobs.retry = options.recovery.retry;
    knobs.checkpoint_every = options.recovery.checkpoint_every;
    knobs.probe_interval = options.recovery.probe_interval;
  }
  return knobs;
}

void WalkPlan(size_t stage_count, const PipelineOptions& options,
              NodeId first_node, const PlanVisitor& visit) {
  size_t position = 0;
  verify::EdgeSpec pull;
  pull.mode = verify::EdgeSpec::Mode::kPull;
  pull.channel = kChanOut;
  verify::EdgeSpec push;
  push.mode = verify::EdgeSpec::Mode::kPush;
  push.channel = kChanIn;
  verify::EdgeSpec* feed = nullptr;  // the wire into the next stage
  // `ends` holds a stage's role, Eject type and watermarks; add() stamps its
  // name, placeholder UID and node, and visits it with the wire from the
  // stage before. The active end decides who invokes whom: an active output
  // pushes into the next stage's "in", otherwise the next stage pulls this
  // one's "out".
  auto add = [&](std::string name, verify::StageSpec& ends) {
    ends.uid = Uid(0, position + 1);
    ends.name = std::move(name);
    if (options.distinct_nodes) {
      ends.node = first_node + static_cast<NodeId>(position);
      ends.shard_hint = options.partition_shard;
    }
    if (feed != nullptr) {
      feed->to = ends.uid;
    }
    visit(ends, feed);
    feed = ends.active_output ? &push : &pull;
    feed->from = ends.uid;
    ++position;
  };
  auto filter_name = [](size_t i) { return "filter" + std::to_string(i + 1); };

  verify::StageSpec source;
  source.is_source = true;
  verify::StageSpec filter;
  verify::StageSpec sink;
  sink.is_sink = true;
  switch (options.discipline) {
    case Discipline::kReadOnly: {
      // Source and filters answer Transfer from a work-ahead buffer.
      for (verify::StageSpec* server : {&source, &filter}) {
        server->passive_output = true;
        server->lazy = options.start_on_demand;
        Bound(*server, options.work_ahead, options.work_ahead_lowat);
      }
      source.type = VectorSource::kType;
      add("source", source);
      filter.type = ReadOnlyFilter::kType;
      filter.active_input = true;
      for (size_t i = 0; i < stage_count; ++i) {
        add(filter_name(i), filter);
      }
      sink.type = PullSink::kType;
      sink.active_input = true;
      add("sink", sink);
      break;
    }
    case Discipline::kWriteOnly: {
      source.type = PushSource::kType;
      source.active_output = true;
      add("source", source);
      filter.type = WriteOnlyFilter::kType;
      filter.passive_input = true;
      filter.active_output = true;
      Bound(filter, options.acceptor_capacity, options.acceptor_lowat);
      for (size_t i = 0; i < stage_count; ++i) {
        add(filter_name(i), filter);
      }
      sink.type = PushSink::kType;
      sink.passive_input = true;
      Bound(sink, options.acceptor_capacity, options.acceptor_lowat);
      add("sink", sink);
      break;
    }
    case Discipline::kConventional: {
      // Every junction gets a pipe (Figure 1, with §4's n+1 passive buffers).
      source.type = PushSource::kType;
      source.active_output = true;
      add("source", source);
      verify::StageSpec pipe;
      pipe.type = PassiveBuffer::kType;
      pipe.passive_input = true;
      pipe.passive_output = true;
      Bound(pipe, options.pipe_capacity, options.pipe_lowat);
      filter.type = ConventionalFilter::kType;
      filter.active_input = true;
      filter.active_output = true;
      for (size_t i = 0; i < stage_count; ++i) {
        add("pipe" + std::to_string(i), pipe);
        add(filter_name(i), filter);
      }
      add("pipe" + std::to_string(stage_count), pipe);
      sink.type = PullSink::kType;
      sink.active_input = true;
      add("sink", sink);
      break;
    }
  }
}

verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options) {
  return Plan(stage_count, options, 1);
}

verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options,
                                  const Kernel& kernel) {
  verify::TopologySpec spec =
      Plan(stage_count, options, static_cast<NodeId>(kernel.node_count()));
  SetConcurrency(spec, kernel);
  return spec;
}

verify::TopologySpec DescribePipeline(const PipelineHandle& handle,
                                      const PipelineOptions& options) {
  PipelineOptions built = options;
  built.discipline = handle.discipline;
  Eject* sink = handle.pull_sink != nullptr
                    ? static_cast<Eject*>(handle.pull_sink)
                    : handle.push_sink;
  if (sink == nullptr) {
    // A lint-rejected handle: nothing was built, so there is no stage.
    verify::TopologySpec spec;
    spec.flavor = FlavorOf(built.discipline);
    spec.recovery = EffectiveRecovery(built);
    return spec;
  }
  // The endpoints and the pipes aside, every Eject is a transform stage;
  // the sink took the plan's last node.
  verify::TopologySpec spec =
      Plan(handle.ejects.size() - handle.passive_buffer_count - 2, built,
           sink->node() - static_cast<NodeId>(handle.ejects.size() - 1));
  SetConcurrency(spec, sink->kernel());
  for (verify::StageSpec& stage : spec.stages) {
    stage.uid = handle.ejects[PlanPosition(stage.uid)];
  }
  for (verify::EdgeSpec& edge : spec.edges) {
    edge.from = handle.ejects[PlanPosition(edge.from)];
    edge.to = handle.ejects[PlanPosition(edge.to)];
  }
  return spec;
}

verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options) {
  return verify::PipelineLinter().Lint(PlanTopology(stage_count, options));
}

verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options,
                                    const Kernel& kernel) {
  return verify::PipelineLinter().Lint(
      PlanTopology(stage_count, options, kernel));
}

}  // namespace eden

// Bridge between the pipeline builder and the static verification layer:
// the (stages, options) plan BuildPipeline instantiates, as the TopologySpec
// the PipelineLinter analyses. Lives in core so the verify library stays
// free of runtime pipeline types.
#ifndef SRC_CORE_PIPELINE_VERIFY_H_
#define SRC_CORE_PIPELINE_VERIFY_H_

#include <cstddef>
#include <functional>

#include "src/core/pipeline.h"
#include "src/eden/verify/lint.h"
#include "src/eden/verify/topology.h"

namespace eden {

// The recovery knobs in effect: every knob but `enabled` reads zero unless
// recovery is enabled. The one place that rule is decided: the builder
// hands these knobs to filters and stream ends, and the plan carries them
// for the linter.
verify::RecoveryKnobs EffectiveRecovery(const PipelineOptions& options);

// Receives one plan stage and the wire that feeds it from an earlier stage
// (nullptr for the source).
using PlanVisitor = std::function<void(const verify::StageSpec& stage,
                                       const verify::EdgeSpec* feed)>;

// The one description of each discipline's stage sequence: visits every
// stage of the pipeline for `stage_count` transform stages under `options`
// in creation (source..sink) order, with its name, Eject type, watermarks,
// push/pull feed and channel, and placement. Stage i carries the
// placeholder UID Uid(0, i + 1) (see PlanPosition) and, under
// distinct_nodes, node first_node + i with shard_hint =
// options.partition_shard. Each stage is fed by the one before it.
// BuildPipeline creates one Eject per visit, so a build allocates no
// TopologySpec; PlanTopology collects the visits into one.
void WalkPlan(size_t stage_count, const PipelineOptions& options,
              NodeId first_node, const PlanVisitor& visit);

// The topology BuildPipeline constructs for `stage_count` transform stages
// under `options`, with placement as on a fresh kernel (first node 1).
verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options);

// The plan BuildPipeline instantiates on `kernel`: the concurrency context
// (shard count, configured lookahead, cost model) is read off the kernel,
// and under distinct_nodes stage i gets the node id AddNode will return for
// it, kernel.node_count() + i. Arms the ASC010-ASC012 shard-safety rules;
// without a kernel they stay silent.
verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options,
                                  const Kernel& kernel);

// The position of a plan stage from its placeholder UID.
inline size_t PlanPosition(const Uid& placeholder) {
  return static_cast<size_t>(placeholder.lo() - 1);
}

// The plan a finished pipeline was built from, with its real UIDs, nodes
// and kernel context. A lint-rejected handle built nothing: its description
// has the discipline's flavor and recovery knobs but no stage.
verify::TopologySpec DescribePipeline(const PipelineHandle& handle,
                                      const PipelineOptions& options);

// Lints the plan without constructing anything.
verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options);

// Kernel-aware lint: the structural rules plus ASC010-ASC012 against the
// kernel's actual shard count, lookahead and cost model. This is what the
// lint_before_activate gate runs, so a lookahead undercut is an activation
// error instead of a runtime abort.
verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options,
                                    const Kernel& kernel);

}  // namespace eden

#endif  // SRC_CORE_PIPELINE_VERIFY_H_
